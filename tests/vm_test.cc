// The compiled engine: compiler goldens (per-opcode programs and
// disassembly), round-trips against the reference evaluator on the paper's
// worked examples, the arena-reuse and fused-chain invariants the VM exists
// for, cursor streaming (in-memory, chunked, and SetStore-backed), and the
// span/counter emission the observability layer promises.

#include <gtest/gtest.h>

#include <unistd.h>

#include <set>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/core/cursor.h"
#include "src/core/validate.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/store/cursor.h"
#include "src/store/setstore.h"
#include "src/xsp/analyze.h"
#include "src/xsp/compile.h"
#include "src/xsp/eval.h"
#include "src/xsp/parser.h"
#include "src/xsp/vm.h"
#include "tests/testing.h"

namespace xst {
namespace xsp {
namespace {

using testing::X;

Bindings FriendsEnv() {
  Bindings env;
  env["friends"] = X("{<ann, bob>, <bob, cho>, <cho, dee>}");
  env["start"] = X("{<ann>}");
  return env;
}

// Evaluates `plan_text` both ways and requires pointwise agreement plus a
// deep-valid result.
void ExpectRoundTrip(const std::string& plan_text, const Bindings& env,
                     VmContext* ctx = nullptr) {
  SCOPED_TRACE(plan_text);
  ExprPtr plan = *ParsePlan(plan_text);
  Result<XSet> expected = Eval(plan, env);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  Result<Program> program = Compile(plan);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  Result<XSet> actual = VmEval(*program, env, ctx);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  EXPECT_EQ(*actual, *expected) << program->ToString();
  EXPECT_TRUE(ValidateXSet(*actual, ValidateLevel::kDeep).ok());
}

TEST(Compile, GoldenUnionProgram) {
  Program p = *Compile(Expr::Union(Expr::Named("t0"), Expr::Named("t1")));
  EXPECT_EQ(p.ToString(),
            "0: LoadBinding r0 <- @t0\n"
            "1: LoadBinding r1 <- @t1\n"
            "2: Union r2 <- r0, r1\n"
            "3: Materialize r2\n");
  EXPECT_EQ(p.num_regs, 3);
  EXPECT_EQ(p.names, (std::vector<std::string>{"t0", "t1"}));
}

TEST(Compile, GoldenRootImageUsesIndexPath) {
  // A root image over a stable leaf carrier compiles to the cached
  // ImageIndex access path: operands are materialized first.
  Program p = *Compile(
      Expr::Image(Expr::Named("r"), Expr::Named("a"), Sigma::Std()));
  EXPECT_EQ(p.ToString(),
            "0: LoadBinding r0 <- @r\n"
            "1: LoadBinding r1 <- @a\n"
            "2: Materialize r0\n"
            "3: Materialize r1\n"
            "4: Index r2 <- r0[r1] sigma#0\n"
            "5: Materialize r2\n");
}

TEST(Compile, InteriorImageStaysFused) {
  // The same image under a boolean root stays on the span loop — no Index,
  // no operand materialization, one intern at the end.
  Program p = *Compile(Expr::Union(
      Expr::Image(Expr::Named("r"), Expr::Named("a"), Sigma::Std()),
      Expr::Named("t")));
  EXPECT_EQ(p.ToString(),
            "0: LoadBinding r0 <- @r\n"
            "1: LoadBinding r1 <- @a\n"
            "2: Image r2 <- r0[r1] sigma#0\n"
            "3: LoadBinding r3 <- @t\n"
            "4: Union r4 <- r2, r3\n"
            "5: Materialize r4\n");
}

TEST(Compile, GoldenRescopeRestrictClosure) {
  Program dom = *Compile(Expr::Domain(Expr::Named("r"), X("<2>")));
  EXPECT_EQ(dom.ToString(),
            "0: LoadBinding r0 <- @r\n"
            "1: Rescope r1 <- r0 sigma#0\n"
            "2: Materialize r1\n");

  Program restrict = *Compile(
      Expr::Restrict(Expr::Named("r"), X("<1>"), Expr::Named("a")));
  EXPECT_NE(restrict.ToString().find("Restrict r2 <- r0[r1] sigma#0"),
            std::string::npos);

  Program closure = *Compile(Expr::Closure(Expr::Named("r")));
  EXPECT_EQ(closure.ToString(),
            "0: LoadBinding r0 <- @r\n"
            "1: Materialize r0\n"
            "2: Closure r1 <- r0+\n"
            "3: Materialize r1\n");
}

TEST(Compile, SharedSubtreesCompileOnce) {
  // Pointer-shared subtrees (what optimizer rewrites produce) get one
  // register, not one per occurrence.
  ExprPtr shared = Expr::Image(Expr::Named("r"), Expr::Named("a"), Sigma::Std());
  Program p = *Compile(Expr::Union(shared, shared));
  size_t images = 0;
  for (const Instr& in : p.code) images += in.op == OpCode::kImage ? 1 : 0;
  EXPECT_EQ(images, 1u);
  const Instr& root_union = p.code[p.code.size() - 2];
  EXPECT_EQ(root_union.op, OpCode::kUnion);
  EXPECT_EQ(root_union.a, root_union.b);
}

TEST(Compile, NullExpressionFails) {
  EXPECT_TRUE(Compile(nullptr).status().IsInvalid());
}

TEST(Compile, EveryOpcodeReachable) {
  // One plan that lowers to all 14 opcodes — and still round-trips. Both
  // range access paths appear: a range over a named leaf (kLoadRange) and a
  // range over a computed child (kRange).
  ExprPtr inner =
      Expr::Image(Expr::Named("t0"), Expr::Literal(X("{<d0>, <d1>}")), Sigma::Std());
  ExprPtr boolean = Expr::Union(Expr::Intersect(inner, Expr::Named("t1")),
                                Expr::Difference(Expr::Named("t1"), Expr::Named("t2")));
  ExprPtr chain = Expr::Restrict(Expr::Named("t0"), X("<1>"),
                                 Expr::Domain(boolean, X("<1>")));
  ExprPtr ranged = Expr::Union(Expr::Range(Expr::Named("t2"), X("{}"), X("<zz, zz, zz>")),
                               Expr::Range(chain, X("{}"), X("<zz, zz, zz>")));
  ExprPtr rp = Expr::RelProduct(ranged, Expr::Closure(Expr::Named("t2")),
                                Sigma::Std(), Sigma::Std());
  ExprPtr root = Expr::Image(Expr::Named("t1"), rp, Sigma::Std());

  Program p = *Compile(root);
  std::set<OpCode> seen;
  for (const Instr& in : p.code) seen.insert(in.op);
  EXPECT_EQ(seen.size(), kNumOpCodes) << p.ToString();

  testing::RandomSetGen gen(1977);
  Bindings env;
  env["t0"] = gen.Relation(8);
  env["t1"] = gen.Relation(8);
  env["t2"] = gen.Relation(8);
  Result<XSet> expected = Eval(root, env);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  Result<XSet> actual = VmEval(p, env);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  EXPECT_EQ(*actual, *expected);
}

TEST(Vm, RoundTripPaperWorkedExamples) {
  Bindings env = FriendsEnv();
  VmContext ctx;
  // The §10/§11 access shapes: one-hop and staged two-hop images, σ-domain,
  // restriction, boolean composition over image results.
  ExpectRoundTrip("image[<1>, <2>](@friends, @start)", env, &ctx);
  ExpectRoundTrip("image[<1>, <2>](@friends, image[<1>, <2>](@friends, @start))",
                  env, &ctx);
  ExpectRoundTrip("domain[<2>](@friends)", env, &ctx);
  ExpectRoundTrip("restrict[<1>](@friends, {<ann>, <cho>})", env, &ctx);
  ExpectRoundTrip(
      "union(image[<1>, <2>](@friends, {<ann>}), image[<1>, <2>](@friends, {<bob>}))",
      env, &ctx);
  ExpectRoundTrip(
      "intersect(domain[<1>](@friends), domain[<2>](@friends))", env, &ctx);
  ExpectRoundTrip("difference(domain[<1>](@friends), @start)", env, &ctx);
}

TEST(Vm, AtomAndEmptyOperandsMatchInterpreter) {
  Bindings env = FriendsEnv();
  env["seven"] = XSet::Int(7);
  env["nothing"] = XSet::Empty();
  VmContext ctx;
  ExpectRoundTrip("@seven", env, &ctx);  // root atom survives via WholeSet
  ExpectRoundTrip("union(@seven, @start)", env, &ctx);
  ExpectRoundTrip("intersect(@friends, @nothing)", env, &ctx);
  ExpectRoundTrip("image[<1>, <2>](@friends, @nothing)", env, &ctx);
  ExpectRoundTrip("difference(@nothing, @friends)", env, &ctx);
}

TEST(Vm, UnboundNameIsNotFound) {
  Program p = *Compile(Expr::Named("missing"));
  Bindings env;
  EXPECT_TRUE(VmEval(p, env).status().IsNotFound());
}

TEST(Vm, FusedChainInternsOnlyTheRoot) {
  // The Def 11.1 regime the VM exists for: a composed σ∘image∘boolean
  // chain runs span-to-span and interns exactly one value — the result.
  Bindings env = FriendsEnv();
  ExprPtr plan = *ParsePlan(
      "union(image[<1>, <2>](@friends, @start),"
      " intersect(image[<1>, <2>](@friends, {<bob>}), domain[<2>](@friends)))");
  Program p = *Compile(plan);
  VmStats stats;
  Result<XSet> result = VmEval(p, env, nullptr, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, *Eval(plan, env));
  EXPECT_EQ(stats.instructions, p.code.size());
  EXPECT_EQ(stats.materializations, 1u) << p.ToString();
  EXPECT_EQ(stats.interned_intermediate_rows, 0u);
  EXPECT_GE(stats.peak_rows, result->cardinality());

  // EXPLAIN ANALYZE reports the same zero, per instruction.
  AnalyzeResult analyzed = *ExplainAnalyze(plan, env);
  EXPECT_EQ(analyzed.value, *result);
  EXPECT_EQ(analyzed.MaterializedIntermediateCardinality(), 0u)
      << analyzed.Render();
  EXPECT_EQ(analyzed.stats.interned_intermediate_rows, 0u);
}

TEST(Vm, ArenaCapacitySteadyAcrossExecutions) {
  // The arena-reuse invariant: re-running a program against the same data
  // clears the buffers but never shrinks (or regrows) them.
  Bindings env = FriendsEnv();
  Program p = *Compile(*ParsePlan(
      "union(image[<1>, <2>](@friends, @start), domain[<1>](@friends))"));
  VmContext ctx;
  ASSERT_TRUE(VmEval(p, env, &ctx).ok());
  EXPECT_EQ(ctx.arena_buffers(), p.num_regs);
  const size_t steady = ctx.arena_capacity();
  EXPECT_GT(steady, 0u);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(VmEval(p, env, &ctx).ok());
    EXPECT_EQ(ctx.arena_capacity(), steady) << "execution " << i;
  }
}

TEST(Vm, IndexCachePersistsAcrossExecutions) {
  // Root images over stable carriers build their ImageIndex once per
  // VmContext; re-execution hits the cache instead of rebuilding.
  Bindings env = FriendsEnv();
  Program p = *Compile(*ParsePlan("image[<1>, <2>](@friends, @start)"));
  VmContext ctx;
  XSet first = *VmEval(p, env, &ctx);
  EXPECT_EQ(ctx.index_cache_size(), 1u);
  XSet second = *VmEval(p, env, &ctx);
  EXPECT_EQ(ctx.index_cache_size(), 1u);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, *Eval(*ParsePlan("image[<1>, <2>](@friends, @start)"), env));
}

TEST(Vm, SpansAndCountersEmitted) {
  Bindings env = FriendsEnv();
  ExprPtr plan = *ParsePlan(
      "union(image[<1>, <2>](@friends, @start), domain[<1>](@friends))");
  Program p = *Compile(plan);

  obs::Counter& programs = obs::MetricsRegistry::Global().GetCounter("xsp.vm.programs");
  obs::Counter& instructions =
      obs::MetricsRegistry::Global().GetCounter("xsp.vm.instructions");
  obs::Counter& unions = obs::MetricsRegistry::Global().GetCounter("xsp.vm.op.Union");
  const uint64_t programs0 = programs.value();
  const uint64_t instructions0 = instructions.value();
  const uint64_t unions0 = unions.value();

  std::vector<obs::SpanRecord> spans;
  {
    obs::ScopedTraceSink sink;
    ASSERT_TRUE(VmEval(p, env).ok());
    spans = sink.TakeSpans();
  }
  std::set<std::string> names;
  for (const obs::SpanRecord& span : spans) names.insert(span.name);
  EXPECT_TRUE(names.count("xsp.vm.exec")) << "spans: " << names.size();
  EXPECT_TRUE(names.count("vm.load_binding"));
  EXPECT_TRUE(names.count("vm.image"));
  EXPECT_TRUE(names.count("vm.union"));
  EXPECT_TRUE(names.count("vm.rescope"));
  EXPECT_TRUE(names.count("vm.materialize"));

  EXPECT_EQ(programs.value(), programs0 + 1);
  EXPECT_EQ(instructions.value(), instructions0 + p.code.size());
  EXPECT_EQ(unions.value(), unions0 + 1);
}

// A cursor that serves fixed-size chunks, forcing the VM's batch
// concatenation path even for small in-memory operands.
class ChunkedCursor final : public MemberCursor {
 public:
  ChunkedCursor(XSet set, size_t batch) : set_(std::move(set)), batch_(batch) {}

  std::span<const Membership> NextBatch() override {
    std::span<const Membership> ms = set_.members();
    if (offset_ >= ms.size()) return {};
    const size_t len = std::min(batch_, ms.size() - offset_);
    std::span<const Membership> out = ms.subspan(offset_, len);
    offset_ += len;
    return out;
  }

 private:
  XSet set_;
  size_t batch_;
  size_t offset_ = 0;
};

class ChunkedSource final : public CursorSource {
 public:
  explicit ChunkedSource(const Bindings& bindings) : bindings_(bindings) {}

  Result<std::unique_ptr<MemberCursor>> Open(const std::string& name) const override {
    auto it = bindings_.find(name);
    if (it == bindings_.end()) return Status::NotFound("unbound '" + name + "'");
    return std::unique_ptr<MemberCursor>(new ChunkedCursor(it->second, 2));
  }

 private:
  const Bindings& bindings_;
};

TEST(Vm, ChunkedCursorBatchesReassemble) {
  Bindings env = FriendsEnv();
  ExprPtr plan = *ParsePlan(
      "union(image[<1>, <2>](@friends, @start), domain[<1>](@friends))");
  Program p = *Compile(plan);
  ChunkedSource source(env);
  Result<XSet> streamed = VmEval(p, source);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_EQ(*streamed, *Eval(plan, env));
}

TEST(Vm, StoreCursorSourceStreamsFromPager) {
  const testing::ScopedStorePath file(::testing::TempDir() + "xst_vm_test_" +
                                      std::to_string(::getpid()));

  Bindings env = FriendsEnv();
  env["seven"] = XSet::Int(7);
  {
    auto store = SetStore::Open(file.path());
    ASSERT_TRUE(store.ok());
    for (const auto& [name, value] : env) {
      ASSERT_TRUE((*store)->Put(name, value).ok());
    }
    StoreCursorSource source(**store);
    for (const std::string& text :
         {std::string("image[<1>, <2>](@friends, image[<1>, <2>](@friends, @start))"),
          std::string("union(@seven, domain[<1>](@friends))")}) {
      SCOPED_TRACE(text);
      ExprPtr plan = *ParsePlan(text);
      Result<XSet> streamed = VmEval(*Compile(plan), source);
      ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
      EXPECT_EQ(*streamed, *Eval(plan, env));
    }
    EXPECT_TRUE(VmEval(*Compile(Expr::Named("missing")), source).status().IsNotFound());
  }
}

TEST(Vm, RangeOverIndexedStoreReadsOnlyInRangeLeaves) {
  // A range σ-restriction over a stored set reads only its slice of the
  // index: the pager counters prove kLoadRange touched a root-to-leaf spine
  // plus the in-range leaves, not the whole tree.
  const testing::ScopedStorePath file(::testing::TempDir() + "xst_vm_range_" +
                                      std::to_string(::getpid()));

  // Integer atoms order numerically under Compare, so [100, 120] is a
  // 21-member contiguous slice of the canonical list.
  std::vector<Membership> members;
  for (int i = 0; i < 20000; ++i) {
    members.push_back(Membership{XSet::Int(i), XSet::Empty()});
  }
  XSet big = XSet::FromMembers(std::move(members));
  Bindings env;
  env["big"] = big;
  {
    auto store = SetStore::Open(file.path());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->PutIndexed("big", big).ok());
    StoreCursorSource source(**store);

    ExprPtr plan = *ParsePlan("range[100, 120](@big)");
    Program p = *Compile(plan);
    // Access-path selection must have picked the streaming opcode.
    EXPECT_NE(p.ToString().find("LoadRange"), std::string::npos) << p.ToString();

    // Deep-validation builds (XST_VALIDATE_LEVEL >= 2) validate the whole
    // tree each time a range cursor opens, by design. Measure one validation
    // and allow exactly that much on top of the bound below; a second
    // validation or a drained tree still fails it.
    uint64_t validation_touches = 0;
    if constexpr (XST_VALIDATE_LEVEL >= 2) {
      Result<uint64_t> touches = testing::IndexValidationTouches(**store);
      ASSERT_TRUE(touches.ok());
      validation_touches = *touches;
    }

    testing::PagerCounters counters;
    Result<XSet> streamed = VmEval(p, source);
    ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
    EXPECT_EQ(*streamed, *Eval(plan, env));
    EXPECT_GT(streamed->cardinality(), 0u);

    // 20k members span many leaves; an interval of 21 members
    // must touch only a seek spine plus a handful of leaves. The generous
    // bound still fails by an order of magnitude if the cursor drains or
    // validates the whole tree.
    const uint64_t range_touches = counters.hits() + counters.misses();
    EXPECT_LE(range_touches, 24u + validation_touches)
        << "hits " << counters.hits() << " misses " << counters.misses()
        << " validation " << validation_touches;

    // Full materialization of the same stored set for contrast: strictly
    // more page touches than the range read.
    testing::PagerCounters full;
    Result<XSet> whole = (*store)->Get("big");
    ASSERT_TRUE(whole.ok());
    EXPECT_GT(full.hits() + full.misses(), range_touches);
  }
}

TEST(Vm, StatsCountOnlyInternedIntermediates) {
  // Both evaluators produce the same value, but the reference evaluator
  // counts the staged hops as intermediates while the VM, whose fused chain
  // never interns them, counts none.
  Bindings env = FriendsEnv();
  ExprPtr plan = *ParsePlan(
      "union(image[<1>, <2>](@friends, @start), image[<1>, <2>](@friends, {<bob>}))");
  EvalStats eval_stats;
  VmStats vm_stats;
  XSet via_eval = *Eval(plan, env, &eval_stats);
  XSet via_vm = *VmEval(*Compile(plan), env, nullptr, &vm_stats);
  EXPECT_EQ(via_eval, via_vm);
  EXPECT_GT(eval_stats.intermediate_cardinality, 0u);
  EXPECT_EQ(vm_stats.interned_intermediate_rows, 0u);
  EXPECT_EQ(vm_stats.materializations, 1u);
}

}  // namespace
}  // namespace xsp
}  // namespace xst
