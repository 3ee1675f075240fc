// The static program verifier: golden accept cases (everything the
// compiler emits passes, with the expected typed listing), a reject case
// per opcode rule (use-before-def, single assignment, double root, type
// confusion, table/register range violations, structural limits), and a
// table proving every diagnostic names the offending instruction index.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "src/xsp/analyze.h"
#include "src/xsp/compile.h"
#include "src/xsp/parser.h"
#include "src/xsp/verify.h"
#include "src/xsp/vm.h"
#include "tests/testing.h"

namespace xst {
namespace xsp {
namespace {

using testing::X;

// union(@a, @b): two streamed loads, one span kernel, one root intern.
Program UnionProgram() {
  Program p;
  p.names = {"a", "b"};
  p.code = {
      {OpCode::kLoadBinding, 0, 0, 0, 0},
      {OpCode::kLoadBinding, 1, 1, 0, 0},
      {OpCode::kUnion, 2, 0, 1, 0},
      {OpCode::kMaterialize, 2, 2, 0, 0},
  };
  p.num_regs = 3;
  return p;
}

// Asserts Verify rejects `p` with Invalid, and that the diagnostic names
// instruction `index` when one is expected (index < 0 means a program-level
// rejection with no instruction attribution).
void ExpectReject(const Program& p, int index, const std::string& substring) {
  Program copy = p;
  Result<VerifiedProgram> verified = Verify(std::move(copy));
  ASSERT_FALSE(verified.ok()) << "verifier accepted a bad program";
  EXPECT_TRUE(verified.status().IsInvalid()) << verified.status().ToString();
  const std::string message = verified.status().ToString();
  if (index >= 0) {
    EXPECT_NE(message.find("instr " + std::to_string(index)), std::string::npos)
        << message;
  }
  EXPECT_NE(message.find(substring), std::string::npos) << message;
  // The status-only fast path must agree with the proof-carrying one.
  EXPECT_FALSE(VerifyProgram(p).ok());
}

TEST(Verify, AcceptsCompilerOutput) {
  Bindings env;
  env["friends"] = X("{<ann, bob>, <bob, cho>, <cho, dee>}");
  env["start"] = X("{<ann>}");
  const char* plans[] = {
      "union({1, 2}, {2, 3})",
      "difference(union(@friends, @friends), intersect(@friends, @friends))",
      "image[<1>, <2>](@friends, @start)",
      "image[<1>, <2>](@friends, image[<1>, <2>](@friends, @start))",
      "closure(@friends)",
      "relprod[<1>, <2>; <1>, <2>](@friends, @friends)",
      "domain[<1>](@friends)",
      "restrict[<1>](@friends, @start)",
  };
  for (const char* text : plans) {
    SCOPED_TRACE(text);
    Result<Program> program = Compile(*ParsePlan(text));
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    EXPECT_TRUE(VerifyProgram(*program).ok());
    Result<VerifiedProgram> verified = Verify(std::move(*program));
    ASSERT_TRUE(verified.ok()) << verified.status().ToString();
    EXPECT_EQ(verified->instr_types().size(), verified->program().code.size());
    EXPECT_EQ(verified->root_reg(), verified->program().code.back().dst);
    // Every instruction line carries a judgment for its dst.
    EXPECT_NE(verified->ToString().find("-> r"), std::string::npos);
  }
}

TEST(Verify, GoldenTypedListing) {
  Result<VerifiedProgram> verified = Verify(UnionProgram());
  ASSERT_TRUE(verified.ok()) << verified.status().ToString();
  EXPECT_EQ(verified->ToString(),
            "0: LoadBinding r0 <- @a   ; -> r0:span\n"
            "1: LoadBinding r1 <- @b   ; -> r1:span\n"
            "2: Union r2 <- r0, r1   ; r0:span, r1:span -> r2:span\n"
            "3: Materialize r2   ; r2:span -> r2:materialized\n");
  const std::vector<InstrTypes>& types = verified->instr_types();
  ASSERT_EQ(types.size(), 4u);
  EXPECT_EQ(types[0].dst_after, RegType::kSpan);
  EXPECT_EQ(types[2].a_before, RegType::kSpan);
  EXPECT_EQ(types[2].b_before, RegType::kSpan);
  EXPECT_EQ(types[3].a_before, RegType::kSpan);
  EXPECT_EQ(types[3].dst_after, RegType::kMaterialized);
}

TEST(Verify, RegTypeNames) {
  EXPECT_STREQ(RegTypeName(RegType::kUninit), "uninit");
  EXPECT_STREQ(RegTypeName(RegType::kSpan), "span");
  EXPECT_STREQ(RegTypeName(RegType::kHandle), "handle");
  EXPECT_STREQ(RegTypeName(RegType::kMaterialized), "materialized");
  EXPECT_FALSE(IsInterned(RegType::kUninit));
  EXPECT_FALSE(IsInterned(RegType::kSpan));
  EXPECT_TRUE(IsInterned(RegType::kHandle));
  EXPECT_TRUE(IsInterned(RegType::kMaterialized));
}

TEST(Verify, RejectsUseBeforeDef) {
  Program p = UnionProgram();
  p.code[2].b = 2;  // r2 not yet defined
  ExpectReject(p, 2, "used before definition");
}

TEST(Verify, RejectsDoubleAssignment) {
  Program p = UnionProgram();
  p.code[1].dst = 0;  // clobbers r0
  ExpectReject(p, 1, "single-assignment");
}

TEST(Verify, RejectsDoubleRootMaterialization) {
  Program p;
  p.literals = {X("{1}")};
  p.code = {
      {OpCode::kLoadLiteral, 0, 0, 0, 0},
      {OpCode::kMaterialize, 0, 0, 0, 0},
      {OpCode::kMaterialize, 0, 0, 0, 0},
  };
  p.num_regs = 1;
  ExpectReject(p, 1, "materialized before the final instruction");
}

TEST(Verify, RejectsSpanOperandToIndex) {
  Program p;
  p.names = {"r", "s"};
  p.specs = {SpecEntry{}};
  p.code = {
      {OpCode::kLoadBinding, 0, 0, 0, 0},
      {OpCode::kLoadBinding, 1, 1, 0, 0},
      {OpCode::kIndex, 2, 0, 1, 0},  // r0/r1 are spans, never materialized
      {OpCode::kMaterialize, 2, 2, 0, 0},
  };
  p.num_regs = 3;
  ExpectReject(p, 2, "statically interned carrier");
}

TEST(Verify, RejectsSpanOperandToClosure) {
  Program p;
  p.names = {"r"};
  p.code = {
      {OpCode::kLoadBinding, 0, 0, 0, 0},
      {OpCode::kClosure, 1, 0, 0, 0},
      {OpCode::kMaterialize, 1, 1, 0, 0},
  };
  p.num_regs = 2;
  ExpectReject(p, 1, "statically interned carrier");
}

TEST(Verify, RejectsTableIndexesOutOfRange) {
  {
    Program p = UnionProgram();
    p.code[0].a = 7;  // only 2 names
    ExpectReject(p, 0, "binding name index 7 out of range");
  }
  {
    Program p;
    p.literals = {X("{1}")};
    p.code = {
        {OpCode::kLoadLiteral, 0, 3, 0, 0},
        {OpCode::kMaterialize, 0, 0, 0, 0},
    };
    p.num_regs = 1;
    ExpectReject(p, 0, "literal index 3 out of range");
  }
  {
    Program p;
    p.names = {"a"};
    p.specs = {SpecEntry{}};
    p.code = {
        {OpCode::kLoadBinding, 0, 0, 0, 0},
        {OpCode::kRescope, 1, 0, 0, 5},  // only 1 spec
        {OpCode::kMaterialize, 1, 1, 0, 0},
    };
    p.num_regs = 2;
    ExpectReject(p, 1, "spec index 5 out of range");
  }
}

TEST(Verify, RejectsRegistersOutOfRange) {
  {
    Program p = UnionProgram();
    p.code[2].dst = 9;
    ExpectReject(p, 2, "dst r9 out of range");
  }
  {
    Program p = UnionProgram();
    p.code[2].b = 9;
    ExpectReject(p, 2, "operand r9 out of range");
  }
}

TEST(Verify, RejectsCorruptOpcodeByte) {
  Program p = UnionProgram();
  p.code[2].op = static_cast<OpCode>(200);
  ExpectReject(p, 2, "invalid opcode byte 200");
}

TEST(Verify, RejectsNonZeroUnusedFields) {
  {
    Program p = UnionProgram();
    p.code[0].b = 1;  // loads take no b operand
    ExpectReject(p, 0, "unused b field must be 0");
  }
  {
    Program p = UnionProgram();
    p.code[2].spec = 1;  // booleans carry no spec
    ExpectReject(p, 2, "unused spec field must be 0");
  }
}

TEST(Verify, RejectsBadMaterialize) {
  {
    Program p;
    p.code = {{OpCode::kMaterialize, 0, 0, 0, 0}};
    p.num_regs = 1;
    ExpectReject(p, 0, "materialize of undefined register");
  }
  {
    Program p = UnionProgram();
    p.code[3].a = 0;  // a != dst
    ExpectReject(p, 3, "must target its own register");
  }
}

TEST(Verify, RejectsStructuralViolations) {
  {
    Program p;
    ExpectReject(p, -1, "empty program");
  }
  {
    Program p;
    p.literals = {X("{1}")};
    p.code = {{OpCode::kLoadLiteral, 0, 0, 0, 0}};  // no final Materialize
    p.num_regs = 1;
    ExpectReject(p, 0, "must end with a kMaterialize");
  }
  {
    Program p = UnionProgram();
    p.num_regs = 5;  // r3, r4 never defined
    ExpectReject(p, -1, "never defined");
  }
  {
    Program p = UnionProgram();
    p.num_regs = 0;
    ExpectReject(p, -1, "zero registers");
  }
  {
    Program p = UnionProgram();
    p.code.resize(kMaxProgramLength + 1, {OpCode::kMaterialize, 2, 2, 0, 0});
    ExpectReject(p, -1, "exceeds limit");
  }
}

// The compile_fail-style table: one rejection per rule class, each asserted
// to name the exact instruction index it fired on. A diagnostic that drifts
// to the wrong instruction fails here even if the program is still rejected.
TEST(Verify, DiagnosticsNameTheOffendingInstruction) {
  struct Case {
    const char* label;
    size_t mutate_pc;       // instruction the mutation lands on
    void (*mutate)(Instr&); // the mutation
    const char* expect;     // substring of the diagnostic
  };
  const Case kCases[] = {
      {"use-before-def", 2, [](Instr& in) { in.a = 2; }, "used before definition"},
      {"double-assign", 1, [](Instr& in) { in.dst = 0; }, "single-assignment"},
      {"name-range", 1, [](Instr& in) { in.a = 40; }, "out of range"},
      {"reg-range", 2, [](Instr& in) { in.b = 40; }, "out of range"},
      {"opcode-byte", 0, [](Instr& in) { in.op = static_cast<OpCode>(99); },
       "invalid opcode byte"},
      {"unused-field", 0, [](Instr& in) { in.spec = 2; }, "must be 0"},
      {"materialize-target", 3, [](Instr& in) { in.a = 1; },
       "must target its own register"},
  };
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.label);
    Program p = UnionProgram();
    c.mutate(p.code[c.mutate_pc]);
    Result<VerifiedProgram> verified = Verify(std::move(p));
    ASSERT_FALSE(verified.ok());
    const std::string message = verified.status().ToString();
    EXPECT_NE(message.find("instr " + std::to_string(c.mutate_pc)),
              std::string::npos)
        << message;
    EXPECT_NE(message.find(c.expect), std::string::npos) << message;
  }
}

// The VM refuses a corrupt program outright when verification is enabled —
// the wiring the whole exercise exists for.
TEST(Verify, VmRejectsCorruptProgramBeforeExecuting) {
  // In Release tiers verification is the env opt-in; set it before the
  // first VmVerifyEnabled() call in this process latches the answer. An
  // explicit XST_VERIFY_PROGRAMS=0 from the outside is respected.
  ::setenv("XST_VERIFY_PROGRAMS", "1", /*overwrite=*/0);
  if (!VmVerifyEnabled()) {
    GTEST_SKIP() << "program verification disabled at this tier";
  }
  Bindings env;
  env["a"] = X("{1, 2}");
  env["b"] = X("{2, 3}");
  Program good = UnionProgram();
  ASSERT_TRUE(VmEval(good, env).ok());
  Program bad = UnionProgram();
  bad.code[2].b = 9;  // operand register out of range
  Result<XSet> result = VmEval(bad, env);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalid());
  EXPECT_NE(result.status().ToString().find("instr 2"), std::string::npos);
}

// The typed listing EXPLAIN ANALYZE labels its instruction rows with.
TEST(Verify, ExplainAnalyzeShowsTypedListing) {
  Bindings env;
  env["a"] = X("{1, 2}");
  env["b"] = X("{2, 3}");
  ExprPtr plan = *ParsePlan("union(@a, @b)");
  Result<Program> program = Compile(plan);
  ASSERT_TRUE(program.ok());
  Result<VerifiedProgram> verified = Verify(std::move(*program));
  ASSERT_TRUE(verified.ok()) << verified.status().ToString();
  EXPECT_NE(verified->ToString().find("; "), std::string::npos);
  EXPECT_NE(verified->ToString().find(":span"), std::string::npos);
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    lines.push_back(text.substr(pos, eol - pos));
    pos = eol + 1;
  }
  return lines;
}

// One line per instruction: a literal whose symbol holds a newline renders
// escaped, so the plain listing, the typed listing and EXPLAIN ANALYZE's
// row labels all stay aligned with the program counter.
TEST(Verify, ListingIsOneLinePerInstruction) {
  Bindings env;
  env["f"] = X("{1, 2}");
  ExprPtr plan = Expr::Union(Expr::Literal(XSet::Classical({XSet::Symbol("a\nb")})),
                             Expr::Named("f"));
  Program program = *Compile(plan);
  VerifiedProgram verified = *Verify(program);
  const std::vector<std::string> plain = Lines(program.ToString());
  const std::vector<std::string> typed = Lines(verified.ToString());
  ASSERT_EQ(plain.size(), program.code.size()) << program.ToString();
  ASSERT_EQ(typed.size(), program.code.size()) << verified.ToString();
  EXPECT_EQ(plain[0], "0: LoadLiteral r0 <- {a\\nb}");
  for (size_t pc = 0; pc < program.code.size(); ++pc) {
    EXPECT_EQ(plain[pc].rfind(std::to_string(pc) + ": ", 0), 0u) << plain[pc];
    EXPECT_EQ(typed[pc].rfind(plain[pc] + "   ; ", 0), 0u) << typed[pc];
  }
  EXPECT_EQ(typed[3].rfind("3: Materialize r2", 0), 0u) << typed[3];

  Result<AnalyzeResult> analyzed = ExplainAnalyze(plan, env);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  ASSERT_EQ(analyzed->root.children.size(), typed.size()) << analyzed->Render();
  for (size_t pc = 0; pc < typed.size(); ++pc) {
    EXPECT_EQ(analyzed->root.children[pc].op, typed[pc]);
  }
}

}  // namespace
}  // namespace xsp
}  // namespace xst
