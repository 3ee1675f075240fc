// Observability layer: registry counter/histogram semantics (exact sums
// under concurrency, log-scale percentile bracketing), span-tree
// reconstruction, and EXPLAIN ANALYZE agreeing exactly with VmEval's stats
// (and the reference evaluator's value) on the paper's worked examples —
// including the Def 11.1 composed-vs-staged comparison, where the composed
// plan materializes nothing.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/ops/boolean.h"
#include "src/ops/image.h"
#include "src/ops/rescope.h"
#include "src/xsp/analyze.h"
#include "src/xsp/compile.h"
#include "src/xsp/eval.h"
#include "src/xsp/optimizer.h"
#include "src/xsp/vm.h"
#include "tests/testing.h"

namespace xst {
namespace {

using testing::X;
using xsp::Bindings;
using xsp::Expr;
using xsp::ExprPtr;

TEST(Metrics, CounterBasics) {
  obs::Counter& c = obs::MetricsRegistry::Global().GetCounter("test.counter.basics");
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name, same object: references are stable and shared.
  EXPECT_EQ(&c, &obs::MetricsRegistry::Global().GetCounter("test.counter.basics"));
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, GaugeBasics) {
  obs::Gauge& g = obs::MetricsRegistry::Global().GetGauge("test.gauge.basics");
  g.Set(10);
  g.Add(-3);
  EXPECT_EQ(g.value(), 7);
  g.Reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(Metrics, ConcurrentCounterIncrementsSumExactly) {
  // The TSan job runs this too: relaxed atomic adds must be race-free and
  // lose nothing.
  obs::Counter& c = obs::MetricsRegistry::Global().GetCounter("test.counter.concurrent");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(Metrics, ConcurrentHistogramRecordsSumExactly) {
  obs::Histogram& h =
      obs::MetricsRegistry::Global().GetHistogram("test.histogram.concurrent");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) h.Record(static_cast<uint64_t>(t + 1));
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<uint64_t>(kThreads) * kPerThread);
  // Σ t·kPerThread for t in 1..4.
  EXPECT_EQ(h.sum(), static_cast<uint64_t>(kPerThread) * (1 + 2 + 3 + 4));
}

TEST(Metrics, HistogramPercentilesBracketInsertedValues) {
  obs::Histogram& h =
      obs::MetricsRegistry::Global().GetHistogram("test.histogram.bracket");
  // Single value at several magnitudes: the reported percentile must land
  // in [v, 2v) — the log-bucket guarantee.
  for (uint64_t v : {1ull, 7ull, 100ull, 4096ull, 123456789ull}) {
    h.Reset();
    h.Record(v);
    for (double p : {0.0, 50.0, 99.0, 100.0}) {
      uint64_t reported = h.Percentile(p);
      EXPECT_GE(reported, v) << "v=" << v << " p=" << p;
      EXPECT_LT(reported, 2 * v) << "v=" << v << " p=" << p;
    }
  }
  // Mixed population: percentiles are ordered and each brackets the true
  // rank value within 2x.
  h.Reset();
  for (uint64_t v = 1; v <= 100; ++v) h.Record(v);
  uint64_t p50 = h.Percentile(50);
  uint64_t p95 = h.Percentile(95);
  uint64_t p99 = h.Percentile(99);
  EXPECT_GE(p50, 50u);
  EXPECT_LT(p50, 100u);
  EXPECT_GE(p95, 95u);
  EXPECT_LT(p95, 190u);
  EXPECT_GE(p99, 99u);
  EXPECT_LT(p99, 198u);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
}

TEST(Metrics, HistogramZeroAndEmpty) {
  obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram("test.histogram.zero");
  EXPECT_EQ(h.Percentile(50), 0u);  // empty
  h.Record(0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.Percentile(50), 0u);
  EXPECT_EQ(h.bucket(0), 1u);
}

TEST(Metrics, SnapshotAndJsonCoverRegisteredMetrics) {
  obs::MetricsRegistry::Global().GetCounter("test.snapshot.counter").Add(5);
  obs::MetricsRegistry::Global().GetHistogram("test.snapshot.hist").Record(7);
  obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  bool saw_counter = false, saw_hist = false;
  for (const auto& [name, v] : snap.counters) {
    if (name == "test.snapshot.counter") {
      saw_counter = true;
      EXPECT_GE(v, 5u);
    }
  }
  for (const auto& row : snap.histograms) {
    if (row.name == "test.snapshot.hist") {
      saw_hist = true;
      EXPECT_GE(row.count, 1u);
      EXPECT_GE(row.p50, 7u);
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_hist);
  std::string json = obs::DumpMetricsJson();
  EXPECT_NE(json.find("\"test.snapshot.counter\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"test.snapshot.hist\""), std::string::npos);
}

TEST(Trace, SpanNestingReconstructsCallTree) {
  obs::ScopedTraceSink sink;
  {
    XST_TRACE_SPAN("test.a");
    {
      XST_TRACE_SPAN("test.b");
      { XST_TRACE_SPAN("test.c"); }
    }
    { XST_TRACE_SPAN("test.d"); }
  }
  const std::vector<obs::SpanRecord>& spans = sink.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_STREQ(spans[0].name, "test.a");
  EXPECT_STREQ(spans[1].name, "test.b");
  EXPECT_STREQ(spans[2].name, "test.c");
  EXPECT_STREQ(spans[3].name, "test.d");
  EXPECT_EQ(spans[0].parent, obs::kNoParent);
  EXPECT_EQ(spans[1].parent, 0u);
  EXPECT_EQ(spans[2].parent, 1u);
  EXPECT_EQ(spans[3].parent, 0u);
  // Inclusive times nest: parents cover their children.
  EXPECT_GE(spans[0].duration_ns, spans[1].duration_ns);
  EXPECT_GE(spans[1].duration_ns, spans[2].duration_ns);
  std::string tree = obs::RenderSpanTree(spans);
  EXPECT_NE(tree.find("test.a"), std::string::npos);
  EXPECT_NE(tree.find("\n  test.b"), std::string::npos);
  EXPECT_NE(tree.find("\n    test.c"), std::string::npos);
  EXPECT_NE(tree.find("\n  test.d"), std::string::npos);
}

TEST(Trace, HistogramRecordsWithoutSink) {
  // No-sink spans sample 1-in-8 with weight 8: the sampling period is
  // exact, so any 8 consecutive spans on a thread record exactly once and
  // the histogram count stays unbiased (+8 regardless of phase).
  obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram("span.test.nosink");
  const uint64_t before = h.count();
  for (int i = 0; i < 8; ++i) {
    obs::TraceSpan span("test.nosink", &h);
  }
  EXPECT_EQ(h.count(), before + 8);
}

TEST(Trace, KernelsEmitSpans) {
  XSet a = X("{1, 2, 3}");
  XSet b = X("{3, 4}");
  obs::ScopedTraceSink sink;
  XSet u = Union(a, b);
  EXPECT_EQ(u, X("{1, 2, 3, 4}"));
  ASSERT_FALSE(sink.spans().empty());
  bool saw_union = false;
  for (const obs::SpanRecord& rec : sink.spans()) {
    if (std::string(rec.name) == "op.union") saw_union = true;
  }
  EXPECT_TRUE(saw_union);
}

TEST(Trace, TakeSpansDrains) {
  obs::ScopedTraceSink sink;
  { XST_TRACE_SPAN("test.take"); }
  std::vector<obs::SpanRecord> taken = sink.TakeSpans();
  EXPECT_EQ(taken.size(), 1u);
  EXPECT_TRUE(sink.spans().empty());
  { XST_TRACE_SPAN("test.take2"); }
  EXPECT_EQ(sink.spans().size(), 1u);
}

Bindings PaperBindings() {
  // The worked §11 shapes used across the suite: f maps a/b to p/q, g maps
  // p/q onwards, r is a small relation with a shared range element.
  return Bindings{
      {"f", X("{<a, p>, <b, q>}")},
      {"g", X("{<p, 1>, <q, 2>}")},
      {"r", X("{<a, x>, <b, y>, <c, x>}")},
  };
}

// The instruction rows cover at least 90% of the query total. Their
// windows are disjoint, so together they cover no more than the total; the
// root's self time is the part no instruction covers (dispatch and
// observer bookkeeping), and work a regression moves into the timed run
// outside every instruction lands there on every run. The best of three
// runs is checked, so that a preemption in one run's gaps cannot fail it.
void ExpectInstructionsCoverTotal(const ExprPtr& plan, const Bindings& env) {
  std::string failed_runs;
  for (int attempt = 0; attempt < 3; ++attempt) {
    xsp::AnalyzeResult run = *xsp::ExplainAnalyze(plan, env);
    uint64_t covered = 0;
    for (const xsp::AnalyzeNode& instr : run.root.children) covered += instr.wall_ns;
    EXPECT_LE(covered, run.total_wall_ns) << run.Render();
    if (run.root.self_wall_ns <= run.total_wall_ns / 10) return;
    failed_runs += run.Render();
  }
  ADD_FAILURE() << "more than 10% of the total outside every instruction, 3 of 3 runs:\n"
                << failed_runs;
}

TEST(ExplainAnalyze, MatchesVmStatsOnPaperExamples) {
  Bindings env = PaperBindings();
  std::vector<ExprPtr> plans;
  plans.push_back(Expr::Image(Expr::Named("r"), Expr::Literal(X("{<a>}")), Sigma::Std()));
  plans.push_back(Expr::Image(
      Expr::Named("g"),
      Expr::Image(Expr::Named("f"), Expr::Literal(X("{<a>}")), Sigma::Std()),
      Sigma::Std()));
  plans.push_back(Expr::Union(Expr::Named("f"), Expr::Intersect(Expr::Named("g"),
                                                                Expr::Named("g"))));
  for (const ExprPtr& plan : plans) {
    xsp::VmStats vm_stats;
    Result<XSet> direct = xsp::VmEval(*xsp::Compile(plan), env, nullptr, &vm_stats);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(*direct, *xsp::Eval(plan, env));
    Result<xsp::AnalyzeResult> analyzed = xsp::ExplainAnalyze(plan, env);
    ASSERT_TRUE(analyzed.ok());
    // Same value, same stats, one row per instruction, and the rows of the
    // instructions that interned an intermediate sum to exactly the VmStats
    // total.
    EXPECT_EQ(analyzed->value, *direct);
    EXPECT_EQ(analyzed->stats.instructions, vm_stats.instructions);
    EXPECT_EQ(analyzed->stats.materializations, vm_stats.materializations);
    EXPECT_EQ(analyzed->stats.interned_intermediate_rows,
              vm_stats.interned_intermediate_rows);
    EXPECT_EQ(analyzed->stats.peak_rows, vm_stats.peak_rows);
    EXPECT_EQ(analyzed->root.children.size(), vm_stats.instructions);
    EXPECT_EQ(analyzed->MaterializedIntermediateCardinality(),
              vm_stats.interned_intermediate_rows);
    EXPECT_EQ(analyzed->root.output_cardinality, direct->cardinality());
  }
}

TEST(ExplainAnalyze, RenderAndJsonShapes) {
  Bindings env = PaperBindings();
  ExprPtr plan = Expr::Image(
      Expr::Named("g"),
      Expr::Image(Expr::Named("f"), Expr::Literal(X("{<a>}")), Sigma::Std()),
      Sigma::Std());
  xsp::AnalyzeResult analyzed = *xsp::ExplainAnalyze(plan, env);
  std::string tree = analyzed.Render();
  EXPECT_NE(tree.find("VmProgram["), std::string::npos);
  EXPECT_NE(tree.find(": Index r"), std::string::npos);
  EXPECT_NE(tree.find("rows="), std::string::npos);
  EXPECT_NE(tree.find("wall="), std::string::npos);
  EXPECT_NE(tree.find("total:"), std::string::npos);
  std::string json = analyzed.ToJson();
  EXPECT_NE(json.find("\"plan\""), std::string::npos);
  EXPECT_NE(json.find("\"children\""), std::string::npos);
  EXPECT_NE(json.find("\"self_wall_ns\""), std::string::npos);
  EXPECT_EQ(json.find("engine"), std::string::npos);
  EXPECT_EQ(tree.find("engine"), std::string::npos);
}

// Def 11.1 / Thm 11.2, measured: the staged two-hop image materializes its
// intermediate; the R2-composed plan reports zero materialized rows.
TEST(ExplainAnalyze, ComposedPlanMaterializesNothing) {
  // Scaled-up paper shape (~200 pairs per hop) so wall times dwarf clock
  // overhead and the 90% instruction-coverage check below is stable.
  std::vector<XSet> f_pairs, g_pairs, probes;
  for (int i = 0; i < 200; ++i) {
    const std::string n = std::to_string(i);
    f_pairs.push_back(XSet::Pair(XSet::Symbol("a" + n), XSet::Symbol("p" + n)));
    g_pairs.push_back(XSet::Pair(XSet::Symbol("p" + n), XSet::Int(i)));
  }
  for (int i = 0; i < 50; ++i) {
    const std::string n = std::to_string(i);
    probes.push_back(XSet::Tuple({XSet::Symbol("a" + n)}));
  }
  Bindings env;
  env["f"] = XSet::Classical(f_pairs);
  env["g"] = XSet::Classical(g_pairs);
  ExprPtr staged = Expr::Image(
      Expr::Named("g"),
      Expr::Image(Expr::Named("f"), Expr::Literal(XSet::Classical(probes)),
                  Sigma::Std()),
      Sigma::Std());
  xsp::OptimizerStats opt_stats;
  ExprPtr composed = *xsp::Optimize(staged, env, &opt_stats);
  ASSERT_EQ(opt_stats.compose_images, 1);

  xsp::AnalyzeResult staged_run = *xsp::ExplainAnalyze(staged, env);
  xsp::AnalyzeResult composed_run = *xsp::ExplainAnalyze(composed, env);
  EXPECT_EQ(staged_run.value, composed_run.value);
  EXPECT_EQ(staged_run.value.cardinality(), 50u);

  // The headline numbers: the staged hop materializes its 50-row
  // intermediate, the composed plan nothing.
  EXPECT_EQ(staged_run.MaterializedIntermediateCardinality(), 50u);
  EXPECT_EQ(composed_run.MaterializedIntermediateCardinality(), 0u);

  ExpectInstructionsCoverTotal(staged, env);
  ExpectInstructionsCoverTotal(composed, env);
}

// A range instruction is labelled by its opcode, and the large literal
// beneath it renders only as a truncated preview, before the timed run:
// rendering it inside the run would put time in the total but in no
// instruction's window. The range is wide enough that its instructions
// outweigh the fixed per-run dispatch outside them.
TEST(ExplainAnalyze, RangeNodeLabelledByOperator) {
  std::vector<XSet> ints;
  for (int i = 0; i < 20000; ++i) ints.push_back(XSet::Int(i));
  ExprPtr plan =
      Expr::Range(Expr::Literal(XSet::Classical(ints)), XSet::Int(100), XSet::Int(10100));
  xsp::AnalyzeResult run = *xsp::ExplainAnalyze(plan, Bindings{});
  ASSERT_EQ(run.root.children.size(), 3u) << run.Render();
  EXPECT_EQ(run.root.children[1].op.rfind("1: Range r1 <- r0", 0), 0u) << run.Render();
  EXPECT_LT(run.root.children[0].op.size(), 120u) << run.Render();
  EXPECT_EQ(run.value.cardinality(), 10001u);
  ExpectInstructionsCoverTotal(plan, Bindings{});
}

TEST(RescopeStats, ResetGivesIdenticalPerQueryHitCounts) {
  // Regression for the missing ResetRescopeCacheStats: two identical
  // queries must report identical per-query hit counts after a reset.
  XSet r = X("{<a, x>, <b, y>, <c, x>}");
  XSet probes = X("{<a>, <b>}");
  ImageStd(r, probes);  // warm the memo: measured runs below are all-hits

  ResetRescopeCacheStats();
  ImageStd(r, probes);
  RescopeCacheStats first = GetRescopeCacheStats();

  ResetRescopeCacheStats();
  ImageStd(r, probes);
  RescopeCacheStats second = GetRescopeCacheStats();

  EXPECT_GT(first.hits, 0u);
  EXPECT_EQ(first.hits, second.hits);
  EXPECT_EQ(first.misses, second.misses);
  // Reset clears counters only; resident entries survive.
  EXPECT_GT(second.entries, 0u);
}

}  // namespace
}  // namespace xst
