// BEN-SP: set processing vs. record processing — the 1977 systems claim.
//
// Identical logical workloads (orders ⋈ customers star fragment, uniform and
// Zipf-skewed) run through both engines:
//
//   XST engine     relations are extended sets; select = σ-restriction,
//                  project = σ-domain, join = relative product
//   record engine  Volcano iterators over plain rows (filter / project /
//                  hash or nested-loop join)
//
// What to look for in the output:
//   * selects and projects: both linear; the record engine wins small
//     constants on projects (no canonicalization), the XST engine wins
//     point selects (hash path vs full scan);
//   * joins: relative product tracks the hash join; the tuple-at-a-time
//     nested loop — the record-processing default the 1977 paper argued
//     against — is quadratic;
//   * skew (Zipf) does not change who wins, only the output sizes.

#include <benchmark/benchmark.h>

#include "src/rel/aggregate.h"
#include "src/rel/algebra.h"
#include "src/rel/generator.h"
#include "src/rel/index.h"
#include "src/rel/record.h"

namespace xst {
namespace {

using rel::DualTable;
using rel::WorkloadSpec;

WorkloadSpec SpecFor(int64_t rows, bool zipf) {
  WorkloadSpec spec;
  spec.row_count = static_cast<size_t>(rows);
  spec.key_cardinality = std::max<int64_t>(rows / 16, 4);
  spec.zipf_exponent = zipf ? 1.1 : 0.0;
  spec.seed = 1977;
  return spec;
}

// --- point select: customer_id = k ----------------------------------------

void BM_XstSelect(benchmark::State& state) {
  auto orders = rel::MakeOrders(SpecFor(state.range(0), state.range(1)));
  XSet key = XSet::Int(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rel::Select(orders->xst, "customer_id", key));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_XstSelect)->Args({1 << 12, 0})->Args({1 << 15, 0})->Args({1 << 15, 1});

void BM_RecordSelect(benchmark::State& state) {
  auto orders = rel::MakeOrders(SpecFor(state.range(0), state.range(1)));
  for (auto _ : state) {
    auto it = rel::MakeFilter(rel::MakeScan(&orders->rows), 1, int64_t{3});
    benchmark::DoNotOptimize(rel::Execute(it.get()));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RecordSelect)->Args({1 << 12, 0})->Args({1 << 15, 0})->Args({1 << 15, 1});

void BM_XstSelectIndexed(benchmark::State& state) {
  // The access-path regime: the index is representation, the query is the
  // same σ-restriction — and the scan disappears.
  auto orders = rel::MakeOrders(SpecFor(state.range(0), state.range(1)));
  auto index = rel::AttributeIndex::Build(orders->xst, "customer_id");
  XSet key = XSet::Int(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(index->Select(key));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_XstSelectIndexed)
    ->Args({1 << 12, 0})
    ->Args({1 << 15, 0})
    ->Args({1 << 15, 1});

// --- project {customer_id, amount} with dedup ------------------------------

void BM_XstProject(benchmark::State& state) {
  auto orders = rel::MakeOrders(SpecFor(state.range(0), 0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rel::Project(orders->xst, {"customer_id", "amount"}));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_XstProject)->Arg(1 << 12)->Arg(1 << 15);

void BM_RecordProjectDedup(benchmark::State& state) {
  auto orders = rel::MakeOrders(SpecFor(state.range(0), 0));
  for (auto _ : state) {
    auto it = rel::MakeProject(rel::MakeScan(&orders->rows), {1, 2});
    std::vector<rel::Row> rows = rel::Execute(it.get());
    rel::DedupRows(&rows);  // set semantics cost the row engine pays here
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RecordProjectDedup)->Arg(1 << 12)->Arg(1 << 15);

// --- join orders ⋈ customers ----------------------------------------------

void BM_XstJoin(benchmark::State& state) {
  WorkloadSpec spec = SpecFor(state.range(0), state.range(1));
  auto orders = rel::MakeOrders(spec);
  auto customers = rel::MakeCustomers(spec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rel::NaturalJoin(orders->xst, customers->xst));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_XstJoin)->Args({1 << 12, 0})->Args({1 << 15, 0})->Args({1 << 15, 1});

void BM_RecordHashJoinQuery(benchmark::State& state) {
  WorkloadSpec spec = SpecFor(state.range(0), state.range(1));
  auto orders = rel::MakeOrders(spec);
  auto customers = rel::MakeCustomers(spec);
  for (auto _ : state) {
    auto it =
        rel::MakeHashJoin(rel::MakeScan(&orders->rows), &customers->rows, 1, 0, {1});
    benchmark::DoNotOptimize(rel::Execute(it.get()));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RecordHashJoinQuery)
    ->Args({1 << 12, 0})
    ->Args({1 << 15, 0})
    ->Args({1 << 15, 1});

void BM_RecordNestedLoopQuery(benchmark::State& state) {
  WorkloadSpec spec = SpecFor(state.range(0), 0);
  auto orders = rel::MakeOrders(spec);
  auto customers = rel::MakeCustomers(spec);
  for (auto _ : state) {
    auto it = rel::MakeNestedLoopJoin(rel::MakeScan(&orders->rows), &customers->rows, 1,
                                      0, {1});
    benchmark::DoNotOptimize(rel::Execute(it.get()));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
// The record-processing default: quadratic, so capped small.
BENCHMARK(BM_RecordNestedLoopQuery)->Arg(1 << 10)->Arg(1 << 12);

// --- grouped aggregation ----------------------------------------------------

void BM_XstGroupBy(benchmark::State& state) {
  auto orders = rel::MakeOrders(SpecFor(state.range(0), 0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rel::GroupBy(orders->xst, {"customer_id"},
                                          {{rel::AggKind::kSum, "amount", "total"},
                                           {rel::AggKind::kCount, "", "n"}}));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_XstGroupBy)->Arg(1 << 12)->Arg(1 << 15);

void BM_RecordGroupBy(benchmark::State& state) {
  auto orders = rel::MakeOrders(SpecFor(state.range(0), 0));
  for (auto _ : state) {
    auto it = rel::MakeGroupBy(rel::MakeScan(&orders->rows), {1},
                               {{2, "sum"}, {0, "count"}});
    benchmark::DoNotOptimize(rel::Execute(it.get()));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RecordGroupBy)->Arg(1 << 12)->Arg(1 << 15);

// --- multi-key select (IN-list) --------------------------------------------

void BM_XstSelectIn(benchmark::State& state) {
  auto orders = rel::MakeOrders(SpecFor(1 << 15, 0));
  std::vector<XSet> keys;
  for (int64_t k = 0; k < state.range(0); ++k) keys.push_back(XSet::Int(k));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rel::SelectIn(orders->xst, "customer_id", keys));
  }
  state.SetItemsProcessed(state.iterations() * (1 << 15));
}
BENCHMARK(BM_XstSelectIn)->Arg(4)->Arg(64)->Arg(512);

void BM_RecordSelectIn(benchmark::State& state) {
  auto orders = rel::MakeOrders(SpecFor(1 << 15, 0));
  std::vector<rel::RowValue> keys;
  for (int64_t k = 0; k < state.range(0); ++k) keys.emplace_back(k);
  for (auto _ : state) {
    auto it = rel::MakeFilterIn(rel::MakeScan(&orders->rows), 1, keys);
    benchmark::DoNotOptimize(rel::Execute(it.get()));
  }
  state.SetItemsProcessed(state.iterations() * (1 << 15));
}
BENCHMARK(BM_RecordSelectIn)->Arg(4)->Arg(64)->Arg(512);

}  // namespace
}  // namespace xst

BENCHMARK_MAIN();
