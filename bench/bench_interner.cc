// BEN-INTERN (ablation): the cost and payoff of hash-consing — the design
// choice that makes equality O(1) and structural sharing free.
//
//   * interning a *fresh* value pays hashing + one shard lock;
//   * interning a *seen* value is a lookup that returns the shared node;
//   * re-interning many distinct seen values (a stored read's decode) is a
//     lookup per value that misses cache in the shard table and the node;
//   * equality after interning is a pointer compare at any size;
//   * the arena is thread-safe: concurrent interning of one value family
//     scales with shard count.

#include <benchmark/benchmark.h>

#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/interner.h"

namespace xst {
namespace {

void BM_InternFreshPairs(benchmark::State& state) {
  int64_t nonce = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        XSet::Pair(XSet::Int(5000000 + nonce), XSet::Int(9000000 + nonce)));
    ++nonce;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InternFreshPairs);

void BM_InternSeenPairs(benchmark::State& state) {
  XSet warm = XSet::Pair(XSet::Int(123), XSet::Int(456));
  benchmark::DoNotOptimize(warm);
  for (auto _ : state) {
    benchmark::DoNotOptimize(XSet::Pair(XSet::Int(123), XSet::Int(456)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InternSeenPairs);

// The shape of a stored-cursor decode: re-intern n distinct pairs that are
// all already interned, in canonical order, from their integer components.
void BM_InternSeenDistinctPairs(benchmark::State& state) {
  const XSet relation = bench::PairRelation(state.range(0), 1, int64_t{1} << 30);
  std::vector<std::pair<int64_t, int64_t>> rows;
  for (const Membership& row : relation.members()) {
    int64_t components[2] = {0, 0};
    for (const Membership& c : row.element.members()) {
      components[c.scope.int_value() - 1] = c.element.int_value();
    }
    rows.emplace_back(components[0], components[1]);
  }
  for (auto _ : state) {
    for (const auto& [a, b] : rows) {
      benchmark::DoNotOptimize(XSet::Pair(XSet::Int(a), XSet::Int(b)));
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows.size()));
}
BENCHMARK(BM_InternSeenDistinctPairs)->Arg(65536);

void BM_EqualityBySize(benchmark::State& state) {
  XSet a = bench::PairRelation(state.range(0));
  XSet b = bench::PairRelation(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(a == b);  // pointer compare at every size
  }
}
BENCHMARK(BM_EqualityBySize)->Arg(1 << 4)->Arg(1 << 12)->Arg(1 << 18);

void BM_ConcurrentInterning(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    std::atomic<int64_t> base{0};
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&base] {
        int64_t my_base = base.fetch_add(100000);
        for (int i = 0; i < 2000; ++i) {
          // Half shared (contended), half thread-private (fresh).
          benchmark::DoNotOptimize(XSet::Pair(XSet::Int(i % 50), XSet::Int(i % 50)));
          benchmark::DoNotOptimize(
              XSet::Pair(XSet::Int(20000000 + my_base + i), XSet::Int(i)));
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
  }
  state.SetItemsProcessed(state.iterations() * threads * 4000);
}
// Real time: the workers run on their own threads, so the main thread's CPU
// time would count almost none of their work.
BENCHMARK(BM_ConcurrentInterning)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ArenaStats(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(Interner::Global().GetStats());
  }
  InternerStats stats = Interner::Global().GetStats();
  state.counters["atoms"] = static_cast<double>(stats.atom_count);
  state.counters["sets"] = static_cast<double>(stats.set_count);
  state.counters["memberships"] = static_cast<double>(stats.membership_count);
}
BENCHMARK(BM_ArenaStats);

}  // namespace
}  // namespace xst

BENCHMARK_MAIN();
