// BEN-INTERN (ablation): the cost and payoff of hash-consing — the design
// choice that makes equality O(1) and structural sharing free.
//
//   * interning a *fresh* value pays hashing + one shard lock;
//   * interning a *seen* value is a lock-free lookup that returns the
//     shared node;
//   * re-interning many distinct seen values (a stored read's decode) is a
//     lookup per value that misses cache in the shard table and the node;
//   * equality after interning is a pointer compare at any size;
//   * the arena is thread-safe: concurrent interning of one value family
//     scales with shard count, and hits take no lock, so re-interning seen
//     values (a stored read decoded on several cores) scales with threads.

#include <benchmark/benchmark.h>

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

// 16k interns split over the threads: even items re-intern one of 50
// shared pairs (contended hits), odd items intern a fresh pair (misses that
// insert and grow the tables).
void BM_ConcurrentInterning(benchmark::State& state) {
  bench::RunOnThreads(state, static_cast<int>(state.range(0)), 16000,
                      [](int64_t begin, int64_t end) {
                        for (int64_t i = begin; i < end; ++i) {
                          benchmark::DoNotOptimize(
                              i % 2 == 0
                                  ? XSet::Pair(XSet::Int(i % 50), XSet::Int(i % 50))
                                  : XSet::Pair(XSet::Int(20000000 + i), XSet::Int(i)));
                        }
                        return true;
                      });
}
BENCHMARK(BM_ConcurrentInterning)->Arg(1)->Arg(4)->Arg(8)->UseRealTime();

// Hits only, the shape of a stored read decoded on several cores: 64k
// distinct stored-shape pairs, interned before the clock starts, re-interned
// from their integer components, split over the threads.
void BM_ConcurrentSeenPairs(benchmark::State& state) {
  constexpr int64_t kPairs = 65536;
  constexpr int64_t kOffset = int64_t{1} << 32;
  benchmark::DoNotOptimize(bench::PairRelation(kPairs, 1, kOffset));
  bench::RunOnThreads(state, static_cast<int>(state.range(0)), kPairs,
                      [](int64_t begin, int64_t end) {
                        for (int64_t i = begin; i < end; ++i) {
                          const int64_t k = i % kPairs;
                          benchmark::DoNotOptimize(
                              XSet::Pair(XSet::Int(k), XSet::Int(kOffset + k)));
                        }
                        return true;
                      });
}
BENCHMARK(BM_ConcurrentSeenPairs)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

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
