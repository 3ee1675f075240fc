// BEN-PAGER-MT: concurrent read-hit throughput through the store's one read
// path (optimistic views over the sharded pager latch), at 1, 4 and 8
// threads. The 4- and 8-thread rows against the 1-thread row are the
// scaling figure; single-core hosts can only show parity, so read
// multi-thread numbers from a multi-core runner.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/xset.h"
#include "src/store/setstore.h"

namespace xst {
namespace {

constexpr int kKeys = 64;
constexpr int kIndexMembers = 256;

std::string BenchPath(const char* tag) {
  return "/tmp/xst_bench_pager_mt_" + std::string(tag) + ".db";
}

XSet DenseSet(int n) {
  std::vector<Membership> members;
  members.reserve(n);
  for (int i = 0; i < n; ++i) {
    members.push_back(Membership{XSet::Int(i), XSet::Empty()});
  }
  return XSet::FromMembers(std::move(members));
}

// One read-only store, built on first use and kept for the process
// lifetime: google-benchmark re-enters the function from every thread, and
// a function-local static is initialized exactly once, race-free.
SetStore* GetStore() {
  static const std::unique_ptr<SetStore> store = [] {
    const std::string path = BenchPath("store");
    std::remove(path.c_str());
    std::remove((path + ".wal").c_str());
    SetStoreOptions options;
    options.buffer_pool_pages = 512;  // everything stays resident: pure hits
    Result<std::unique_ptr<SetStore>> opened = SetStore::Open(path, options);
    if (!opened.ok()) return std::unique_ptr<SetStore>();
    for (int i = 0; i < kKeys; ++i) {
      if (!(*opened)->Put("set" + std::to_string(i), DenseSet(24)).ok()) {
        return std::unique_ptr<SetStore>();
      }
    }
    if (!(*opened)->PutIndexed("idx", DenseSet(kIndexMembers)).ok()) {
      return std::unique_ptr<SetStore>();
    }
    return std::move(*opened);
  }();
  return store.get();
}

// Full Get round-trips: copy + decode of a cached page per key.
void BM_PagerConcurrentGet(benchmark::State& state) {
  SetStore* store = GetStore();
  if (store == nullptr) {
    state.SkipWithError("open failed");
    return;
  }
  const int t = state.thread_index();
  int i = 0;
  for (auto _ : state) {
    Result<XSet> got = store->Get("set" + std::to_string((t + i++) % kKeys));
    if (!got.ok()) {
      state.SkipWithError(got.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(got);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PagerConcurrentGet)
    ->Threads(1)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

// B+tree point probes: short page copies, so latch hand-off dominates.
void BM_PagerConcurrentProbe(benchmark::State& state) {
  SetStore* store = GetStore();
  if (store == nullptr) {
    state.SkipWithError("open failed");
    return;
  }
  const int t = state.thread_index();
  int i = 0;
  for (auto _ : state) {
    const Membership probe{XSet::Int((t * 17 + i++) % kIndexMembers),
                           XSet::Empty()};
    Result<bool> has = store->ContainsMember("idx", probe);
    if (!has.ok() || !*has) {
      state.SkipWithError("probe failed");
      return;
    }
    benchmark::DoNotOptimize(has);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PagerConcurrentProbe)
    ->Threads(1)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

}  // namespace
}  // namespace xst

BENCHMARK_MAIN();
