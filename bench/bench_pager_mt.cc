// BEN-PAGER-MT: concurrent read-hit throughput through the store's one read
// path (optimistic views over the sharded pager latch): a fixed total of
// reads over 1, 4 and 8 threads, as aggregate reads/s by wall clock. The 4-
// and 8-thread rows against the 1-thread row are the scaling figure;
// single-core hosts can only show parity, so read multi-thread numbers from
// a multi-core runner.

#include <benchmark/benchmark.h>

#include <cstdlib>
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
// lifetime, its files removed at exit.
SetStore* GetStore() {
  static const std::unique_ptr<SetStore> store = [] {
    const std::string path = BenchPath("store");
    bench::RemoveStoreFiles(path);
    std::atexit([] { bench::RemoveStoreFiles(BenchPath("store")); });
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

// Full Get round-trips: copy + decode of a cached page per key; 8k Gets
// split over the threads.
void BM_PagerConcurrentGet(benchmark::State& state) {
  SetStore* store = GetStore();
  if (store == nullptr) {
    state.SkipWithError("open failed");
    return;
  }
  bench::RunOnThreads(state, static_cast<int>(state.range(0)), 8192,
                      [store](int64_t begin, int64_t end) {
                        for (int64_t i = begin; i < end; ++i) {
                          Result<XSet> got = store->Get("set" + std::to_string(i % kKeys));
                          if (!got.ok()) return false;
                          benchmark::DoNotOptimize(got);
                        }
                        return true;
                      });
}
BENCHMARK(BM_PagerConcurrentGet)->Arg(1)->Arg(4)->Arg(8)->UseRealTime();

// B+tree point probes: short page copies, so latch hand-off dominates; 8k
// probes split over the threads.
void BM_PagerConcurrentProbe(benchmark::State& state) {
  SetStore* store = GetStore();
  if (store == nullptr) {
    state.SkipWithError("open failed");
    return;
  }
  bench::RunOnThreads(state, static_cast<int>(state.range(0)), 8192,
                      [store](int64_t begin, int64_t end) {
                        for (int64_t i = begin; i < end; ++i) {
                          const Membership probe{XSet::Int((i * 17) % kIndexMembers),
                                                 XSet::Empty()};
                          Result<bool> has = store->ContainsMember("idx", probe);
                          if (!has.ok() || !*has) return false;
                          benchmark::DoNotOptimize(has);
                        }
                        return true;
                      });
}
BENCHMARK(BM_PagerConcurrentProbe)->Arg(1)->Arg(4)->Arg(8)->UseRealTime();

}  // namespace
}  // namespace xst

BENCHMARK_MAIN();
