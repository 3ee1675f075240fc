// BEN-STORE: the storage substrate — codec throughput, put/get round-trips,
// page-spanning blobs, and buffer-pool locality.

#include <benchmark/benchmark.h>

#include <string>

#include "bench/bench_util.h"
#include "src/obs/metrics.h"
#include "src/store/codec.h"
#include "src/store/pager.h"
#include "src/store/setstore.h"
#include "tests/testing.h"

namespace xst {
namespace {

std::string BenchPath(const char* tag) {
  return "/tmp/xst_bench_store_" + std::string(tag) + ".db";
}

void BM_EncodeRelation(benchmark::State& state) {
  XSet r = bench::PairRelation(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodeXSetToString(r));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(EncodeXSetToString(r).size()));
}
BENCHMARK(BM_EncodeRelation)->Arg(1 << 10)->Arg(1 << 14);

void BM_DecodeRelation(benchmark::State& state) {
  std::string encoded = EncodeXSetToString(bench::PairRelation(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecodeXSetWhole(encoded));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(encoded.size()));
}
BENCHMARK(BM_DecodeRelation)->Arg(1 << 10)->Arg(1 << 14);

void BM_StorePut(benchmark::State& state) {
  std::string path = BenchPath("put");
  bench::RemoveStoreFiles(path);
  auto store = SetStore::Open(path);
  if (!store.ok()) {
    state.SkipWithError("open failed");
    return;
  }
  XSet r = bench::PairRelation(state.range(0));
  for (auto _ : state) {
    Status st = (*store)->Put("r", r);
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  bench::RemoveStoreFiles(path);
}
BENCHMARK(BM_StorePut)->Arg(1 << 10)->Arg(1 << 13);

void BM_StoreGetWarm(benchmark::State& state) {
  // Blob resident in the pool: read = pool hits + decode.
  std::string path = BenchPath("get_warm");
  bench::RemoveStoreFiles(path);
  auto store = SetStore::Open(path, SetStoreOptions{.buffer_pool_pages = 1024});
  if (!store.ok() || !(*store)->Put("r", bench::PairRelation(state.range(0))).ok()) {
    state.SkipWithError("setup failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize((*store)->Get("r"));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  bench::RemoveStoreFiles(path);
}
BENCHMARK(BM_StoreGetWarm)->Arg(1 << 10)->Arg(1 << 14);

void BM_StoreGetColdPool(benchmark::State& state) {
  // Pool far smaller than the blob: every Get sweeps the file through a
  // 4-page cache — the block-device regime the 1977 backend assumed.
  std::string path = BenchPath("get_cold");
  bench::RemoveStoreFiles(path);
  // Registry counters are process-wide: count this run's store from its open.
  obs::Counter& misses =
      obs::MetricsRegistry::Global().GetCounter(internal::kPagerMissesCounter);
  const uint64_t misses_before = misses.value();
  auto store = SetStore::Open(path, SetStoreOptions{.buffer_pool_pages = 4});
  if (!store.ok() || !(*store)->Put("r", bench::PairRelation(state.range(0))).ok()) {
    state.SkipWithError("setup failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize((*store)->Get("r"));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["pool_misses"] = static_cast<double>(misses.value() - misses_before);
  bench::RemoveStoreFiles(path);
}
BENCHMARK(BM_StoreGetColdPool)->Arg(1 << 14);

void BM_PagerSnapshotHit(benchmark::State& state) {
  // Pager-level cost of the hot hit path every blob and B+tree read pays per
  // page: latch the shard, splice the LRU, copy the resident page out.
  std::string path = BenchPath("snapshot_hit");
  bench::RemoveStoreFiles(path);
  obs::Counter& hits = obs::MetricsRegistry::Global().GetCounter(internal::kPagerHitsCounter);
  const uint64_t hits_before = hits.value();
  Result<testing::LoggedPager> logged = testing::OpenLoggedPager(path, 64);
  if (!logged.ok()) {
    state.SkipWithError(logged.status().ToString().c_str());
    return;
  }
  Pager& pager = *logged->pager;
  const uint32_t pages = 32;  // all resident: pure hit traffic
  for (uint32_t i = 0; i < pages; ++i) {
    Result<uint32_t> id = pager.AllocatePage();
    Page page;
    Status st = id.ok() ? page.AddRecord("x").status() : id.status();
    if (st.ok()) st = pager.WritePage(*id, std::move(page));
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
  }
  uint32_t id = 0;
  Page snapshot;
  for (auto _ : state) {
    Status st = pager.ReadPageSnapshot(id, &snapshot);
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(snapshot.slot_count());
    id = (id + 1) % pages;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["hits"] = static_cast<double>(hits.value() - hits_before);
  bench::RemoveStoreFiles(path);
}
BENCHMARK(BM_PagerSnapshotHit);

void BM_StoreManySmallSets(benchmark::State& state) {
  // Catalog-heavy workload: many named small sets.
  std::string path = BenchPath("many");
  bench::RemoveStoreFiles(path);
  auto store = SetStore::Open(path);
  if (!store.ok()) {
    state.SkipWithError("open failed");
    return;
  }
  int64_t i = 0;
  for (auto _ : state) {
    std::string name = "set" + std::to_string(i % 64);
    Status st = (*store)->Put(name, bench::IntAtoms(16, i));
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
    ++i;
  }
  bench::RemoveStoreFiles(path);
}
BENCHMARK(BM_StoreManySmallSets);

}  // namespace
}  // namespace xst

BENCHMARK_MAIN();
