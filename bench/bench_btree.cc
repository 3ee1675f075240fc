// BEN-BTREE: the ordered-index storage mode — tree build vs blob put,
// point membership probes, single-member mutations (the operation blob
// storage cannot do without rewriting the whole span), range cursors
// against full materialization, and a whole-index read larger than the
// pool. Every case removes its store's files, `.wal` sidecar included.

#include <benchmark/benchmark.h>

#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/store/setstore.h"

namespace xst {
namespace {

std::string BenchPath(const char* tag) {
  return "/tmp/xst_bench_btree_" + std::string(tag) + ".db";
}

void BM_BTreeBuild(benchmark::State& state) {
  std::string path = BenchPath("build");
  bench::RemoveStoreFiles(path);
  auto store = SetStore::Open(path);
  if (!store.ok()) {
    state.SkipWithError("open failed");
    return;
  }
  XSet r = bench::PairRelation(state.range(0));
  for (auto _ : state) {
    Status st = (*store)->PutIndexed("r", r);
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  bench::RemoveStoreFiles(path);
}
BENCHMARK(BM_BTreeBuild)->Arg(1 << 10)->Arg(1 << 13);

// Probe and range cases run over a pool that holds the whole index, as
// the browse workload's does, so they time the in-page search rather than
// file reads.
constexpr size_t kCachedIndexPool = 1024;

// Spread offsets in [0, n): an odd multiplier permutes a power-of-two
// range, so successive probes land in different leaves.
int64_t SpreadOffset(int64_t i, int64_t n) { return (i * 40503) % n; }

void BM_BTreeContains(benchmark::State& state) {
  // Alternating hits ⟨j, j⟩ and misses ⟨j, j+1⟩ at spread j: a miss sorts
  // right beside a hit, so both search all the way into the leaf.
  std::string path = BenchPath("contains");
  bench::RemoveStoreFiles(path);
  const int64_t n = state.range(0);
  auto store =
      SetStore::Open(path, SetStoreOptions{.buffer_pool_pages = kCachedIndexPool});
  if (!store.ok() || !(*store)->PutIndexed("r", bench::PairRelation(n)).ok()) {
    state.SkipWithError("setup failed");
    return;
  }
  std::vector<Membership> probes;
  for (int64_t i = 0; i < 1024; ++i) {
    const int64_t j = SpreadOffset(i, n);
    probes.push_back(
        Membership{XSet::Pair(XSet::Int(j), XSet::Int(j + i % 2)), XSet::Empty()});
  }
  size_t i = 0;
  for (auto _ : state) {
    Result<bool> has = (*store)->ContainsMember("r", probes[i % probes.size()]);
    if (!has.ok() || *has != (i % 2 == 0)) {
      state.SkipWithError("wrong probe answer");
      return;
    }
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
  bench::RemoveStoreFiles(path);
}
BENCHMARK(BM_BTreeContains)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 16);

void BM_BTreeRange24(benchmark::State& state) {
  // A 24-member element range at spread offsets: one seek plus a slice of
  // the member list, the shape of a browse anchor lookup.
  std::string path = BenchPath("range24");
  bench::RemoveStoreFiles(path);
  const int64_t n = state.range(0);
  auto store =
      SetStore::Open(path, SetStoreOptions{.buffer_pool_pages = kCachedIndexPool});
  if (!store.ok() || !(*store)->PutIndexed("r", bench::PairRelation(n)).ok()) {
    state.SkipWithError("setup failed");
    return;
  }
  std::vector<std::pair<XSet, XSet>> bounds;
  for (int64_t i = 0; i < 1024; ++i) {
    const int64_t lo = SpreadOffset(i, n - 24);
    bounds.emplace_back(XSet::Pair(XSet::Int(lo), XSet::Int(lo)),
                        XSet::Pair(XSet::Int(lo + 23), XSet::Int(lo + 23)));
  }
  size_t i = 0;
  for (auto _ : state) {
    const auto& [lo, hi] = bounds[i++ % bounds.size()];
    auto cursor = (*store)->OpenElementRange("r", lo, hi);
    if (!cursor.ok()) {
      state.SkipWithError("cursor failed");
      return;
    }
    size_t read = 0;
    for (;;) {
      auto batch = (*cursor)->NextBatch();
      if (batch.empty()) break;
      read += batch.size();
    }
    if (read != 24 || !(*cursor)->status().ok()) {
      state.SkipWithError("range did not read 24 members");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() * 24);
  bench::RemoveStoreFiles(path);
}
BENCHMARK(BM_BTreeRange24)->Arg(1 << 16);

void BM_BTreeInsertErase(benchmark::State& state) {
  // One member in, same member out: the tree touches a root-to-leaf spine
  // per mutation where the blob mode would re-encode the whole set.
  std::string path = BenchPath("mutate");
  bench::RemoveStoreFiles(path);
  auto store = SetStore::Open(path, SetStoreOptions{.buffer_pool_pages = 256});
  if (!store.ok() ||
      !(*store)->PutIndexed("r", bench::PairRelation(state.range(0))).ok()) {
    state.SkipWithError("setup failed");
    return;
  }
  Membership extra{XSet::Pair(XSet::Int(-1), XSet::Int(-1)), XSet::Empty()};
  for (auto _ : state) {
    Status in = (*store)->InsertMember("r", extra);
    Status out = (*store)->EraseMember("r", extra);
    if (!in.ok() || !out.ok()) {
      state.SkipWithError("mutation failed");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() * 2);
  bench::RemoveStoreFiles(path);
}
BENCHMARK(BM_BTreeInsertErase)->Arg(1 << 10)->Arg(1 << 14);

void BM_BTreeRangeCursor(benchmark::State& state) {
  // A 64-member interval out of range(0) members: page reads stay
  // proportional to the slice, not the set.
  std::string path = BenchPath("range");
  bench::RemoveStoreFiles(path);
  auto store = SetStore::Open(path, SetStoreOptions{.buffer_pool_pages = 256});
  if (!store.ok() ||
      !(*store)->PutIndexed("r", bench::PairRelation(state.range(0))).ok()) {
    state.SkipWithError("setup failed");
    return;
  }
  const int64_t lo = state.range(0) / 2;
  XSet lo_key = XSet::Pair(XSet::Int(lo), XSet::Int(lo));
  XSet hi_key = XSet::Pair(XSet::Int(lo + 63), XSet::Int(lo + 63));
  for (auto _ : state) {
    auto cursor = (*store)->OpenElementRange("r", lo_key, hi_key);
    if (!cursor.ok()) {
      state.SkipWithError("cursor failed");
      return;
    }
    size_t n = 0;
    for (;;) {
      auto batch = (*cursor)->NextBatch();
      if (batch.empty()) break;
      n += batch.size();
    }
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() * 64);
  bench::RemoveStoreFiles(path);
}
BENCHMARK(BM_BTreeRangeCursor)->Arg(1 << 12)->Arg(1 << 16);

void BM_BTreeWholeIndexRead(benchmark::State& state) {
  // A whole-index cursor over range(0) pairs through a 64-page pool, the
  // shape of an analytics scan: the leaves do not fit the pool, and the
  // read decodes them across the thread pool. Real time, since the decode
  // runs on the pool's workers too.
  std::string path = BenchPath("whole");
  bench::RemoveStoreFiles(path);
  const int64_t n = state.range(0);
  auto store = SetStore::Open(path, SetStoreOptions{.buffer_pool_pages = 64});
  if (!store.ok() || !(*store)->PutIndexed("r", bench::PairRelation(n)).ok()) {
    state.SkipWithError("setup failed");
    return;
  }
  for (auto _ : state) {
    auto cursor = (*store)->OpenCursor("r");
    if (!cursor.ok()) {
      state.SkipWithError("cursor failed");
      return;
    }
    int64_t read = 0;
    for (auto batch = (*cursor)->NextBatch(); !batch.empty(); batch = (*cursor)->NextBatch()) {
      read += static_cast<int64_t>(batch.size());
    }
    if (read != n) {
      state.SkipWithError("whole read missed members");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
  bench::RemoveStoreFiles(path);
}
BENCHMARK(BM_BTreeWholeIndexRead)->Arg(1 << 16)->UseRealTime();

void BM_BlobGetForContrast(benchmark::State& state) {
  // The blob-mode full materialization a range query previously required.
  std::string path = BenchPath("blob");
  bench::RemoveStoreFiles(path);
  auto store = SetStore::Open(path, SetStoreOptions{.buffer_pool_pages = 256});
  if (!store.ok() ||
      !(*store)->Put("r", bench::PairRelation(state.range(0))).ok()) {
    state.SkipWithError("setup failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize((*store)->Get("r"));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  bench::RemoveStoreFiles(path);
}
BENCHMARK(BM_BlobGetForContrast)->Arg(1 << 12)->Arg(1 << 16);

}  // namespace
}  // namespace xst

BENCHMARK_MAIN();
