// BEN-BTREE: the ordered-index storage mode — tree build vs blob put,
// point membership probes, single-member mutations (the operation blob
// storage cannot do without rewriting the whole span), and range cursors
// against full materialization.

#include <benchmark/benchmark.h>

#include <cstdio>
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
  std::remove(path.c_str());
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
  std::remove(path.c_str());
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
  std::remove(path.c_str());
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
  std::remove(path.c_str());
}
BENCHMARK(BM_BTreeContains)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 16);

void BM_BTreeRange24(benchmark::State& state) {
  // A 24-member element range at spread offsets: one seek plus a slice of
  // the member list, the shape of a browse anchor lookup.
  std::string path = BenchPath("range24");
  std::remove(path.c_str());
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
  std::remove(path.c_str());
}
BENCHMARK(BM_BTreeRange24)->Arg(1 << 16);

void BM_BTreeInsertErase(benchmark::State& state) {
  // One member in, same member out: the tree touches a root-to-leaf spine
  // per mutation where the blob mode would re-encode the whole set.
  std::string path = BenchPath("mutate");
  std::remove(path.c_str());
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
  std::remove(path.c_str());
}
BENCHMARK(BM_BTreeInsertErase)->Arg(1 << 10)->Arg(1 << 14);

void BM_BTreeRangeCursor(benchmark::State& state) {
  // A 64-member interval out of range(0) members: page reads stay
  // proportional to the slice, not the set.
  std::string path = BenchPath("range");
  std::remove(path.c_str());
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
  std::remove(path.c_str());
}
BENCHMARK(BM_BTreeRangeCursor)->Arg(1 << 12)->Arg(1 << 16);

void BM_BlobGetForContrast(benchmark::State& state) {
  // The blob-mode full materialization a range query previously required.
  std::string path = BenchPath("blob");
  std::remove(path.c_str());
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
  std::remove(path.c_str());
}
BENCHMARK(BM_BlobGetForContrast)->Arg(1 << 12)->Arg(1 << 16);

}  // namespace
}  // namespace xst

BENCHMARK_MAIN();
