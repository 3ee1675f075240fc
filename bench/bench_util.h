// Shared builders and harness helpers for the benchmark binaries.

#pragma once

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/core/builder.h"
#include "src/core/xset.h"

namespace xst {
namespace bench {

/// \brief A classical set of pairs ⟨kᵢ, vᵢ⟩ with keys 0..n-1 (one value per
/// key when fanout == 1).
inline XSet PairRelation(int64_t n, int64_t fanout = 1, int64_t value_offset = 0) {
  XSetBuilder builder(static_cast<size_t>(n * fanout));
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t f = 0; f < fanout; ++f) {
      builder.Add(XSet::Pair(XSet::Int(i), XSet::Int(value_offset + i * fanout + f)));
    }
  }
  return builder.Build();
}

/// \brief A classical set of 1-tuples ⟨k⟩ for k in [lo, hi).
inline XSet UnaryTuples(int64_t lo, int64_t hi) {
  XSetBuilder builder(static_cast<size_t>(hi - lo));
  for (int64_t i = lo; i < hi; ++i) {
    builder.Add(XSet::Tuple({XSet::Int(i)}));
  }
  return builder.Build();
}

/// \brief A classical set of n distinct integer atoms.
inline XSet IntAtoms(int64_t n, int64_t offset = 0) {
  XSetBuilder builder(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) builder.Add(XSet::Int(offset + i));
  return builder.Build();
}

/// \brief Removes a store's main file and its `.wal` sidecar.
inline void RemoveStoreFiles(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

/// \brief Runs a fixed total of `total` items per iteration over `threads`
/// std::threads, each taking one contiguous share through `body(begin,
/// end)`, and reports aggregate items/s. Register the benchmark with
/// ->UseRealTime(), so the rate is by wall clock: the main thread only
/// waits. Items are numbered across iterations (iteration k runs
/// [k * total, (k + 1) * total)), so a body can make every item's value
/// fresh. A body returns false on a failure, which skips the benchmark.
template <typename Body>
void RunOnThreads(benchmark::State& state, int threads, int64_t total, const Body& body) {
  std::atomic<bool> failed{false};
  int64_t base = 0;
  for (auto _ : state) {
    std::vector<std::thread> workers;
    workers.reserve(static_cast<size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      const int64_t begin = base + total * t / threads;
      const int64_t end = base + total * (t + 1) / threads;
      workers.emplace_back([&body, &failed, begin, end] {
        if (!body(begin, end)) failed.store(true);
      });
    }
    for (std::thread& worker : workers) worker.join();
    base += total;
    if (failed.load()) {
      state.SkipWithError("a worker's body failed");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations() * total);
  state.counters["threads"] = threads;
}

}  // namespace bench
}  // namespace xst
