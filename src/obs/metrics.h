// Process-wide observability: named lock-free counters, gauges, and
// log-scale latency histograms behind a single registry.
//
// Design (deliberately boring, in the RocksDB Statistics tradition):
//   * Metrics are named once and live forever. MetricsRegistry::Global()
//     hands out stable references; hot paths resolve a metric a single time
//     into a function-local static and then pay exactly one relaxed atomic
//     RMW per event — cheap enough to stay on in release builds.
//   * Histograms bucket by powers of two (bucket k covers [2^{k-1}, 2^k)),
//     so a latency record is a bit-scan plus three relaxed adds, and
//     percentile extraction returns the upper bound of the covering bucket:
//     the reported pXX always brackets the true value within a factor of 2.
//   * Everything is readable while being written: snapshots are approximate
//     under concurrency, exact once writers quiesce (the property the
//     registry tests pin down).
//
// The registry is where the stats structs (EvalStats, OptimizerStats,
// RescopeCacheStats, InternerStats) meet: their accessor APIs survive, but
// the counters behind them live (or are mirrored) here. The pager has no
// struct at all; its registry counters are its only statistics. So
// `DumpMetricsJson()` is a whole-system answer to "what did this process
// do" — see DESIGN.md §9.

#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace xst {
namespace obs {

/// \brief A monotonically increasing (resettable) event counter.
///
/// All operations are relaxed atomics: counts from concurrent writers sum
/// exactly; cross-metric ordering is not promised.
class alignas(64) Counter {
 public:
  /// \brief Adds `n` to the counter.
  void Add(uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }

  /// \brief Adds 1 to the counter.
  void Increment() { Add(1); }

  /// \brief Current value (exact once concurrent writers quiesce).
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

  /// \brief Resets to zero (per-query / per-phase attribution).
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// \brief A point-in-time signed level (pool occupancy, resident entries).
class alignas(64) Gauge {
 public:
  /// \brief Sets the gauge to `v`.
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }

  /// \brief Adjusts the gauge by `delta` (may be negative).
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }

  /// \brief Current level.
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

  /// \brief Resets to zero.
  void Reset() { Set(0); }

 private:
  std::atomic<int64_t> value_{0};
};

/// \brief A lock-free log-scale histogram of non-negative samples
/// (nanosecond latencies by convention).
///
/// Bucket 0 holds the value 0; bucket k ≥ 1 holds [2^{k-1}, 2^k). Recording
/// is wait-free; percentile extraction walks 64 buckets.
class alignas(64) Histogram {
 public:
  /// \brief Number of power-of-two buckets.
  static constexpr int kBuckets = 64;

  /// \brief Records one sample. Two relaxed RMWs — recording is the hot
  /// path (every span close lands here), so the total count is derived on
  /// read instead of maintained as a third atomic.
  void Record(uint64_t v) {
    buckets_[BucketFor(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  /// \brief Records one sample with weight `w` (as if `v` were recorded `w`
  /// times) — the span sampler's unbiasing hook.
  void RecordWeighted(uint64_t v, uint64_t w) {
    buckets_[BucketFor(v)].fetch_add(w, std::memory_order_relaxed);
    sum_.fetch_add(v * w, std::memory_order_relaxed);
  }

  /// \brief Total samples recorded (sums the buckets; reads are rare).
  uint64_t count() const {
    uint64_t total = 0;
    for (const std::atomic<uint64_t>& b : buckets_) {
      total += b.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// \brief Sum of all samples.
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }

  /// \brief The upper bound of the bucket containing the `p`-th percentile
  /// (p in [0, 100]); 0 when empty. For any recorded v > 0 the result is in
  /// [v, 2v): log-scale percentiles bracket the true value within 2×.
  uint64_t Percentile(double p) const;

  /// \brief Samples in bucket `k` (tests, renderers).
  uint64_t bucket(int k) const { return buckets_[k].load(std::memory_order_relaxed); }

  /// \brief Resets every bucket and the count/sum to zero.
  void Reset();

 private:
  static int BucketFor(uint64_t v) {
    int b = 64 - __builtin_clzll(v | 1);  // bit_width(v), with v=0 → 1
    if (v == 0) return 0;
    return b >= kBuckets ? kBuckets - 1 : b;
  }

  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> sum_{0};
};

/// \brief A point-in-time copy of every registered metric.
struct MetricsSnapshot {
  /// \brief One histogram row with extracted percentiles.
  struct HistogramRow {
    std::string name;
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t p50 = 0;
    uint64_t p95 = 0;
    uint64_t p99 = 0;
  };

  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<HistogramRow> histograms;
};

/// \brief The process-wide named-metric registry.
///
/// Lookup is a mutex-guarded map probe and is meant to run once per call
/// site (cache the returned reference in a function-local static); the
/// metric objects themselves are immortal, so references never dangle.
class MetricsRegistry {
 public:
  /// \brief The process-wide registry (leaked singleton, like the interner).
  static MetricsRegistry& Global();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// \brief The counter named `name`, created on first use.
  Counter& GetCounter(std::string_view name);

  /// \brief The gauge named `name`, created on first use.
  Gauge& GetGauge(std::string_view name);

  /// \brief The histogram named `name`, created on first use.
  Histogram& GetHistogram(std::string_view name);

  /// \brief Copies out every metric, sorted by name. Approximate while
  /// writers are concurrent, exact once they quiesce.
  MetricsSnapshot Snapshot() const;

 private:
  MetricsRegistry();
  ~MetricsRegistry() = delete;  // immortal

  struct Impl;
  Impl* impl_;
};

/// \brief Renders the whole registry as a JSON object:
/// {"counters": {...}, "gauges": {...}, "histograms": {name: {count, sum,
/// p50, p95, p99}}}. The shape `tools/run_benches.py` merges into reports.
std::string DumpMetricsJson();

}  // namespace obs
}  // namespace xst
