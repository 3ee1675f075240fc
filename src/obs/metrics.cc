#include "src/obs/metrics.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>

#include "src/common/sync.h"

namespace xst {
namespace obs {

uint64_t Histogram::Percentile(double p) const {
  const uint64_t n = count();
  if (n == 0) return 0;
  if (p < 0) p = 0;
  if (p > 100) p = 100;
  // Rank of the percentile sample, 1-based: ceil(p/100 * n), at least 1.
  uint64_t rank = static_cast<uint64_t>(p / 100.0 * static_cast<double>(n));
  if (rank * 100 < static_cast<uint64_t>(p * static_cast<double>(n))) ++rank;
  if (rank == 0) rank = 1;
  uint64_t cumulative = 0;
  for (int k = 0; k < kBuckets; ++k) {
    cumulative += bucket(k);
    if (cumulative >= rank) {
      if (k == 0) return 0;
      // Upper bound of [2^{k-1}, 2^k): one below the next power of two.
      return k >= 64 ? ~uint64_t{0} : (uint64_t{1} << k) - 1;
    }
  }
  return ~uint64_t{0};  // unreachable when count() > 0
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

// Metric objects are held behind unique_ptr so the map can grow without
// moving them; the registry itself is leaked, so references are immortal.
struct MetricsRegistry::Impl {
  mutable Mutex registry_mu XST_LOCK_RANK(90);
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters XST_GUARDED_BY(registry_mu);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges XST_GUARDED_BY(registry_mu);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms XST_GUARDED_BY(registry_mu);
};

// The only instance is the leaked Global() singleton, so its Impl is
// immortal too — same lifetime story as the interner arena.
MetricsRegistry::MetricsRegistry() : impl_(new Impl()) {}  // xst-lint: allow(raw-new-delete)

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // leaked with the arena
  return *registry;
}

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  MutexLock lock(&impl_->registry_mu);
  auto it = impl_->counters.find(name);
  if (it == impl_->counters.end()) {
    it = impl_->counters.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  MutexLock lock(&impl_->registry_mu);
  auto it = impl_->gauges.find(name);
  if (it == impl_->gauges.end()) {
    it = impl_->gauges.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name) {
  MutexLock lock(&impl_->registry_mu);
  auto it = impl_->histograms.find(name);
  if (it == impl_->histograms.end()) {
    it = impl_->histograms.emplace(std::string(name), std::make_unique<Histogram>()).first;
  }
  return *it->second;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  MutexLock lock(&impl_->registry_mu);
  snap.counters.reserve(impl_->counters.size());
  for (const auto& [name, c] : impl_->counters) snap.counters.emplace_back(name, c->value());
  snap.gauges.reserve(impl_->gauges.size());
  for (const auto& [name, g] : impl_->gauges) snap.gauges.emplace_back(name, g->value());
  snap.histograms.reserve(impl_->histograms.size());
  for (const auto& [name, h] : impl_->histograms) {
    MetricsSnapshot::HistogramRow row;
    row.name = name;
    row.count = h->count();
    row.sum = h->sum();
    row.p50 = h->Percentile(50);
    row.p95 = h->Percentile(95);
    row.p99 = h->Percentile(99);
    snap.histograms.push_back(std::move(row));
  }
  return snap;
}

namespace {

// Metric names are code-controlled (dots and identifiers), but escape
// defensively so the dump is always valid JSON.
void AppendJsonString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace

std::string DumpMetricsJson() {
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : snap.counters) {
    out.append(first ? "\n    " : ",\n    ");
    first = false;
    AppendJsonString(name, &out);
    out.append(": ").append(std::to_string(v));
  }
  out.append(first ? "},\n" : "\n  },\n");
  out.append("  \"gauges\": {");
  first = true;
  for (const auto& [name, v] : snap.gauges) {
    out.append(first ? "\n    " : ",\n    ");
    first = false;
    AppendJsonString(name, &out);
    out.append(": ").append(std::to_string(v));
  }
  out.append(first ? "},\n" : "\n  },\n");
  out.append("  \"histograms\": {");
  first = true;
  for (const auto& row : snap.histograms) {
    out.append(first ? "\n    " : ",\n    ");
    first = false;
    AppendJsonString(row.name, &out);
    out.append(": {\"count\": ").append(std::to_string(row.count));
    out.append(", \"sum_ns\": ").append(std::to_string(row.sum));
    out.append(", \"p50_ns\": ").append(std::to_string(row.p50));
    out.append(", \"p95_ns\": ").append(std::to_string(row.p95));
    out.append(", \"p99_ns\": ").append(std::to_string(row.p99));
    out.append("}");
  }
  out.append(first ? "}\n}\n" : "\n  }\n}\n");
  return out;
}

namespace {

// XST_METRICS_OUT=<path> dumps the registry as JSON at process exit — how
// benchmark binaries hand their cache/pool counters to run_benches.py
// without touching google-benchmark's main().
void DumpMetricsAtExit() {
  static const char* path = std::getenv("XST_METRICS_OUT");
  if (path == nullptr) return;
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return;
  std::string json = DumpMetricsJson();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
}

struct MetricsDumpInstaller {
  MetricsDumpInstaller() {
    if (std::getenv("XST_METRICS_OUT") != nullptr) std::atexit(&DumpMetricsAtExit);
  }
} metrics_dump_installer;

}  // namespace

}  // namespace obs
}  // namespace xst
