// Outside-in tracing for the Dexter benchmark.
//
// Every span is recorded by benchmark code around a call into one layer of
// the library; nothing inside src/ is instrumented. Two decorators reach the
// layers the benchmark does not call directly:
//   * TimingCursorSource wraps the store's CursorSource, so the time VmEval
//     spends pulling members off the B+tree is split from VM dispatch;
//   * TimingFile wraps every File the store opens (installed through
//     SetStoreOptions::file_factory), so device reads, writes and flushes are
//     split from the pager, commit and checkpoint code above them.
//
// Spans nest per thread. A span's self time is its duration minus the time
// covered by its direct children; the ledger sums self time per layer. Spans
// are rolled up as they close and the first kKeptSpans of each thread are
// kept in memory for the trace file written at exit. Recording happens only
// while g_tracing is set, so the untraced run pays one relaxed load per
// boundary.

#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/cursor.h"
#include "src/store/file.h"

namespace dexter {

enum Layer : uint8_t {
  kParse,
  kOptimize,
  kCompile,
  kVerify,
  kVm,
  kCursor,
  kGet,
  kProbe,
  kCommit,
  kIoMain,
  kIoWal,
  kNumLayers,
};

inline const char* LayerName(Layer layer) {
  static constexpr const char* kNames[kNumLayers] = {
      "xsp.parse",    "xsp.optimize", "xsp.compile", "xsp.verify",
      "xsp.vm",       "store.cursor", "store.get",   "store.probe",
      "store.commit", "io.main",      "io.wal"};
  return kNames[layer];
}

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

/// Spans and counters are recorded only while this is set.
inline std::atomic<bool> g_tracing{false};

inline bool Tracing() { return g_tracing.load(std::memory_order_relaxed); }

/// One closed span, as written to the trace file.
struct SpanRecord {
  uint64_t request = 0;  ///< shared by every span of one client request
  int32_t parent = -1;   ///< index of the enclosing span in this thread's log
  Layer layer = kNumLayers;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// Per-layer roll-up of closed spans.
struct LayerTotals {
  uint64_t calls = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
};

/// Device counters for one kind of file (main page file or .wal log).
struct IoTotals {
  uint64_t reads = 0;
  uint64_t read_bytes = 0;
  uint64_t writes = 0;
  uint64_t write_bytes = 0;
  uint64_t flushes = 0;
  uint64_t flush_ns = 0;
};

/// Everything one thread recorded while tracing was on.
struct ThreadTrace {
  std::array<LayerTotals, kNumLayers> layers{};
  IoTotals io_main;
  IoTotals io_wal;
  uint64_t requests = 0;
  uint64_t request_wall_ns = 0;
  uint64_t cursor_members = 0;
  uint64_t cursor_batches = 0;
};

/// Per-thread span recorder. Tracers are owned by a process-wide registry
/// so their totals survive the threads that filled them.
class Tracer {
 public:
  static constexpr size_t kKeptSpans = 20000;
  static constexpr int kMaxDepth = 16;

  /// The calling thread's tracer, created on first use.
  static Tracer& Current() {
    thread_local Tracer* tracer = nullptr;
    if (tracer == nullptr) {
      std::lock_guard<std::mutex> lock(RegistryMutex());
      Registry().push_back(std::unique_ptr<Tracer>(new Tracer()));
      tracer = Registry().back().get();
    }
    return *tracer;
  }

  /// Sums every thread's totals, then clears them (one window's figures).
  static ThreadTrace Drain() {
    ThreadTrace sum;
    std::lock_guard<std::mutex> lock(RegistryMutex());
    for (const std::unique_ptr<Tracer>& t : Registry()) {
      for (int l = 0; l < kNumLayers; ++l) {
        sum.layers[l].calls += t->trace_.layers[l].calls;
        sum.layers[l].total_ns += t->trace_.layers[l].total_ns;
        sum.layers[l].self_ns += t->trace_.layers[l].self_ns;
      }
      Add(&sum.io_main, t->trace_.io_main);
      Add(&sum.io_wal, t->trace_.io_wal);
      sum.requests += t->trace_.requests;
      sum.request_wall_ns += t->trace_.request_wall_ns;
      sum.cursor_members += t->trace_.cursor_members;
      sum.cursor_batches += t->trace_.cursor_batches;
      t->trace_ = ThreadTrace{};
    }
    return sum;
  }

  /// Every kept span of every thread.
  static std::vector<SpanRecord> KeptSpans() {
    std::vector<SpanRecord> all;
    std::lock_guard<std::mutex> lock(RegistryMutex());
    for (const std::unique_ptr<Tracer>& t : Registry()) {
      all.insert(all.end(), t->log_.begin(), t->log_.end());
    }
    return all;
  }

  void BeginRequest(uint64_t id) { request_ = id; }
  void EndRequest(uint64_t wall_ns) {
    ++trace_.requests;
    trace_.request_wall_ns += wall_ns;
    request_ = 0;
  }

  void Open(Layer layer) {
    if (depth_ >= kMaxDepth) {
      ++overflow_;
      return;
    }
    Frame& f = stack_[depth_++];
    f.layer = layer;
    f.child_ns = 0;
    f.log_index = -1;
    if (log_.size() < kKeptSpans) {
      f.log_index = static_cast<int32_t>(log_.size());
      SpanRecord rec;
      rec.request = request_;
      rec.parent = depth_ >= 2 ? stack_[depth_ - 2].log_index : -1;
      rec.layer = layer;
      log_.push_back(rec);
    }
    f.start_ns = NowNs();
  }

  void Close() {
    const uint64_t end = NowNs();
    if (overflow_ > 0) {
      --overflow_;
      return;
    }
    Frame& f = stack_[--depth_];
    const uint64_t dur = end - f.start_ns;
    LayerTotals& t = trace_.layers[f.layer];
    ++t.calls;
    t.total_ns += dur;
    t.self_ns += dur > f.child_ns ? dur - f.child_ns : 0;
    if (depth_ > 0) stack_[depth_ - 1].child_ns += dur;
    if (f.log_index >= 0) {
      log_[f.log_index].start_ns = f.start_ns;
      log_[f.log_index].end_ns = end;
    }
  }

  ThreadTrace& totals() { return trace_; }

 private:
  struct Frame {
    Layer layer = kNumLayers;
    uint64_t start_ns = 0;
    uint64_t child_ns = 0;
    int32_t log_index = -1;
  };

  Tracer() { log_.reserve(kKeptSpans); }

  static void Add(IoTotals* sum, const IoTotals& t) {
    sum->reads += t.reads;
    sum->read_bytes += t.read_bytes;
    sum->writes += t.writes;
    sum->write_bytes += t.write_bytes;
    sum->flushes += t.flushes;
    sum->flush_ns += t.flush_ns;
  }
  static std::mutex& RegistryMutex() {
    static std::mutex mu;
    return mu;
  }
  static std::vector<std::unique_ptr<Tracer>>& Registry() {
    static std::vector<std::unique_ptr<Tracer>> registry;
    return registry;
  }

  ThreadTrace trace_;
  std::array<Frame, kMaxDepth> stack_{};
  int depth_ = 0;
  int overflow_ = 0;
  uint64_t request_ = 0;
  std::vector<SpanRecord> log_;
};

/// RAII span around one call into a layer; free when tracing is off.
class Span {
 public:
  explicit Span(Layer layer) : tracer_(Tracing() ? &Tracer::Current() : nullptr) {
    if (tracer_ != nullptr) tracer_->Open(layer);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->Close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

/// File decorator: one span per device call, plus per-file-kind counts.
class TimingFile final : public xst::File {
 public:
  TimingFile(std::unique_ptr<xst::File> inner, bool is_wal)
      : inner_(std::move(inner)), layer_(is_wal ? kIoWal : kIoMain) {}

  xst::Result<uint64_t> Size() override { return inner_->Size(); }

  xst::Status ReadAt(uint64_t offset, char* dst, size_t n) override {
    Span span(layer_);
    if (IoTotals* io = Counters()) {
      ++io->reads;
      io->read_bytes += n;
    }
    return inner_->ReadAt(offset, dst, n);
  }

  xst::Status WriteAt(uint64_t offset, const char* src, size_t n) override {
    Span span(layer_);
    if (IoTotals* io = Counters()) {
      ++io->writes;
      io->write_bytes += n;
    }
    return inner_->WriteAt(offset, src, n);
  }

  xst::Status Flush() override {
    Span span(layer_);
    IoTotals* io = Counters();
    const uint64_t t0 = io != nullptr ? NowNs() : 0;
    xst::Status st = inner_->Flush();
    if (io != nullptr) {
      ++io->flushes;
      io->flush_ns += NowNs() - t0;
    }
    return st;
  }

  xst::Status Truncate(uint64_t size) override {
    Span span(layer_);
    return inner_->Truncate(size);
  }

 private:
  IoTotals* Counters() const {
    if (!Tracing()) return nullptr;
    ThreadTrace& t = Tracer::Current().totals();
    return layer_ == kIoWal ? &t.io_wal : &t.io_main;
  }

  std::unique_ptr<xst::File> inner_;
  Layer layer_;
};

/// The file factory that installs TimingFile under a SetStore.
inline xst::FileFactory TimingFileFactory() {
  return [](const std::string& path) -> xst::Result<std::unique_ptr<xst::File>> {
    xst::Result<std::unique_ptr<xst::File>> file = xst::StdioFile::Open(path);
    if (!file.ok()) return file.status();
    const bool is_wal = path.size() >= 4 && path.compare(path.size() - 4, 4, ".wal") == 0;
    return std::unique_ptr<xst::File>(new TimingFile(std::move(*file), is_wal));
  };
}

/// Cursor decorator: NextBatch runs under a store.cursor span.
class TimingCursor final : public xst::MemberCursor {
 public:
  explicit TimingCursor(std::unique_ptr<xst::MemberCursor> inner)
      : inner_(std::move(inner)) {}

  std::span<const xst::Membership> NextBatch() override {
    Span span(kCursor);
    std::span<const xst::Membership> batch = inner_->NextBatch();
    if (Tracing() && !batch.empty()) {
      ThreadTrace& t = Tracer::Current().totals();
      ++t.cursor_batches;
      t.cursor_members += batch.size();
    }
    return batch;
  }

  std::optional<xst::XSet> WholeSet() const override { return inner_->WholeSet(); }
  xst::Status status() const override { return inner_->status(); }

 private:
  std::unique_ptr<xst::MemberCursor> inner_;
};

/// CursorSource decorator: opens run under a store.cursor span and every
/// cursor handed to the VM is a TimingCursor.
class TimingCursorSource final : public xst::CursorSource {
 public:
  explicit TimingCursorSource(const xst::CursorSource& inner) : inner_(inner) {}

  xst::Result<std::unique_ptr<xst::MemberCursor>> Open(
      const std::string& name) const override {
    Span span(kCursor);
    return Wrap(inner_.Open(name));
  }

  xst::Result<std::unique_ptr<xst::MemberCursor>> OpenElementRange(
      const std::string& name, const xst::XSet& lo, const xst::XSet& hi) const override {
    Span span(kCursor);
    return Wrap(inner_.OpenElementRange(name, lo, hi));
  }

 private:
  static xst::Result<std::unique_ptr<xst::MemberCursor>> Wrap(
      xst::Result<std::unique_ptr<xst::MemberCursor>> cursor) {
    if (!cursor.ok()) return cursor;
    return std::unique_ptr<xst::MemberCursor>(new TimingCursor(std::move(*cursor)));
  }

  const xst::CursorSource& inner_;
};

}  // namespace dexter
