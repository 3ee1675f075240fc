// BEN-WAL: durability costs — group-commit latency/throughput at 1/4/16
// committer threads, and recovery replay time as a function of log length.
//
// StdioFile::Flush is an fflush (page-cache write), so on a local tmpfs the
// fsync itself is nearly free and group commit's batching would be
// invisible. The commit benchmark therefore interposes a log-file wrapper
// whose Flush sleeps a fixed device latency (50us, a fast NVMe fsync):
// group commit amortizes it across every committer in the batch, so
// throughput grows with the committer count.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "bench/bench_util.h"
#include "src/store/file.h"
#include "src/store/setstore.h"

namespace xst {
namespace {

std::string BenchPath(const char* tag) {
  return "/tmp/xst_bench_wal_" + std::string(tag) + ".db";
}

void RemoveStoreFiles(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

constexpr auto kDeviceFsyncLatency = std::chrono::microseconds(50);

class SlowSyncFile : public File {
 public:
  explicit SlowSyncFile(std::unique_ptr<File> base) : base_(std::move(base)) {}
  Result<uint64_t> Size() override { return base_->Size(); }
  Status ReadAt(uint64_t offset, char* dst, size_t n) override {
    return base_->ReadAt(offset, dst, n);
  }
  Status WriteAt(uint64_t offset, const char* src, size_t n) override {
    return base_->WriteAt(offset, src, n);
  }
  Status Flush() override {
    std::this_thread::sleep_for(kDeviceFsyncLatency);
    return base_->Flush();
  }
  Status Truncate(uint64_t size) override { return base_->Truncate(size); }

 private:
  std::unique_ptr<File> base_;
};

FileFactory SlowSyncWalFactory() {
  return [](const std::string& path) -> Result<std::unique_ptr<File>> {
    Result<std::unique_ptr<File>> base = StdioFile::Open(path);
    if (!base.ok()) return base.status();
    if (path.find(".wal") != std::string::npos) {
      return std::unique_ptr<File>(new SlowSyncFile(std::move(*base)));
    }
    return base;
  };
}

// Shared across the committer threads of one benchmark run; thread 0 owns
// setup and teardown (google-benchmark barriers the loop entry).
std::unique_ptr<SetStore> g_store;

void BM_WalCommitGroup(benchmark::State& state) {
  const std::string path = BenchPath("group");
  if (state.thread_index() == 0) {
    RemoveStoreFiles(path);
    SetStoreOptions options;
    options.buffer_pool_pages = 256;
    options.file_factory = SlowSyncWalFactory();
    options.wal_checkpoint_bytes = 64ull << 20;  // stay out of checkpoints
    auto store = SetStore::Open(path, options);
    if (!store.ok()) {
      state.SkipWithError(store.status().ToString().c_str());
      return;
    }
    g_store = std::move(*store);
  }
  const std::string name = "t" + std::to_string(state.thread_index());
  int64_t v = 0;
  for (auto _ : state) {
    Status st = g_store->Put(name, bench::IntAtoms(8, v++));
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      break;
    }
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    WalStats stats = g_store->wal_stats();
    state.counters["durable_lsn"] = static_cast<double>(stats.durable_lsn);
    g_store.reset();
    RemoveStoreFiles(path);
  }
}

BENCHMARK(BM_WalCommitGroup)
    ->Threads(1)
    ->Threads(4)
    ->Threads(16)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

bool CopyFileBytes(const std::string& from, const std::string& to) {
  std::ifstream in(from, std::ios::binary);
  if (!in.good()) return false;
  std::ofstream out(to, std::ios::binary | std::ios::trunc);
  if (in.peek() == std::ifstream::traits_type::eof()) return out.good();
  out << in.rdbuf();
  return out.good();
}

void BM_WalRecoveryReplay(benchmark::State& state) {
  // Replay time vs log length: a store closed without checkpointing leaves
  // its whole history in the log; Open() must scan, validate, and rewrite
  // every surviving page image into the main file.
  const int64_t commits = state.range(0);
  const std::string base = BenchPath("replay_base");
  const std::string work = BenchPath("replay_work");
  RemoveStoreFiles(base);
  {
    SetStoreOptions options;
    options.buffer_pool_pages = 64;
    options.checkpoint_on_close = false;          // leave the log full
    options.wal_checkpoint_bytes = 1ull << 40;    // never checkpoint mid-run
    auto store = SetStore::Open(base, options);
    if (!store.ok()) {
      state.SkipWithError(store.status().ToString().c_str());
      return;
    }
    for (int64_t i = 0; i < commits; ++i) {
      Status st = (*store)->Put("s" + std::to_string(i % 32),
                                bench::IntAtoms(32, i));
      if (!st.ok()) {
        state.SkipWithError(st.ToString().c_str());
        return;
      }
    }
  }
  uint64_t log_bytes = 0;
  {
    std::ifstream wal(base + ".wal", std::ios::binary | std::ios::ate);
    log_bytes = wal.good() ? static_cast<uint64_t>(wal.tellg()) : 0;
  }
  for (auto _ : state) {
    state.PauseTiming();
    RemoveStoreFiles(work);
    if (!CopyFileBytes(base, work) ||
        !CopyFileBytes(base + ".wal", work + ".wal")) {
      state.SkipWithError("copying the log template failed");
      break;
    }
    state.ResumeTiming();
    auto recovered = SetStore::Open(work);  // scan + replay + reset
    state.PauseTiming();
    if (!recovered.ok()) {
      state.SkipWithError(recovered.status().ToString().c_str());
      break;
    }
    recovered->reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * commits);
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(log_bytes));
  state.counters["log_bytes"] = static_cast<double>(log_bytes);
  RemoveStoreFiles(base);
  RemoveStoreFiles(work);
}
BENCHMARK(BM_WalRecoveryReplay)
    ->Arg(16)
    ->Arg(128)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace xst

BENCHMARK_MAIN();
