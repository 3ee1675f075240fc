// xstctl: command-line administration for set stores.
//
//   xstctl <store> list                 names + sizes
//   xstctl <store> get <name>           print a set in XST notation
//   xstctl <store> put <name> <text>    parse and store a set (blob)
//   xstctl <store> put_indexed <name> <text>  store as a B+tree ordered index
//   xstctl <store> del <name>           remove a name
//   xstctl <store> run <script-file>    run an XSP script (@names hit the store)
//   xstctl <store> explain <plan>       EXPLAIN ANALYZE a plan over the store
//   xstctl <store> verify <script-file> compile + statically verify a script
//   xstctl <store> scrub                verify every blob end to end
//   xstctl <store> compact              reclaim dead pages
//   xstctl <store> stats                page/pool/interner statistics
//   xstctl <store> catalog              dump the catalog (itself a set)
//   xstctl <store> dump_metrics         process metrics registry as JSON
//
// run/explain/verify take --optimize. `run` compiles each statement and
// runs it on the VM, streaming stored operands through the cursor layer.
//
// Exit code 0 on success, 1 on any error (errors print to stderr).

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "src/core/interner.h"
#include "src/core/parse.h"
#include "src/obs/metrics.h"
#include "src/store/cursor.h"
#include "src/store/setstore.h"
#include "src/xsp/analyze.h"
#include "src/xsp/compile.h"
#include "src/xsp/optimizer.h"
#include "src/xsp/parser.h"
#include "src/xsp/script.h"
#include "src/xsp/verify.h"
#include "src/xsp/vm.h"

using namespace xst;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: xstctl <store-file> <command> [args]\n"
               "commands: list | get <name> | put <name> <text> | del <name>\n"
               "          put_indexed <name> <text>\n"
               "          run <script-file> [--optimize]\n"
               "          explain <plan> [--optimize]\n"
               "          verify <script-file> [--optimize]\n"
               "          scrub | compact | stats | catalog | dump_metrics\n");
  return 1;
}

int Fail(const Status& st) {
  std::fprintf(stderr, "xstctl: %s\n", st.ToString().c_str());
  return 1;
}

// Script-local bindings first, then the store: a bind statement shadows a
// stored set of the same name for the rest of the script. A range over a
// stored name goes to the store, which seeks an indexed set's lower edge.
class ChainedCursorSource final : public CursorSource {
 public:
  ChainedCursorSource(const xsp::Bindings& bindings, SetStore& store)
      : bindings_(bindings), map_(bindings), store_(store) {}

  Result<std::unique_ptr<MemberCursor>> Open(const std::string& name) const override {
    Result<std::unique_ptr<MemberCursor>> local = map_.Open(name);
    if (local.ok()) return local;
    return store_.Open(name);
  }

  Result<std::unique_ptr<MemberCursor>> OpenElementRange(
      const std::string& name, const XSet& lo, const XSet& hi) const override {
    if (bindings_.count(name) != 0) return CursorSource::OpenElementRange(name, lo, hi);
    return store_.OpenElementRange(name, lo, hi);
  }

 private:
  const xsp::Bindings& bindings_;
  MapCursorSource map_;
  StoreCursorSource store_;
};

// Parses the trailing [--optimize] flag shared by run/explain/verify.
bool ParseOptimizeFlag(int argc, char** argv, int first, bool* optimize) {
  *optimize = false;
  for (int i = first; i < argc; ++i) {
    if (std::strcmp(argv[i], "--optimize") == 0) {
      *optimize = true;
    } else {
      std::fprintf(stderr, "xstctl: unknown flag '%s'\n", argv[i]);
      return false;
    }
  }
  return true;
}

// Copies every stored set a plan names into a binding environment: EXPLAIN
// ANALYZE runs over bindings, and the optimizer's R2 rewrite composes only
// carriers it can see bound.
Status PrefetchNamedLeaves(const xsp::ExprPtr& plan, SetStore& store,
                           xsp::Bindings* env) {
  std::vector<std::string> names;
  xsp::CollectNamedLeaves(plan, &names);
  for (const std::string& name : names) {
    if (env->count(name) != 0) continue;
    Result<XSet> value = store.Get(name);
    if (!value.ok()) return value.status();
    (*env)[name] = *value;
  }
  return Status::OK();
}

int RunCommand(SetStore& store, const char* path, bool optimize) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "xstctl: cannot read script '%s'\n", path);
    return 1;
  }
  std::ostringstream text;
  text << in.rdbuf();
  auto script = xsp::ParseScript(text.str());
  if (!script.ok()) return Fail(script.status());

  xsp::Bindings env;
  xsp::VmContext ctx;  // shared arena across statements
  ChainedCursorSource source(env, store);
  for (const xsp::Statement& statement : script->statements) {
    xsp::ExprPtr plan = statement.plan;
    if (optimize) {
      auto optimized = xsp::Optimize(plan, env);
      if (!optimized.ok()) return Fail(optimized.status());
      plan = *optimized;
    }
    auto program = xsp::Compile(plan);
    if (!program.ok()) return Fail(program.status());
    // Verified before it runs, as in RunScript: VmEval verifies only at the
    // XST_VM_VALIDATE tier.
    Status verified = xsp::VerifyProgram(*program);
    Result<XSet> value =
        verified.ok() ? xsp::VmEval(*program, source, &ctx) : Result<XSet>(verified);
    if (!value.ok()) {
      return Fail(value.status().WithContext("statement '" + statement.source + "'"));
    }
    if (statement.bind_name.empty()) {
      std::printf("%s\n", value->ToString().c_str());
    } else {
      env[statement.bind_name] = *value;
    }
  }
  return 0;
}

int ExplainCommand(SetStore& store, const char* plan_text, bool optimize) {
  auto plan = xsp::ParsePlan(plan_text);
  if (!plan.ok()) return Fail(plan.status());
  xsp::Bindings env;
  Status st = PrefetchNamedLeaves(*plan, store, &env);
  if (!st.ok()) return Fail(st);
  if (optimize) {
    auto optimized = xsp::Optimize(*plan, env);
    if (!optimized.ok()) return Fail(optimized.status());
    plan = *optimized;
  }
  auto analyzed = xsp::ExplainAnalyze(*plan, env);
  if (!analyzed.ok()) return Fail(analyzed.status());
  std::printf("%s", analyzed->Render().c_str());
  return 0;
}

// Static pipeline only — parse, compile, verify — no store reads and no
// evaluation, so a script is checkable before the data it names exists.
// Prints the verifier's typed listing per statement; the first rejection
// prints the diagnostic (which names the offending instruction) and exits 1.
int VerifyCommand(const char* path, bool optimize) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "xstctl: cannot read script '%s'\n", path);
    return 1;
  }
  std::ostringstream text;
  text << in.rdbuf();
  auto script = xsp::ParseScript(text.str());
  if (!script.ok()) return Fail(script.status());

  xsp::Bindings empty_env;
  for (const xsp::Statement& statement : script->statements) {
    xsp::ExprPtr plan = statement.plan;
    if (optimize) {
      auto optimized = xsp::Optimize(plan, empty_env);
      if (!optimized.ok()) return Fail(optimized.status());
      plan = *optimized;
    }
    auto program = xsp::Compile(plan);
    if (!program.ok()) {
      return Fail(program.status().WithContext("statement '" + statement.source + "'"));
    }
    auto verified = xsp::Verify(std::move(*program));
    if (!verified.ok()) {
      return Fail(
          verified.status().WithContext("statement '" + statement.source + "'"));
    }
    std::printf("-- %s\n%s", statement.source.c_str(),
                verified->ToString().c_str());
  }
  std::printf("verify OK: %zu statement(s)\n", script->statements.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string path = argv[1];
  const std::string command = argv[2];

  auto store_or = SetStore::Open(path);
  if (!store_or.ok()) return Fail(store_or.status());
  SetStore& store = **store_or;

  if (command == "list") {
    for (const std::string& name : store.List()) {
      Result<XSet> value = store.Get(name);
      if (value.ok()) {
        std::printf("%-24s %zu memberships\n", name.c_str(), value->cardinality());
      } else {
        std::printf("%-24s <%s>\n", name.c_str(), value.status().ToString().c_str());
      }
    }
    return 0;
  }
  if (command == "get") {
    if (argc < 4) return Usage();
    Result<XSet> value = store.Get(argv[3]);
    if (!value.ok()) return Fail(value.status());
    std::printf("%s\n", value->ToString().c_str());
    return 0;
  }
  if (command == "put") {
    if (argc < 5) return Usage();
    Result<XSet> value = Parse(argv[4]);
    if (!value.ok()) return Fail(value.status());
    Status st = store.Put(argv[3], *value);
    if (!st.ok()) return Fail(st);
    std::printf("stored '%s' (%zu memberships)\n", argv[3], value->cardinality());
    return 0;
  }
  if (command == "put_indexed") {
    if (argc < 5) return Usage();
    Result<XSet> value = Parse(argv[4]);
    if (!value.ok()) return Fail(value.status());
    Status st = store.PutIndexed(argv[3], *value);
    if (!st.ok()) return Fail(st);
    std::printf("indexed '%s' (%zu memberships)\n", argv[3], value->cardinality());
    return 0;
  }
  if (command == "del") {
    if (argc < 4) return Usage();
    Status st = store.Delete(argv[3]);
    if (!st.ok()) return Fail(st);
    std::printf("deleted '%s'\n", argv[3]);
    return 0;
  }
  if (command == "run" || command == "explain" || command == "verify") {
    bool optimize;
    if (argc < 4 || !ParseOptimizeFlag(argc, argv, 4, &optimize)) return Usage();
    if (command == "run") return RunCommand(store, argv[3], optimize);
    if (command == "explain") return ExplainCommand(store, argv[3], optimize);
    return VerifyCommand(argv[3], optimize);
  }
  if (command == "scrub") {
    Result<size_t> verified = store.Scrub();
    if (!verified.ok()) return Fail(verified.status());
    std::printf("scrub clean: %zu sets verified\n", *verified);
    return 0;
  }
  if (command == "compact") {
    uint32_t before = store.page_count();
    Status st = store.Compact();
    if (!st.ok()) return Fail(st);
    std::printf("compacted: %u -> %u pages\n", before, store.page_count());
    return 0;
  }
  if (command == "stats") {
    std::printf("pages:      %u (%zu KiB)\n", store.page_count(),
                static_cast<size_t>(store.page_count()) * kPageSize / 1024);
    // Storage-mode split: indexed sets hold B+tree node/overflow pages
    // (point and range reads touch O(height + matching leaves) of them),
    // blob sets hold contiguous encoded spans.
    size_t blobs = 0, indexed = 0;
    for (const std::string& name : store.List()) {
      Result<StorageMode> mode = store.ModeOf(name);
      if (mode.ok() && *mode == StorageMode::kOrderedIndex) {
        ++indexed;
      } else {
        ++blobs;
      }
    }
    std::printf("sets:       %zu (blob: %zu, ordered-index: %zu)\n",
                blobs + indexed, blobs, indexed);
    // Pool and latch-shard telemetry: process-wide counters, so under xstctl
    // they cover exactly this invocation's work on the store opened above.
    auto& registry = obs::MetricsRegistry::Global();
    const auto count = [&](const char* name) {
      return (unsigned long long)registry.GetCounter(name).value();
    };
    std::printf("pool hits:  %llu  misses: %llu  evictions: %llu  writebacks: %llu\n",
                count(internal::kPagerHitsCounter), count(internal::kPagerMissesCounter),
                count(internal::kPagerEvictionsCounter),
                count(internal::kPagerWritebacksCounter));
    std::printf("latch:      %zu shards, acquisitions: %llu, contended: %llu\n",
                store.pager_latch_shards(), count(internal::kPagerLatchAcquisitionsCounter),
                count(internal::kPagerLatchContentionCounter));
    // Optimistic-read telemetry: views that failed validation, and reads
    // that gave up on views and ran under the store lock.
    std::printf("reads:      retries: %llu, locked fallbacks: %llu\n",
                count(internal::kStoreReadRetriesCounter),
                count(internal::kStoreReadFallbacksCounter));
    // Arena size: the value system's startup atoms plus everything this
    // invocation decoded (opening the store reads its catalog).
    std::printf("interner:   %lld nodes, %lld KiB\n",
                (long long)registry.GetGauge(internal::kInternerNodesGauge).value(),
                (long long)(registry.GetGauge(internal::kInternerBytesGauge).value() / 1024));
    // Durability state: how much un-checkpointed history the log segment
    // holds (bounds crash-recovery replay) and where the durable horizon is.
    const WalStats wal = store.wal_stats();
    std::printf("wal:        segment %llu, %llu KiB, durable lsn %llu, "
                "last checkpoint lsn %llu\n",
                (unsigned long long)wal.segment,
                (unsigned long long)(wal.segment_bytes / 1024),
                (unsigned long long)wal.durable_lsn,
                (unsigned long long)wal.last_checkpoint_lsn);
    return 0;
  }
  if (command == "dump_metrics") {
    // Exercise the store so the I/O counters are warm, then dump everything
    // the registry has seen this process (pager, memo, interner, spans).
    // Deliberate drop: an unreadable set still warms the miss/error counters,
    // which is all this command reports; `scrub` is the failure-surfacing path.
    for (const std::string& name : store.List()) (void)store.Get(name);
    std::printf("%s", obs::DumpMetricsJson().c_str());
    return 0;
  }
  if (command == "catalog") {
    std::printf("%s\n", store.CatalogAsXSet().ToString().c_str());
    return 0;
  }
  return Usage();
}
