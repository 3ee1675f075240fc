// dexter_bench: the end-to-end benchmark over a seeded Dexter hypertext
// graph (graph.h), driving the whole store stack through its public APIs.
//
//   dexter_bench --workload W --seed N --seconds S --trace 0|1 --dir D
//                [--shape normal|smoke] [--spans FILE]
//
// Workloads (each in its own process: the interner is process-wide and
// never frees nodes):
//   dexter_browse     read-only, 2 clients, Zipf-skewed components; ~40%
//                     xsp queries, ~40% blob Gets, ~20% link-index probes;
//                     the buffer pool holds the whole store.
//   dexter_analytics  read-only, 1 client; whole-graph xsp queries streamed
//                     through kLoadBinding (2-hop image chains, a relprod
//                     link join, wide range scans, a bounded closure) over
//                     the default 64-page pool, smaller than the link index.
//   dexter_edit       the browse mix on 2 clients with ~25% writes
//                     (InsertMember/EraseMember on the link index, Put of
//                     component blobs); group commit on; ends with a
//                     no-checkpoint close and a timed replaying Open.
//
// Every client is a closed loop over its own seeded request stream. Each
// edit client owns the components congruent to its id, so the model can
// replay each client's acknowledged writes in order. Answers are recorded
// during the window and checked against the model after it.
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 runs
// untraced and traced slices (the per-layer ledger, trace.h), then the
// browse-mix scaling sweep at 1, 2 and 4 clients. The last line of stdout is
// one JSON object with every metric, its unit and run metadata.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <latch>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "graph.h"
#include "trace.h"
#include "src/common/macros.h"
#include "src/common/thread_pool.h"
#include "src/core/interner.h"
#include "src/obs/metrics.h"
#include "src/store/codec.h"
#include "src/store/cursor.h"
#include "src/store/setstore.h"
#include "src/xsp/compile.h"
#include "src/xsp/optimizer.h"
#include "src/xsp/script.h"
#include "src/xsp/verify.h"
#include "src/xsp/vm.h"

namespace dexter {
namespace {

namespace fs = std::filesystem;
using xst::Membership;
using xst::Result;
using xst::SetStore;
using xst::Status;
using xst::XSet;

// -- Workloads -----------------------------------------------------------------

constexpr size_t kWholeStorePool = size_t{1} << 15;  // pages; lazily filled

struct WorkloadConfig {
  std::string name;
  std::string why;
  int clients = 1;
  bool analytics = false;
  size_t pool_pages = kWholeStorePool;
  double write_share = 0;
  GraphShape shape;
};

constexpr int kSetupRepeats = 5;       // at least, and until 1 s of set-up
constexpr int kMaxSetupRepeats = 25;
constexpr int kReopenRepeats = 7;
constexpr int kSlices = 10;            // time slices of a measured window
constexpr int kTailWrites = 48;  // logged writes every reopen replays
constexpr uint64_t kHeldOutSeed = 7919;

WorkloadConfig MakeWorkload(const std::string& name, bool smoke) {
  WorkloadConfig w;
  w.name = name;
  if (name == "dexter_browse") {
    w.why = "read-only point reads that fit in cache: front end, blob decode, interner and pager latch";
    w.clients = 2;
    w.shape.components = 2048;
  } else if (name == "dexter_analytics") {
    w.why = "whole-graph queries over a link index larger than the pool: VM, kernels, cursors, pager misses";
    w.clients = 1;
    w.analytics = true;
    w.pool_pages = 64;  // the default pool
    w.shape.components = 1024;
    w.shape.min_anchors = 6;
    w.shape.max_anchors = 8;
    w.shape.min_out = 4;
    w.shape.max_out = 12;
  } else if (name == "dexter_edit") {
    w.why = "browse reads beside writers: commit path, group commit, checkpoints and log replay";
    w.clients = 2;
    w.write_share = 0.25;
    w.shape.components = 256;
    // Holds the live store (~300 pages) with room to spare, but not every
    // stale page the append-only writes leave behind: each commit scans the
    // resident frames for dirty pages, so a pool that kept growing would
    // slow commits for the whole run and the window would never settle.
    w.pool_pages = 1024;
  } else {
    return WorkloadConfig{};
  }
  if (smoke) {
    w.shape.components = 64;
    w.shape.min_out = 2;
    w.shape.max_out = 3;
  }
  return w;
}

// -- Requests ------------------------------------------------------------------

enum class Kind : uint8_t {
  kQuery,      // browse: one component's anchors and out-links
  kGet,        // component blob
  kProbe,      // link-index membership
  kInsert,     // add a link to the index
  kErase,      // remove a link from the index
  kPut,        // rewrite a component blob
  kTwoHop,     // analytics: anchors → links → destination anchors
  kWideRange,  // analytics: a wide slice of the link index
  kRelProd,    // analytics: link index ⋈ link_dst over a slice
  kClosure,    // analytics: closure of the anchor graph over a small slice
};

bool IsQuery(Kind k) {
  return k == Kind::kQuery || k == Kind::kTwoHop || k == Kind::kWideRange ||
         k == Kind::kRelProd || k == Kind::kClosure;
}
bool IsWrite(Kind k) { return k == Kind::kInsert || k == Kind::kErase || k == Kind::kPut; }

struct Request {
  Kind kind = Kind::kGet;
  int64_t comp = 0;
  int64_t anchor = 0;
  int64_t link = 0;
  uint64_t aux = 0;  ///< blob version (kPut) or parameter seed (analytics)
};

constexpr Kind kAnalyticsCycle[] = {Kind::kTwoHop,  Kind::kWideRange, Kind::kRelProd,
                                    Kind::kTwoHop,  Kind::kWideRange, Kind::kClosure,
                                    Kind::kTwoHop,  Kind::kWideRange, Kind::kRelProd,
                                    Kind::kClosure};
// Distinct parameter sets per analytics query kind. Queries repeat, as a
// dashboard's do, so after the warm-up pass the immortal interner already
// holds every result and the window measures a steady state.
constexpr uint64_t kAnalyticsVariants = 4;
constexpr size_t kChurnLag = 128;
// Component popularity is Zipf(0.8): skewed, yet no single component's
// layout (say, links straddling a leaf boundary) sets a run's median.
constexpr double kZipfSkew = 0.8;

/// One client's seeded request stream. Components are drawn Zipf-skewed
/// from the client's partition (c ≡ client mod partitions).
class RequestGen {
 public:
  RequestGen(const Graph& g, const WorkloadConfig& w, const Zipf& zipf,
             const std::vector<int64_t>& perm, int client, int partitions, bool read_only)
      : g_(g),
        w_(w),
        zipf_(zipf),
        perm_(perm),
        client_(client),
        partitions_(partitions),
        read_only_(read_only),
        rng_(Mix(Mix(g.seed, 0x636c69656e74), static_cast<uint64_t>(client * 1000 + partitions))) {}

  Request Next() {
    Request r;
    if (w_.analytics && !read_only_browse_) return NextAnalytics();
    r.comp = perm_[zipf_.Draw(rng_)] * partitions_ + client_ % partitions_;
    r.anchor = AnchorId(r.comp, static_cast<int64_t>(rng_.Below(g_.anchors[r.comp])));
    const std::vector<int64_t>& links = g_.out[AnchorSlot(r.anchor)];
    if (!read_only_ && rng_.Unit() < w_.write_share) {
      // Writes cycle insert, erase, Put. An erase removes the link this
      // client inserted kChurnLag inserts ago (an original link until
      // then), so the index churns at a steady size instead of piling
      // links onto the hottest components for the whole run.
      switch (writes_++ % 3) {
        case 0:
          r.kind = Kind::kInsert;
          r.link = kNewLinkBase + (static_cast<int64_t>(client_) << 32) + next_link_++;
          inserted_.emplace_back(r.anchor, r.link);
          break;
        case 1:
          r.kind = Kind::kErase;
          if (inserted_.size() > kChurnLag) {
            std::tie(r.anchor, r.link) = inserted_.front();
            r.comp = ComponentOf(r.anchor);
            inserted_.pop_front();
          } else {
            r.link = links[rng_.Below(links.size())];
          }
          break;
        default:
          r.kind = Kind::kPut;
          r.aux = 1 + next_version_++ * static_cast<uint64_t>(partitions_) + client_;
          break;
      }
      return r;
    }
    const double u = rng_.Unit();
    if (u < 0.4) {
      r.kind = Kind::kQuery;
    } else if (u < 0.8) {
      r.kind = Kind::kGet;
    } else {
      r.kind = Kind::kProbe;
      if (rng_.Below(2) == 0) {
        r.link = links[rng_.Below(links.size())];
      } else {
        // A link of another component's anchor: never a member for r.anchor
        // (original links have one source, edits only add fresh ids).
        const int64_t other = (r.comp + 1) % g_.shape.components;
        r.link = g_.out[AnchorSlot(AnchorId(other, 0))].front();
      }
    }
    return r;
  }

  /// Serve the browse read mix even on the analytics workload (the
  /// scaling sweep).
  void UseBrowseMix() { read_only_browse_ = true; }

 private:
  // Query kinds cycle in a fixed order (30% two-hop, 30% wide range, 20%
  // relprod, 20% closure): with a few hundred queries per run, sampling the
  // kind at random would move throughput more than any code change. Each
  // kind has kAnalyticsVariants parameter sets, all run once before timing.
  Request NextAnalytics() {
    Request r;
    r.kind = kAnalyticsCycle[sent_++ % std::size(kAnalyticsCycle)];
    r.aux = rng_.Below(kAnalyticsVariants);
    return r;
  }

  const Graph& g_;
  const WorkloadConfig& w_;
  const Zipf& zipf_;
  const std::vector<int64_t>& perm_;
  int client_;
  int partitions_;
  bool read_only_;
  bool read_only_browse_ = false;
  Rng rng_;
  int64_t next_link_ = 0;
  uint64_t next_version_ = 0;
  uint64_t sent_ = 0;
  uint64_t writes_ = 0;
  std::deque<std::pair<int64_t, int64_t>> inserted_;  // (anchor, link), oldest first
};

// Analytics parameters, derived from the request's seed.
struct Slice {
  int64_t first_comp = 0;
  int64_t comps = 0;
  int64_t lo_slot() const { return first_comp * kAnchorSlots; }
  int64_t hi_slot() const { return (first_comp + comps) * kAnchorSlots - 1; }
};

Slice SliceFor(const Graph& g, Kind kind, uint64_t aux) {
  const int64_t n = g.shape.components;
  Slice s;
  switch (kind) {
    case Kind::kWideRange: s.comps = std::max<int64_t>(1, n / 20); break;
    case Kind::kRelProd: s.comps = std::max<int64_t>(1, n / 50); break;
    default: s.comps = std::min<int64_t>(n, 12); break;
  }
  Rng rng(Mix(g.seed, aux * 16 + static_cast<uint64_t>(kind)));
  s.first_comp = static_cast<int64_t>(rng.Below(static_cast<uint64_t>(n - s.comps + 1)));
  return s;
}

constexpr int kTwoHopSeeds = 200;

std::vector<int64_t> TwoHopSeeds(const Graph& g, uint64_t aux) {
  Rng rng(Mix(g.seed, aux * 16 + static_cast<uint64_t>(Kind::kTwoHop)));
  std::vector<int64_t> seeds;
  for (int i = 0; i < kTwoHopSeeds; ++i) {
    const int64_t c = static_cast<int64_t>(rng.Below(g.shape.components));
    seeds.push_back(AnchorId(c, static_cast<int64_t>(rng.Below(g.anchors[c]))));
  }
  return seeds;
}

/// The link index holding component `comp`'s out-links. With several
/// writers the index is sharded by partition: a streaming B+tree cursor is
/// not isolated from a concurrent insert into the leaves it walks (its
/// position is a leaf page and slot, revalidated per batch only), so each
/// edit client writes and range-reads only its own shard.
std::string LinkIndexName(int64_t comp, int partitions) {
  return partitions == 1 ? "anchor_link" : "anchor_link_" + std::to_string(comp % partitions);
}

void AppendRange(std::string* s, int64_t lo_slot, int64_t hi_slot, const std::string& index) {
  *s += "range[<" + std::to_string(kAnchorBase + lo_slot) + ", " + std::to_string(kLinkBase) +
        ">, <" + std::to_string(kAnchorBase + hi_slot) + ", " + std::to_string(kTop) +
        ">](@" + index + ")";
}

/// The xsp script a query request sends.
void RenderQuery(const Graph& g, const Request& r, int partitions, std::string* text) {
  text->clear();
  switch (r.kind) {
    case Kind::kQuery: {
      const std::string c = std::to_string(r.comp);
      *text += "anchors = image[<1>, <2>](range[<" + c + ", " + std::to_string(kAnchorBase) +
               ">, <" + c + ", " + std::to_string(kTop) + ">](@comp_anchor), {<" + c + ">})\n";
      *text += "image[<1>, <2>](";
      AppendRange(text, r.comp * kAnchorSlots, r.comp * kAnchorSlots + kAnchorSlots - 1,
                  LinkIndexName(r.comp, partitions));
      *text += ", @anchors)\n";
      return;
    }
    case Kind::kTwoHop: {
      *text += "image[<1>, <2>](@link_dst, image[<1>, <2>](@anchor_link, {";
      bool first = true;
      for (int64_t a : TwoHopSeeds(g, r.aux)) {
        if (!first) *text += ", ";
        first = false;
        *text += "<" + std::to_string(a) + ">";
      }
      *text += "}))\n";
      return;
    }
    case Kind::kWideRange: {
      const Slice s = SliceFor(g, r.kind, r.aux);
      AppendRange(text, s.lo_slot(), s.hi_slot(), "anchor_link");
      *text += "\n";
      return;
    }
    case Kind::kRelProd:
    case Kind::kClosure: {
      const Slice s = SliceFor(g, r.kind, r.aux);
      if (r.kind == Kind::kClosure) *text += "closure(";
      *text += "relprod[<1>, <2>; <1>, {2^2}](";
      AppendRange(text, s.lo_slot(), s.hi_slot(), "anchor_link");
      *text += ", @link_dst)";
      if (r.kind == Kind::kClosure) *text += ")";
      *text += "\n";
      return;
    }
    default:
      return;
  }
}

// -- The model's answers ---------------------------------------------------------

int64_t LinkTarget(const Graph& g, int64_t link) { return g.link_dst[link - kLinkBase]; }

std::vector<std::pair<int64_t, int64_t>> AnchorEdges(const Graph& g, const Model& m, const Slice& s) {
  std::vector<std::pair<int64_t, int64_t>> edges;
  for (const auto& [a, l] : m.LinksFrom(s.lo_slot(), s.hi_slot())) {
    if (l < kNewLinkBase) edges.emplace_back(a, LinkTarget(g, l));
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

std::vector<std::pair<int64_t, int64_t>> Closure(const std::vector<std::pair<int64_t, int64_t>>& edges) {
  std::map<int64_t, std::vector<int64_t>> adj;
  for (const auto& [x, y] : edges) adj[x].push_back(y);
  std::vector<std::pair<int64_t, int64_t>> out;
  for (const auto& [x, ys] : adj) {
    std::set<int64_t> seen;
    std::vector<int64_t> stack(ys.begin(), ys.end());
    while (!stack.empty()) {
      const int64_t y = stack.back();
      stack.pop_back();
      if (!seen.insert(y).second) continue;
      auto it = adj.find(y);
      if (it != adj.end()) stack.insert(stack.end(), it->second.begin(), it->second.end());
    }
    for (int64_t z : seen) out.emplace_back(x, z);
  }
  return out;
}

/// True iff `value` is the model's answer to query `r`.
bool CheckQuery(const Graph& g, const Model& m, const Request& r, const XSet& value) {
  std::vector<int64_t> got1;
  std::vector<std::pair<int64_t, int64_t>> got2;
  switch (r.kind) {
    case Kind::kQuery: {
      if (!UnaryInts(value, &got1)) return false;
      std::vector<int64_t> want;
      for (const auto& [a, l] : m.LinksFrom(r.comp * kAnchorSlots, r.comp * kAnchorSlots + kAnchorSlots - 1)) {
        want.push_back(l);
      }
      std::sort(want.begin(), want.end());
      return got1 == want;
    }
    case Kind::kTwoHop: {
      if (!UnaryInts(value, &got1)) return false;
      std::set<int64_t> want;
      for (int64_t a : TwoHopSeeds(g, r.aux)) {
        for (int64_t l : m.out[AnchorSlot(a)]) want.insert(LinkTarget(g, l));
      }
      return got1 == std::vector<int64_t>(want.begin(), want.end());
    }
    case Kind::kWideRange: {
      const Slice s = SliceFor(g, r.kind, r.aux);
      return PairInts(value, &got2) && got2 == m.LinksFrom(s.lo_slot(), s.hi_slot());
    }
    case Kind::kRelProd:
      return PairInts(value, &got2) && got2 == AnchorEdges(g, m, SliceFor(g, r.kind, r.aux));
    case Kind::kClosure:
      return PairInts(value, &got2) && got2 == Closure(AnchorEdges(g, m, SliceFor(g, r.kind, r.aux)));
    default:
      return false;
  }
}

bool CheckBlob(const std::vector<int64_t>& want, const XSet& value) {
  std::vector<std::pair<int64_t, int64_t>> got;
  if (!PairInts(value, &got) || got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].first != static_cast<int64_t>(i) || got[i].second != want[i]) return false;
  }
  return true;
}

// -- Query execution --------------------------------------------------------------

/// Script-local bindings first, then the store: how a multi-statement script
/// sees both its own intermediate results and stored sets.
class ScriptSource final : public xst::CursorSource {
 public:
  ScriptSource(const xst::xsp::Bindings& local, const xst::CursorSource& store)
      : local_(local), store_(store) {}

  Result<std::unique_ptr<xst::MemberCursor>> Open(const std::string& name) const override {
    auto it = local_.find(name);
    if (it == local_.end()) return store_.Open(name);
    return std::unique_ptr<xst::MemberCursor>(new xst::XSetCursor(it->second));
  }

  Result<std::unique_ptr<xst::MemberCursor>> OpenElementRange(
      const std::string& name, const XSet& lo, const XSet& hi) const override {
    if (local_.count(name) == 0) return store_.OpenElementRange(name, lo, hi);
    return CursorSource::OpenElementRange(name, lo, hi);
  }

 private:
  const xst::xsp::Bindings& local_;
  const xst::CursorSource& store_;
};

/// Front-end and VM counts summed over a window's queries.
struct QueryCounts {
  uint64_t queries = 0;
  uint64_t rewrites = 0;
  uint64_t instrs = 0;
  uint64_t materializations = 0;
  uint64_t intermediate_rows = 0;
  uint64_t peak_rows = 0;

  void Add(const QueryCounts& o) {
    queries += o.queries;
    rewrites += o.rewrites;
    instrs += o.instrs;
    materializations += o.materializations;
    intermediate_rows += o.intermediate_rows;
    peak_rows = std::max(peak_rows, o.peak_rows);
  }
};

/// Parse → per statement (optimize → compile → verify → VmEval); the value
/// of the last expression statement is the answer.
Result<XSet> RunQuery(const std::string& text, const xst::CursorSource& store,
                      xst::xsp::VmContext* ctx, QueryCounts* counts) {
  namespace xsp = xst::xsp;
  Result<xsp::Script> script = [&] {
    Span span(kParse);
    return xsp::ParseScript(text);
  }();
  if (!script.ok()) return script.status();
  xsp::Bindings local;
  ScriptSource source(local, store);
  XSet answer;
  for (const xsp::Statement& st : script->statements) {
    xsp::OptimizerStats ostats;
    Result<xsp::ExprPtr> plan = [&] {
      Span span(kOptimize);
      return xsp::Optimize(st.plan, local, &ostats);
    }();
    if (!plan.ok()) return plan.status();
    Result<xsp::Program> program = [&] {
      Span span(kCompile);
      return xsp::Compile(*plan);
    }();
    if (!program.ok()) return program.status();
    Status verified = [&] {
      Span span(kVerify);
      return xsp::VerifyProgram(*program);
    }();
    if (!verified.ok()) return verified;
    xsp::VmStats vstats;
    Result<XSet> value = [&] {
      Span span(kVm);
      return xsp::VmEval(*program, source, ctx, &vstats);
    }();
    if (!value.ok()) return value.status();
    counts->rewrites += static_cast<uint64_t>(ostats.total());
    counts->instrs += program->code.size();
    counts->materializations += vstats.materializations;
    counts->intermediate_rows += vstats.interned_intermediate_rows;
    counts->peak_rows = std::max(counts->peak_rows, vstats.peak_rows);
    if (st.bind_name.empty()) {
      answer = *value;
    } else {
      local[st.bind_name] = *value;
    }
  }
  ++counts->queries;
  return answer;
}

// -- Clients -------------------------------------------------------------------------

struct Outcome {
  Request req;
  XSet value;        ///< query answer or blob
  uint64_t latency_ns = 0;
  uint64_t done_ns = 0;  ///< completion time (steady clock)
  bool ok = false;
  bool hit = false;  ///< probe answer
};

struct Client {
  explicit Client(RequestGen g) : gen(std::move(g)) {}
  RequestGen gen;
  xst::xsp::VmContext ctx;
  std::deque<Outcome> outcomes;  // no reallocation stalls mid-window
  QueryCounts counts;
  std::string text;
  std::string name;
  XSet blob;
};
using Clients = std::vector<std::unique_ptr<Client>>;

struct Env {
  const Graph* graph = nullptr;
  int partitions = 1;
  SetStore* store = nullptr;
  const xst::CursorSource* source = nullptr;  // store cursors, timed or not
};

/// Builds what the request sends (outside its latency).
void Prepare(const Env& env, const Request& r, Client* c) {
  if (IsQuery(r.kind)) {
    RenderQuery(*env.graph, r, env.partitions, &c->text);
  } else if (r.kind == Kind::kGet || r.kind == Kind::kPut) {
    c->name = BlobName(r.comp);
    if (r.kind == Kind::kPut) c->blob = BlobSet(BlobPayload(env.graph->seed, r.comp, r.aux));
  } else {
    c->name = LinkIndexName(r.comp, env.partitions);
  }
}

/// Reports the first few failed requests on stderr.
void ReportFailure(const Request& r, const Status& st) {
  static std::atomic<int> reported{0};
  if (reported.fetch_add(1) < 5) {
    std::fprintf(stderr, "request kind=%d comp=%lld failed: %s\n", static_cast<int>(r.kind),
                 static_cast<long long>(r.comp), st.ToString().c_str());
  }
}

Status ExecuteCall(const Env& env, const Request& r, Client* c, Outcome* out) {
  if (IsQuery(r.kind)) {
    Result<XSet> v = RunQuery(c->text, *env.source, &c->ctx, &c->counts);
    if (!v.ok()) return v.status();
    out->value = *v;
    return Status::OK();
  }
  switch (r.kind) {
    case Kind::kGet: {
      Span span(kGet);
      Result<XSet> v = env.store->Get(c->name);
      if (!v.ok()) return v.status();
      out->value = *v;
      return Status::OK();
    }
    case Kind::kProbe: {
      Span span(kProbe);
      Result<bool> hit = env.store->ContainsMember(c->name, xst::M(IntPair(r.anchor, r.link)));
      if (!hit.ok()) return hit.status();
      out->hit = *hit;
      return Status::OK();
    }
    case Kind::kInsert: {
      Span span(kCommit);
      return env.store->InsertMember(c->name, xst::M(IntPair(r.anchor, r.link)));
    }
    case Kind::kErase: {
      Span span(kCommit);
      return env.store->EraseMember(c->name, xst::M(IntPair(r.anchor, r.link)));
    }
    case Kind::kPut: {
      Span span(kCommit);
      return env.store->Put(c->name, c->blob);
    }
    default:
      return Status::Invalid("not a request kind");
  }
}

void Execute(const Env& env, const Request& r, Client* c, Outcome* out) {
  Status st = ExecuteCall(env, r, c, out);
  out->ok = st.ok();
  if (!st.ok()) ReportFailure(r, st);
}

/// Runs every client as a closed loop until `seconds` pass (or, when
/// `quota` > 0, until each has sent `quota` requests). Returns wall ns.
uint64_t RunWindow(const Env& env, Clients& clients, double seconds, uint64_t quota) {
  std::latch start(static_cast<ptrdiff_t>(clients.size()) + 1);
  std::vector<uint64_t> ends(clients.size(), 0);
  const uint64_t budget = static_cast<uint64_t>(seconds * 1e9);
  uint64_t t_start = 0;
  std::vector<std::thread> threads;
  for (size_t i = 0; i < clients.size(); ++i) {
    threads.emplace_back([&, i] {
      Client& c = *clients[i];
      start.arrive_and_wait();
      const uint64_t deadline = NowNs() + budget;
      uint64_t sent = 0;
      while (quota > 0 ? sent < quota : NowNs() < deadline) {
        Outcome out;
        out.req = c.gen.Next();
        Prepare(env, out.req, &c);
        const bool traced = Tracing();
        if (traced) Tracer::Current().BeginRequest((static_cast<uint64_t>(i + 1) << 40) | c.outcomes.size());
        const uint64_t t0 = NowNs();
        Execute(env, out.req, &c, &out);
        out.done_ns = NowNs();
        out.latency_ns = out.done_ns - t0;
        if (traced) Tracer::Current().EndRequest(out.latency_ns);
        c.outcomes.push_back(std::move(out));
        ++sent;
      }
      ends[i] = NowNs();
    });
  }
  t_start = NowNs();
  start.arrive_and_wait();
  for (std::thread& t : threads) t.join();
  return *std::max_element(ends.begin(), ends.end()) - t_start;
}

/// Replays each client's outcomes in order against the model: reads are
/// checked, acknowledged writes applied. Returns the number of failed or
/// wrong answers.
uint64_t CheckOutcomes(const Graph& g, Model* m, const Clients& clients, size_t* from) {
  uint64_t bad = 0;
  for (size_t i = 0; i < clients.size(); ++i) {
    const std::deque<Outcome>& outs = clients[i]->outcomes;
    for (size_t k = from[i]; k < outs.size(); ++k) {
      const Outcome& o = outs[k];
      const Request& r = o.req;
      if (!o.ok) {
        ++bad;
        continue;
      }
      const int64_t slot = IsQuery(r.kind) ? 0 : AnchorSlot(r.anchor);
      bool right = true;
      switch (r.kind) {
        case Kind::kGet: right = CheckBlob(m->blob[r.comp], o.value); break;
        case Kind::kProbe: right = o.hit == (m->out[slot].count(r.link) > 0); break;
        case Kind::kInsert: m->out[slot].insert(r.link); break;
        case Kind::kErase: m->out[slot].erase(r.link); break;
        case Kind::kPut: m->blob[r.comp] = BlobPayload(g.seed, r.comp, r.aux); break;
        default: right = CheckQuery(g, *m, r, o.value); break;
      }
      if (!right) {
        ++bad;
        ReportFailure(r, Status::Invalid("answer differs from the model"));
      }
    }
    from[i] = outs.size();
  }
  return bad;
}

// -- Setup, reopen and the full-state check ------------------------------------------

/// A fixed tail of logged writes after a checkpoint, so every workload's
/// reopen replays the same log: inserts, erases and blob rewrites on seeded
/// components, applied to the model once acknowledged. Returns failures.
uint64_t TailWrites(const Env& env, Model* m, int count) {
  const Graph& g = *env.graph;
  Rng rng(Mix(g.seed, 0x7461696c));
  uint64_t bad = 0;
  for (int i = 0; i < count; ++i) {
    Request r;
    r.comp = static_cast<int64_t>(rng.Below(static_cast<uint64_t>(g.shape.components)));
    r.anchor = AnchorId(r.comp, static_cast<int64_t>(rng.Below(g.anchors[r.comp])));
    const int64_t slot = AnchorSlot(r.anchor);
    const std::string index = LinkIndexName(r.comp, env.partitions);
    Status st;
    if (i % 3 == 0) {
      r.kind = Kind::kInsert;
      r.link = kNewLinkBase + (int64_t{1} << 35) + i;
      st = env.store->InsertMember(index, xst::M(IntPair(r.anchor, r.link)));
      if (st.ok()) m->out[slot].insert(r.link);
    } else if (i % 3 == 1) {
      r.kind = Kind::kErase;
      r.link = g.out[slot][rng.Below(g.out[slot].size())];
      st = env.store->EraseMember(index, xst::M(IntPair(r.anchor, r.link)));
      if (st.ok()) m->out[slot].erase(r.link);
    } else {
      r.kind = Kind::kPut;
      r.aux = (uint64_t{1} << 40) + static_cast<uint64_t>(i);
      std::vector<int64_t> payload = BlobPayload(g.seed, r.comp, r.aux);
      st = env.store->Put(BlobName(r.comp), BlobSet(payload));
      if (st.ok()) m->blob[r.comp] = std::move(payload);
    }
    if (!st.ok()) {
      ++bad;
      ReportFailure(r, st);
    }
  }
  return bad;
}

xst::SetStoreOptions StoreOptions(const WorkloadConfig& w, bool timed_files) {
  xst::SetStoreOptions o;
  o.buffer_pool_pages = w.pool_pages;
  o.checkpoint_on_close = false;  // the epilogue reopens with log replay
  if (timed_files) o.file_factory = TimingFileFactory();
  return o;
}

XSet IndexSet(std::vector<Membership> ms) { return XSet::FromMembers(std::move(ms)); }

/// Generates the graph and loads it: three ordered indexes, one blob per
/// component, then a checkpoint.
Status Load(const Graph& g, int partitions, SetStore* store) {
  std::vector<Membership> ca, ld;
  std::vector<std::vector<Membership>> al(partitions);
  for (int64_t c = 0; c < g.shape.components; ++c) {
    for (int j = 0; j < g.anchors[c]; ++j) ca.push_back(xst::M(IntPair(c, AnchorId(c, j))));
  }
  for (size_t s = 0; s < g.out.size(); ++s) {
    const int64_t comp = static_cast<int64_t>(s) / kAnchorSlots;
    for (int64_t l : g.out[s]) {
      al[comp % partitions].push_back(xst::M(IntPair(kAnchorBase + static_cast<int64_t>(s), l)));
    }
  }
  for (int64_t i = 0; i < g.links(); ++i) ld.push_back(xst::M(IntPair(kLinkBase + i, g.link_dst[i])));
  XST_RETURN_NOT_OK(store->PutIndexed("comp_anchor", IndexSet(std::move(ca))));
  for (int p = 0; p < partitions; ++p) {
    XST_RETURN_NOT_OK(store->PutIndexed(LinkIndexName(p, partitions), IndexSet(std::move(al[p]))));
  }
  XST_RETURN_NOT_OK(store->PutIndexed("link_dst", IndexSet(std::move(ld))));
  std::vector<std::pair<std::string, XSet>> blobs;
  for (int64_t c = 0; c < g.shape.components; ++c) blobs.emplace_back(BlobName(c), BlobSet(g.blob[c]));
  XST_RETURN_NOT_OK(store->PutBatch(blobs));
  return store->Checkpoint();
}

void RemoveStore(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);
  fs::remove(path + ".wal", ec);
}

/// Every stored set equals the model: each blob, and every index in full.
bool StoreMatchesModel(const Graph& g, const Model& m, int partitions, SetStore* store) {
  for (int64_t c = 0; c < g.shape.components; ++c) {
    Result<XSet> blob = store->Get(BlobName(c));
    if (!blob.ok() || !CheckBlob(m.blob[c], *blob)) return false;
  }
  std::vector<std::pair<int64_t, int64_t>> got, want;
  for (int p = 0; p < partitions; ++p) {
    Result<XSet> al = store->Get(LinkIndexName(p, partitions));
    if (!al.ok() || !PairInts(*al, &got)) return false;
    want.clear();
    for (const auto& link : m.LinksFrom(0, static_cast<int64_t>(m.out.size()) - 1)) {
      if (ComponentOf(link.first) % partitions == p) want.push_back(link);
    }
    if (got != want) return false;
  }
  Result<XSet> ld = store->Get("link_dst");
  if (!ld.ok() || !PairInts(*ld, &got)) return false;
  want.clear();
  for (int64_t i = 0; i < g.links(); ++i) want.emplace_back(kLinkBase + i, g.link_dst[i]);
  if (got != want) return false;
  Result<XSet> ca = store->Get("comp_anchor");
  if (!ca.ok() || !PairInts(*ca, &got)) return false;
  want.clear();
  for (int64_t c = 0; c < g.shape.components; ++c) {
    for (int j = 0; j < g.anchors[c]; ++j) want.emplace_back(c, AnchorId(c, j));
  }
  return got == want;
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const uint64_t n = fs::file_size(path, ec);
  return ec ? 0 : n;
}

/// Encoded bytes of every live stored value.
uint64_t UserBytes(SetStore* store) {
  uint64_t total = 0;
  for (const std::string& name : store->List()) {
    Result<XSet> v = store->Get(name);
    if (v.ok()) total += xst::EncodeXSetToString(*v).size();
  }
  return total;
}

// -- Statistics and output ----------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
  std::string note;
};
using Metrics = std::map<std::string, Metric>;

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

/// Cuts a window into up to kSlices equal time slices with at least
/// `min_per_slice` of its `n` events each (one slice when there are fewer).
size_t SliceCount(size_t n, size_t min_per_slice) {
  return std::clamp<size_t>(n / min_per_slice, 1, kSlices);
}

size_t SliceOf(uint64_t done_ns, uint64_t begin_ns, uint64_t wall_ns, size_t slices) {
  const uint64_t off = done_ns > begin_ns ? done_ns - begin_ns : 0;
  return std::min<size_t>(slices - 1, static_cast<size_t>(static_cast<double>(off) / wall_ns * slices));
}

/// Median and the highest percentile with at least ten samples beyond it
/// (p99 once a slice holds 1000 samples), in microseconds. Each statistic
/// is the median of its values over the window's time slices, so one
/// disturbed second does not move a run's figure.
void AddLatency(Metrics* out, const std::string& prefix,
                const std::vector<std::pair<uint64_t, uint64_t>>& done_and_ns,
                uint64_t begin_ns, uint64_t wall_ns) {
  if (done_and_ns.empty()) return;
  const size_t k = SliceCount(done_and_ns.size(), 1000);
  std::vector<std::vector<uint64_t>> slices(k);
  for (const auto& [done, ns] : done_and_ns) slices[SliceOf(done, begin_ns, wall_ns, k)].push_back(ns);
  std::vector<double> p50s, tails;
  double pct_min = 99;
  for (std::vector<uint64_t>& v : slices) {
    if (v.empty()) continue;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    const double pct = n >= 1000 ? 99.0 : std::max(50.0, 100.0 * (1.0 - 10.0 / static_cast<double>(n)));
    pct_min = std::min(pct_min, pct);
    const size_t idx = std::min(n - 1, static_cast<size_t>(std::ceil(pct / 100.0 * n)) - 1);
    p50s.push_back(n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0);
    tails.push_back(static_cast<double>(v[idx]));
  }
  const std::string note = "n=" + std::to_string(done_and_ns.size()) + " slices=" + std::to_string(k);
  (*out)[prefix + "_p50_us"] = {Median(p50s) / 1e3, "us", note};
  (*out)[prefix + "_p99_us"] = {Median(tails) / 1e3, "us", note + " pct>=" + Num(pct_min)};
}

double CurrentRssMiB() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) / (1 << 20);
}

double PeakRssMiB() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string JsonEscape(const std::string& s) {
  std::string r;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') r += '\\';
    if (ch == '\n') {
      r += "\\n";
      continue;
    }
    r += ch;
  }
  return r;
}

uint64_t CounterValue(const char* name) {
  return xst::obs::MetricsRegistry::Global().GetCounter(name).value();
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Process-wide counters whose window deltas feed the per-layer metrics.
struct CounterSnapshot {
  uint64_t pager_hits = 0, pager_misses = 0, pager_evictions = 0, latch_acq = 0, latch_contended = 0;
  uint64_t chunks_worker = 0, chunks_caller = 0, wal_commits = 0, checkpoints = 0, replayed = 0;
  xst::InternerStats interner;

  /// Adds the change from `before` to `after`.
  void Accumulate(const CounterSnapshot& after, const CounterSnapshot& before) {
    pager_hits += after.pager_hits - before.pager_hits;
    pager_misses += after.pager_misses - before.pager_misses;
    pager_evictions += after.pager_evictions - before.pager_evictions;
    latch_acq += after.latch_acq - before.latch_acq;
    latch_contended += after.latch_contended - before.latch_contended;
    chunks_worker += after.chunks_worker - before.chunks_worker;
    chunks_caller += after.chunks_caller - before.chunks_caller;
    wal_commits += after.wal_commits - before.wal_commits;
    checkpoints += after.checkpoints - before.checkpoints;
    replayed += after.replayed - before.replayed;
    interner.set_count += after.interner.set_count - before.interner.set_count;
    interner.membership_count += after.interner.membership_count - before.interner.membership_count;
  }

  static CounterSnapshot Take() {
    CounterSnapshot s;
    s.pager_hits = CounterValue("pager.fetch.hits");
    s.pager_misses = CounterValue("pager.fetch.misses");
    s.pager_evictions = CounterValue("pager.evictions");
    s.latch_acq = CounterValue("pager.latch.acquisitions");
    s.latch_contended = CounterValue("pager.latch.shard_contention");
    s.chunks_worker = CounterValue("pool.chunks.worker");
    s.chunks_caller = CounterValue("pool.chunks.caller");
    s.wal_commits = CounterValue("wal.commits");
    s.checkpoints = CounterValue("wal.checkpoints");
    s.replayed = CounterValue("wal.recovery.replayed");
    s.interner = xst::Interner::Global().GetStats();
    return s;
  }
};

/// Encoded bytes a write hands to the store (wal.bytes_per_user_byte's base).
uint64_t WrittenUserBytes(uint64_t seed, const Clients& clients, const size_t* from) {
  uint64_t total = 0;
  for (size_t i = 0; i < clients.size(); ++i) {
    for (size_t k = from[i]; k < clients[i]->outcomes.size(); ++k) {
      const Outcome& o = clients[i]->outcomes[k];
      if (!o.ok || !IsWrite(o.req.kind)) continue;
      if (o.req.kind == Kind::kPut) {
        total += xst::EncodeXSetToString(BlobSet(BlobPayload(seed, o.req.comp, o.req.aux))).size();
      } else {
        total += xst::EncodeXSetToString(IntPair(o.req.anchor, o.req.link)).size();
      }
    }
  }
  return total;
}

// -- The run ---------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string dir;
  bool smoke = false;
  std::string spans_path;
};

int Run(const Options& opt) {
  const WorkloadConfig w = MakeWorkload(opt.workload, opt.smoke);
  if (w.name.empty()) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  fs::create_directories(opt.dir);
  const bool traced_run = opt.trace != 0;
  const int partitions = w.write_share > 0 ? w.clients : 1;
  Metrics metrics;

  // Set-up: generate, load, first checkpoint — repeated, median reported.
  const std::string path = (fs::path(opt.dir) / "store.xst").string();
  std::unique_ptr<SetStore> store;
  Graph graph;
  std::vector<double> setup_s;
  const uint64_t setup_start = NowNs();
  for (int rep = 0; rep < (traced_run ? 1 : kMaxSetupRepeats); ++rep) {
    if (rep >= kSetupRepeats && NowNs() - setup_start > 1'000'000'000) break;
    store.reset();
    RemoveStore(path);
    const uint64_t t0 = NowNs();
    graph = Graph::Generate(opt.seed, w.shape);
    Result<std::unique_ptr<SetStore>> opened = SetStore::Open(path, StoreOptions(w, traced_run));
    if (!opened.ok()) {
      std::fprintf(stderr, "open failed: %s\n", opened.status().ToString().c_str());
      return 1;
    }
    store = std::move(*opened);
    Status loaded = Load(graph, partitions, store.get());
    if (!loaded.ok()) {
      std::fprintf(stderr, "load failed: %s\n", loaded.ToString().c_str());
      return 1;
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  std::string setup_note = "median of";
  for (double v : setup_s) setup_note += " " + Num(v);
  metrics["setup_s"] = {Median(setup_s), "s", setup_note};
  const uint32_t store_pages = store->page_count();
  metrics["rss_after_setup_mb"] = {CurrentRssMiB(), "MiB", ""};
  Model model(graph);

  xst::StoreCursorSource store_source(*store);
  TimingCursorSource timed_source(store_source);
  Env env{&graph, partitions, store.get(), traced_run ? static_cast<const xst::CursorSource*>(&timed_source)
                                          : static_cast<const xst::CursorSource*>(&store_source)};

  const Zipf zipf(static_cast<size_t>(w.shape.components / partitions), kZipfSkew);
  std::vector<int64_t> perm(static_cast<size_t>(w.shape.components / partitions));
  std::iota(perm.begin(), perm.end(), 0);
  {
    Rng rng(Mix(opt.seed, 0x7065726d));
    for (size_t i = perm.size(); i > 1; --i) std::swap(perm[i - 1], perm[rng.Below(i)]);
  }
  Clients clients;
  for (int i = 0; i < w.clients; ++i) {
    clients.push_back(std::make_unique<Client>(
        RequestGen(graph, w, zipf, perm, i, partitions, w.write_share == 0)));
  }
  std::vector<size_t> checked(clients.size(), 0);
  uint64_t attempted = 0;
  uint64_t bad = 0;

  auto window = [&](double seconds, bool trace_on) {
    std::vector<size_t> from(clients.size());
    for (size_t i = 0; i < clients.size(); ++i) {
      clients[i]->counts = QueryCounts{};
      from[i] = clients[i]->outcomes.size();
    }
    g_tracing.store(trace_on);
    const uint64_t wall = RunWindow(env, clients, seconds, 0);
    g_tracing.store(false);
    uint64_t n = 0;
    for (size_t i = 0; i < clients.size(); ++i) n += clients[i]->outcomes.size() - from[i];
    attempted += n;
    return std::make_pair(wall, n);
  };

  if (w.analytics) {
    // Warm-up: every distinct analytics query once, checked, then dropped
    // from the window's figures.
    Client& c = *clients[0];
    for (Kind kind : {Kind::kTwoHop, Kind::kWideRange, Kind::kRelProd, Kind::kClosure}) {
      for (uint64_t v = 0; v < kAnalyticsVariants; ++v) {
        Outcome out;
        out.req.kind = kind;
        out.req.aux = v;
        Prepare(env, out.req, &c);
        Execute(env, out.req, &c, &out);
        c.outcomes.push_back(std::move(out));
      }
    }
    attempted += c.outcomes.size();
    bad += CheckOutcomes(graph, &model, clients, checked.data());
    c.outcomes.clear();
    checked.assign(clients.size(), 0);
  }

  if (w.write_share > 0) {
    // Warm-up: let the pool fill and the link churn reach its steady size;
    // checked, then dropped from the window's figures.
    window(std::max(1.0, opt.seconds * 0.15), false);
    bad += CheckOutcomes(graph, &model, clients, checked.data());
    for (const std::unique_ptr<Client>& c : clients) c->outcomes.clear();
    checked.assign(clients.size(), 0);
  }

  double untraced_ops = 0;
  if (!traced_run) {
    const uint64_t begin = NowNs();
    const auto [wall, n] = window(opt.seconds, false);
    // Completed requests per second: the median over the window's slices.
    const size_t k = SliceCount(n, 200);
    std::vector<double> per_slice(k, 0);
    std::map<std::string, std::vector<std::pair<uint64_t, uint64_t>>> lat;
    for (const std::unique_ptr<Client>& c : clients) {
      for (const Outcome& o : c->outcomes) {
        per_slice[SliceOf(o.done_ns, begin, wall, k)] += 1;
        const std::string cls = IsQuery(o.req.kind) ? "query"
                                : o.req.kind == Kind::kGet ? "get"
                                : o.req.kind == Kind::kProbe ? "probe"
                                                             : "commit";
        lat[cls].emplace_back(o.done_ns, o.latency_ns);
      }
    }
    for (double& v : per_slice) v /= static_cast<double>(wall) / 1e9 / static_cast<double>(k);
    untraced_ops = Median(per_slice);
    std::string rates;
    for (double v : per_slice) rates += " " + Num(std::round(v));
    metrics["ops_per_s"] = {untraced_ops, "ops/s", "n=" + std::to_string(n) + " slices:" + rates};
    for (const auto& [cls, v] : lat) AddLatency(&metrics, cls, v, begin, wall);
    bad += CheckOutcomes(graph, &model, clients, checked.data());
  } else {
    // Untraced (U) and traced (T) slices run in the order U T T U, so a
    // steady drift over the run (the store growing under edits) cancels
    // out of the tracing overhead.
    uint64_t wall_u = 0, n_u = 0, wall_t = 0, n_t = 0, user_written = 0;
    CounterSnapshot delta;
    QueryCounts qc;
    Tracer::Drain();
    for (const bool traced : {false, true, true, false}) {
      const std::vector<size_t> from(checked);
      const CounterSnapshot before = CounterSnapshot::Take();
      const auto [wall, n] = window(opt.seconds * 0.175, traced);
      if (traced) {
        delta.Accumulate(CounterSnapshot::Take(), before);
        wall_t += wall;
        n_t += n;
        for (const std::unique_ptr<Client>& c : clients) qc.Add(c->counts);
        user_written += WrittenUserBytes(graph.seed, clients, from.data());
      } else {
        wall_u += wall;
        n_u += n;
      }
      bad += CheckOutcomes(graph, &model, clients, checked.data());
    }
    const ThreadTrace t = Tracer::Drain();
    untraced_ops = Ratio(static_cast<double>(n_u), static_cast<double>(wall_u) / 1e9);
    const double traced_ops = Ratio(static_cast<double>(n_t), static_cast<double>(wall_t) / 1e9);
    const double wall = static_cast<double>(t.request_wall_ns);
    const double q = static_cast<double>(qc.queries);
    const double ops = static_cast<double>(n_t);
    auto self = [&](Layer l) { return static_cast<double>(t.layers[l].self_ns); };
    auto per_query_us = [&](Layer l) { return Ratio(self(l) / 1e3, q); };
    const std::pair<Layer, const char*> front[] = {
        {kParse, "xsp.parse"}, {kOptimize, "xsp.optimize"}, {kCompile, "xsp.compile"}, {kVerify, "xsp.verify"}};
    for (const auto& [layer, name] : front) {
      metrics[std::string(name) + ".us"] = {per_query_us(layer), "us", "self time per query"};
      metrics[std::string(name) + ".share"] = {Ratio(self(layer), wall), "ratio", "of client wall time"};
    }
    metrics["xsp.optimize.rewrites"] = {Ratio(static_cast<double>(qc.rewrites), q), "count", "per query"};
    metrics["xsp.compile.instrs"] = {Ratio(static_cast<double>(qc.instrs), q), "count", "per query"};
    metrics["xsp.vm.self_us"] = {per_query_us(kVm), "us", "VmEval minus nested cursor time, per query"};
    metrics["xsp.vm.share"] = {Ratio(self(kVm), wall), "ratio", ""};
    metrics["xsp.vm.materializations"] = {Ratio(static_cast<double>(qc.materializations), q), "count", "per query"};
    metrics["xsp.vm.intermediate_rows"] = {Ratio(static_cast<double>(qc.intermediate_rows), q), "count", "per query"};
    metrics["xsp.vm.peak_rows"] = {static_cast<double>(qc.peak_rows), "count", "max over the window"};
    const double cw = static_cast<double>(delta.chunks_worker);
    const double cc = static_cast<double>(delta.chunks_caller);
    metrics["pool.worker_chunk_ratio"] = {Ratio(cw, cw + cc), "ratio", "chunks=" + Num(cw + cc)};
    metrics["store.cursor.us"] = {per_query_us(kCursor), "us", "self time per query"};
    metrics["store.cursor.share"] = {Ratio(self(kCursor), wall), "ratio", ""};
    metrics["store.cursor.members"] = {Ratio(static_cast<double>(t.cursor_members), q), "count", "per query"};
    metrics["store.cursor.batches"] = {Ratio(static_cast<double>(t.cursor_batches), q), "count", "per query"};
    const std::pair<Layer, const char*> reads[] = {{kGet, "store.get"}, {kProbe, "store.probe"}};
    for (const auto& [layer, name] : reads) {
      const double calls = static_cast<double>(t.layers[layer].calls);
      metrics[std::string(name) + ".us"] = {Ratio(self(layer) / 1e3, calls), "us", "self time per call, calls=" + Num(calls)};
      metrics[std::string(name) + ".share"] = {Ratio(self(layer), wall), "ratio", ""};
    }
    const double hits = static_cast<double>(delta.pager_hits);
    const double misses = static_cast<double>(delta.pager_misses);
    metrics["pager.hit_rate"] = {Ratio(hits, hits + misses), "ratio", "fetches=" + Num(hits + misses)};
    metrics["pager.misses_per_op"] = {Ratio(misses, ops), "count", ""};
    metrics["pager.evictions_per_op"] = {Ratio(static_cast<double>(delta.pager_evictions), ops), "count", ""};
    const double acq = static_cast<double>(delta.latch_acq);
    metrics["pager.latch.contention_ratio"] = {Ratio(static_cast<double>(delta.latch_contended), acq), "ratio", "acquisitions=" + Num(acq)};
    const double commits = static_cast<double>(delta.wal_commits);
    const double commit_calls = static_cast<double>(t.layers[kCommit].calls);
    metrics["store.commit.self_us"] = {Ratio(self(kCommit) / 1e3, commit_calls), "us", "per write, writes=" + Num(commit_calls)};
    metrics["store.commit.share"] = {Ratio(self(kCommit), wall), "ratio", ""};
    metrics["wal.commits_per_flush"] = {Ratio(commits, static_cast<double>(t.io_wal.flushes)), "ratio", "commits=" + Num(commits)};
    metrics["wal.log_bytes_per_commit"] = {Ratio(static_cast<double>(t.io_wal.write_bytes), commits), "B", ""};
    metrics["wal.bytes_per_user_byte"] = {Ratio(static_cast<double>(t.io_wal.write_bytes + t.io_main.write_bytes), static_cast<double>(user_written)), "ratio", "user bytes=" + std::to_string(user_written)};
    metrics["wal.checkpoints"] = {static_cast<double>(delta.checkpoints), "count", "in the traced window"};
    metrics["io.wal.flushes"] = {static_cast<double>(t.io_wal.flushes), "count", ""};
    metrics["io.wal.flush_us"] = {Ratio(static_cast<double>(t.io_wal.flush_ns) / 1e3, static_cast<double>(t.io_wal.flushes)), "us", "per flush"};
    metrics["io.wal.write_bytes"] = {static_cast<double>(t.io_wal.write_bytes), "B", ""};
    metrics["io.main.reads"] = {static_cast<double>(t.io_main.reads), "count", ""};
    metrics["io.main.read_bytes"] = {static_cast<double>(t.io_main.read_bytes), "B", ""};
    metrics["io.main.write_bytes"] = {static_cast<double>(t.io_main.write_bytes), "B", ""};
    metrics["io.main.flushes"] = {static_cast<double>(t.io_main.flushes), "count", ""};
    metrics["io.share"] = {Ratio(self(kIoMain) + self(kIoWal), wall), "ratio", ""};
    metrics["core.interner.sets_per_op"] = {Ratio(static_cast<double>(delta.interner.set_count), ops), "count", ""};
    metrics["core.interner.members_per_op"] = {Ratio(static_cast<double>(delta.interner.membership_count), ops), "count", ""};
    double attributed = 0;
    for (int l = 0; l < kNumLayers; ++l) attributed += self(static_cast<Layer>(l));
    metrics["ledger.unattributed_share"] = {Ratio(wall - attributed, wall), "ratio", "requests=" + std::to_string(t.requests)};
    metrics["trace.overhead"] = {untraced_ops > 0 ? 1.0 - traced_ops / untraced_ops : 0, "ratio", "untraced ops/s=" + Num(untraced_ops) + " traced=" + Num(traced_ops)};

    // Scaling sweep: the browse read mix, fixed total work, 1/2/4 clients.
    const uint64_t total = opt.smoke ? 400 : 24000;
    for (int n : {1, 2, 4}) {
      Clients sweep;
      for (int i = 0; i < n; ++i) {
        sweep.push_back(std::make_unique<Client>(
            RequestGen(graph, w, zipf, perm, i % partitions, partitions, true)));
        sweep.back()->gen.UseBrowseMix();
      }
      std::vector<size_t> zero(sweep.size(), 0);
      const uint64_t wall_ns = RunWindow(env, sweep, 0, total / n);
      attempted += total / n * n;
      bad += CheckOutcomes(graph, &model, sweep, zero.data());
      metrics["scale.browse.ops_per_s.c" + std::to_string(n)] = {
          Ratio(static_cast<double>(total / n * n), static_cast<double>(wall_ns) / 1e9), "ops/s",
          "fixed total work " + std::to_string(total / n * n)};
    }
  }

  // Epilogue: checkpoint, log a fixed tail of writes, close without a
  // checkpoint, then reopen with log replay. Redo is idempotent, so
  // restoring the saved log before each Open repeats the same replay
  // against the same main file.
  if (Status st = store->Checkpoint(); !st.ok()) {
    std::fprintf(stderr, "checkpoint failed: %s\n", st.ToString().c_str());
    return 1;
  }
  bad += TailWrites(env, &model, kTailWrites);
  attempted += kTailWrites;
  const uint32_t pages_before_close = store->page_count();
  store.reset();
  std::vector<double> reopen_s;
  bool state_ok = true;
  const std::string saved_log = path + ".saved";
  std::error_code ec;
  fs::copy_file(path + ".wal", saved_log, fs::copy_options::overwrite_existing, ec);
  if (ec) {
    std::fprintf(stderr, "saving the log failed: %s\n", ec.message().c_str());
    return 1;
  }
  const CounterSnapshot before_open = CounterSnapshot::Take();
  for (int rep = 0; rep < kReopenRepeats; ++rep) {
    fs::copy_file(saved_log, path + ".wal", fs::copy_options::overwrite_existing, ec);
    if (ec) {
      std::fprintf(stderr, "restoring the log failed: %s\n", ec.message().c_str());
      return 1;
    }
    const uint64_t t0 = NowNs();
    Result<std::unique_ptr<SetStore>> reopened = SetStore::Open(path, StoreOptions(w, false));
    reopen_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!reopened.ok()) {
      std::fprintf(stderr, "reopen failed: %s\n", reopened.status().ToString().c_str());
      return 1;
    }
    if (rep == 0) {
      state_ok = StoreMatchesModel(graph, model, partitions, reopened->get());
      const uint64_t user = UserBytes(reopened->get());
      reopened->reset();
      metrics["space_amp"] = {Ratio(static_cast<double>(FileBytes(path) + FileBytes(path + ".wal")),
                                    static_cast<double>(user)),
                              "ratio", "user bytes=" + std::to_string(user)};
    }
    reopened->reset();
  }
  fs::remove(saved_log, ec);
  const CounterSnapshot after_open = CounterSnapshot::Take();
  metrics["reopen_s"] = {Median(reopen_s), "s", "median of " + std::to_string(kReopenRepeats)};
  if (traced_run) {
    metrics["store.open.us"] = {Median(reopen_s) * 1e6, "us", "median replaying Open"};
    metrics["wal.recovery.replayed_pages"] = {static_cast<double>(after_open.replayed - before_open.replayed) / kReopenRepeats, "count", "per Open"};
  }
  metrics["peak_rss_mb"] = {PeakRssMiB(), "MiB", ""};
  if (!state_ok) ++bad;
  metrics["error_rate"] = {Ratio(static_cast<double>(bad), static_cast<double>(attempted)), "ratio", ""};
  RemoveStore(path);

  if (traced_run && !opt.spans_path.empty()) {
    std::ofstream f(opt.spans_path);
    f << "request,parent,layer,start_ns,end_ns\n";
    for (const SpanRecord& s : Tracer::KeptSpans()) {
      if (s.end_ns == 0) continue;
      f << s.request << ',' << s.parent << ',' << LayerName(s.layer) << ',' << s.start_ns << ',' << s.end_ns << '\n';
    }
  }

  std::ostringstream os;
  os << "{\"meta\": {\"workload\": \"" << w.name << "\", \"why\": \"" << JsonEscape(w.why)
     << "\", \"seed\": " << opt.seed << ", \"held_out_seed\": " << kHeldOutSeed
     << ", \"clients\": " << w.clients << ", \"seconds\": " << Num(opt.seconds)
     << ", \"trace\": " << opt.trace << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"build_type\": \"" << DEXTER_BUILD_TYPE << "\", \"xst_validate_level\": "
     << DEXTER_VALIDATE_LEVEL << ", \"pool_threads\": " << xst::ThreadPool::Global().size()
     << ", \"store_pages\": " << store_pages << ", \"store_pages_at_close\": " << pages_before_close
     << ", \"buffer_pool_pages\": " << StoreOptions(w, false).buffer_pool_pages
     << ", \"components\": " << graph.shape.components << ", \"anchors\": "
     << std::accumulate(graph.anchors.begin(), graph.anchors.end(), int64_t{0})
     << ", \"links\": " << graph.links()
     << ", \"flush_policy\": \"StdioFile::Flush = fflush to the OS page cache; no fsync\"}";
  os << ", \"correct\": " << (bad == 0 ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << bad << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << name << "\": {\"value\": " << Num(m.value) << ", \"unit\": \"" << m.unit << "\"";
    if (!m.note.empty()) os << ", \"note\": \"" << JsonEscape(m.note) << "\"";
    os << "}";
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  return 0;
}

}  // namespace
}  // namespace dexter

int main(int argc, char** argv) {
  dexter::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      opt.trace = std::atoi(value().c_str());
    } else if (a == "--dir") {
      opt.dir = value();
    } else if (a == "--shape") {
      opt.smoke = value() == "smoke";
    } else if (a == "--spans") {
      opt.spans_path = value();
    } else {
      std::fprintf(stderr, "unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  if (opt.workload.empty() || opt.dir.empty() || !(opt.seconds > 0)) {
    std::fprintf(stderr, "usage: dexter_bench --workload W --seed N --seconds S --trace 0|1 --dir D\n");
    return 2;
  }
  return dexter::Run(opt);
}
