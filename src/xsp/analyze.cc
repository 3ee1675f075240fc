#include "src/xsp/analyze.h"

#include <utility>

#include "src/common/macros.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/ops/rescope.h"
#include "src/store/pager.h"
#include "src/xsp/compile.h"
#include "src/xsp/verify.h"
#include "src/xsp/vm.h"

namespace xst {
namespace xsp {

namespace {

// Counter deltas are per-process, not per-thread: attribution is exact for
// single-threaded evaluation and approximate when pool workers run chunks
// of a kernel concurrently (their memo probes still land in the enclosing
// node's window, which is the node that spawned them).
uint64_t MemoHitsNow() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter(xst::internal::kRescopeMemoHitsCounter);
  return c.value();
}

uint64_t MemoMissesNow() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter(xst::internal::kRescopeMemoMissesCounter);
  return c.value();
}

uint64_t PagesTouchedNow() {
  static obs::Counter& hits =
      obs::MetricsRegistry::Global().GetCounter(xst::internal::kPagerHitsCounter);
  static obs::Counter& misses =
      obs::MetricsRegistry::Global().GetCounter(xst::internal::kPagerMissesCounter);
  static obs::Counter& allocs =
      obs::MetricsRegistry::Global().GetCounter(xst::internal::kPagerAllocationsCounter);
  return hits.value() + misses.value() + allocs.value();
}

// Per-instruction attribution: one flat AnalyzeNode per opcode dispatch,
// labeled with its typed listing line, timed by the VM itself (self ==
// wall for straight-line code) and window-delta'd against the memo/pager
// counters. Labels are rendered before the run, so no listing work lands
// inside the timed total.
class VmAnalyzer : public VmObserver {
 public:
  explicit VmAnalyzer(const VerifiedProgram& verified) {
    for (size_t pc = 0; pc < verified.program().code.size(); ++pc) {
      labels_.push_back(verified.InstrToString(pc));
    }
  }

  void OnInstrStart(size_t pc) override {
    (void)pc;
    memo_hits0_ = MemoHitsNow();
    memo_misses0_ = MemoMissesNow();
    pages0_ = PagesTouchedNow();
  }

  void OnInstr(size_t pc, const Instr& instr, uint64_t out_rows, bool out_interned,
               bool interned_intermediate, uint64_t self_ns) override {
    (void)instr;
    (void)out_interned;
    AnalyzeNode node;
    node.op = labels_[pc];
    node.output_cardinality = out_rows;
    node.is_leaf = !interned_intermediate;
    node.wall_ns = self_ns;
    node.self_wall_ns = self_ns;
    node.rescope_memo_hits = MemoHitsNow() - memo_hits0_;
    node.rescope_memo_misses = MemoMissesNow() - memo_misses0_;
    node.pages_touched = PagesTouchedNow() - pages0_;
    instrs_.push_back(std::move(node));
  }

  // The synthetic root: the whole program, with the per-instruction nodes
  // as children in execution order.
  AnalyzeNode BuildRoot(uint64_t result_rows, uint64_t total_wall_ns) {
    AnalyzeNode root;
    root.op = "VmProgram[" + std::to_string(instrs_.size()) + "]";
    root.output_cardinality = result_rows;
    root.is_leaf = false;
    root.wall_ns = total_wall_ns;
    uint64_t children_ns = 0;
    for (const AnalyzeNode& child : instrs_) children_ns += child.wall_ns;
    root.self_wall_ns = total_wall_ns > children_ns ? total_wall_ns - children_ns : 0;
    root.children = std::move(instrs_);
    return root;
  }

 private:
  std::vector<std::string> labels_;
  std::vector<AnalyzeNode> instrs_;
  uint64_t memo_hits0_ = 0;
  uint64_t memo_misses0_ = 0;
  uint64_t pages0_ = 0;
};

uint64_t SumIntermediates(const AnalyzeNode& node, bool is_root) {
  uint64_t total = 0;
  if (!is_root && !node.is_leaf) total += node.output_cardinality;
  for (const AnalyzeNode& child : node.children) {
    total += SumIntermediates(child, /*is_root=*/false);
  }
  return total;
}

void RenderNode(const AnalyzeNode& node, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(node.op);
  out->append("  (rows=").append(std::to_string(node.output_cardinality));
  out->append(" wall=").append(std::to_string(node.wall_ns)).append("ns");
  out->append(" self=").append(std::to_string(node.self_wall_ns)).append("ns");
  out->append(" memo=").append(std::to_string(node.rescope_memo_hits));
  out->append("/").append(std::to_string(node.rescope_memo_misses));
  out->append(" pages=").append(std::to_string(node.pages_touched));
  out->append(")\n");
  for (const AnalyzeNode& child : node.children) RenderNode(child, depth + 1, out);
}

void AppendJsonEscaped(const std::string& s, std::string* out) {
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
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out->push_back(' ');
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void NodeToJson(const AnalyzeNode& node, std::string* out) {
  out->append("{\"op\": ");
  AppendJsonEscaped(node.op, out);
  out->append(", \"rows\": ").append(std::to_string(node.output_cardinality));
  out->append(", \"leaf\": ").append(node.is_leaf ? "true" : "false");
  out->append(", \"wall_ns\": ").append(std::to_string(node.wall_ns));
  out->append(", \"self_wall_ns\": ").append(std::to_string(node.self_wall_ns));
  out->append(", \"memo_hits\": ").append(std::to_string(node.rescope_memo_hits));
  out->append(", \"memo_misses\": ").append(std::to_string(node.rescope_memo_misses));
  out->append(", \"pages\": ").append(std::to_string(node.pages_touched));
  out->append(", \"children\": [");
  for (size_t i = 0; i < node.children.size(); ++i) {
    if (i != 0) out->append(", ");
    NodeToJson(node.children[i], out);
  }
  out->append("]}");
}

}  // namespace

uint64_t AnalyzeResult::MaterializedIntermediateCardinality() const {
  return SumIntermediates(root, /*is_root=*/true);
}

std::string AnalyzeResult::Render() const {
  std::string out;
  RenderNode(root, 0, &out);
  out.append("total: ").append(std::to_string(total_wall_ns)).append("ns, ");
  out.append(std::to_string(stats.instructions)).append(" nodes, ");
  out.append("intermediate rows: ")
      .append(std::to_string(stats.interned_intermediate_rows));
  out.append("\n");
  return out;
}

std::string AnalyzeResult::ToJson() const {
  std::string out = "{\"total_wall_ns\": ";
  out.append(std::to_string(total_wall_ns));
  out.append(", \"nodes_evaluated\": ").append(std::to_string(stats.instructions));
  out.append(", \"intermediate_cardinality\": ")
      .append(std::to_string(stats.interned_intermediate_rows));
  out.append(", \"plan\": ");
  NodeToJson(root, &out);
  out.append("}");
  return out;
}

Result<AnalyzeResult> ExplainAnalyze(const ExprPtr& expr, const Bindings& bindings) {
  XST_TRACE_SPAN("xsp.explain_analyze");
  XST_ASSIGN_OR_RAISE(Program program, Compile(expr));
  // Verify unconditionally here (EXPLAIN is diagnostic, not a hot path):
  // the proof's typed listing is what labels the per-instruction rows.
  XST_ASSIGN_OR_RAISE(VerifiedProgram verified, Verify(std::move(program)));
  VmAnalyzer analyzer(verified);
  AnalyzeResult result;
  VmContext ctx;
  const uint64_t start = obs::MonotonicNowNs();
  Result<XSet> value =
      VmEval(verified.program(), bindings, &ctx, &result.stats, &analyzer);
  result.total_wall_ns = obs::MonotonicNowNs() - start;
  if (!value.ok()) return value.status();
  result.value = std::move(*value);
  result.root = analyzer.BuildRoot(result.value.cardinality(), result.total_wall_ns);
  return result;
}

}  // namespace xsp
}  // namespace xst
