// EXPLAIN ANALYZE for XSP plans: compile, verify and run a plan on the VM
// while attributing wall time, output cardinality, rescope-memo traffic,
// and pager traffic to each VM instruction — the measured form of the
// paper's Def 11.1 / Thm 11.2 claim that composed plans win by never
// materializing intermediates.
//
// Attribution rides the VM's VmObserver seam (vm.h), so the numbers here
// are the numbers VmEval produced, not a re-simulation: the stats are
// VmEval's own, the rows of the instructions that interned a non-result
// value sum to exactly VmStats::interned_intermediate_rows, and per-node
// self times partition the total. Each instruction row is labelled with
// its line of the verifier's typed listing (VerifiedProgram::InstrToString).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/xsp/expr.h"
#include "src/xsp/vm.h"

namespace xst {
namespace xsp {

/// \brief One annotated plan node (children in execution order).
struct AnalyzeNode {
  /// "VmProgram[N]" for the root; an instruction's typed listing line for
  /// its children.
  std::string op;
  /// Cardinality of this node's result.
  uint64_t output_cardinality = 0;
  /// True for every instruction that did NOT intern a non-result value, so
  /// MaterializedIntermediateCardinality sums exactly the rows the VM
  /// actually interned before the result — 0 for a fully fused chain.
  bool is_leaf = false;
  /// Wall time including children.
  uint64_t wall_ns = 0;
  /// Wall time minus the children's inclusive time.
  uint64_t self_wall_ns = 0;
  /// Rescope-memo hits/misses during this node (children included).
  uint64_t rescope_memo_hits = 0;
  uint64_t rescope_memo_misses = 0;
  /// Pager traffic (fetch hits + misses + allocations) during this node.
  uint64_t pages_touched = 0;
  std::vector<AnalyzeNode> children;
};

/// \brief A finished EXPLAIN ANALYZE run.
struct AnalyzeResult {
  /// The query result (identical to what VmEval returns).
  XSet value;
  /// The annotated plan tree.
  AnalyzeNode root;
  /// The stats VmEval produced for this run.
  VmStats stats;
  /// Wall time of the whole evaluation.
  uint64_t total_wall_ns = 0;

  /// \brief Sum of output cardinalities over materialized intermediates
  /// (non-root, non-leaf nodes) — matches stats.interned_intermediate_rows.
  uint64_t MaterializedIntermediateCardinality() const;

  /// \brief Multi-line annotated plan tree:
  ///   op  (rows=N wall=NNns self=NNns memo=H/M pages=P)
  std::string Render() const;

  /// \brief JSON object: {"total_wall_ns", "nodes_evaluated",
  /// "intermediate_cardinality", "plan": {recursive node objects}}.
  std::string ToJson() const;
};

/// \brief Compiles, verifies and runs `expr` with per-instruction
/// attribution. Errors are Compile's, Verify's or VmEval's.
Result<AnalyzeResult> ExplainAnalyze(const ExprPtr& expr, const Bindings& bindings);

}  // namespace xsp
}  // namespace xst
