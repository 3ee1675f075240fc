// The reference evaluator for XSP plans, with execution statistics.
//
// Library and tool paths run plans on the compiled VM (compile.h / vm.h):
// RunScript, rel::Database views, EXPLAIN ANALYZE and xstctl. Eval is the
// tree-walking definition of what a plan means — bottom-up and
// materializing, one operator call per node — kept as the oracle the VM is
// checked against (the differential fuzz, the verifier mutation oracle)
// and as the staged baseline that bench_vm, bench_compose and the examples
// measure. EvalStats records how much intermediate state a plan touched,
// which is what the optimizer benchmarks compare (composed plans vs. staged
// plans with materialized intermediates).

#pragma once

#include "src/common/result.h"
#include "src/xsp/expr.h"

namespace xst {
namespace xsp {

struct EvalStats {
  uint64_t nodes_evaluated = 0;
  /// Sum of the cardinalities of every intermediate (non-root) result — the
  /// materialization cost a composed plan avoids.
  uint64_t intermediate_cardinality = 0;
  /// Largest single intermediate.
  uint64_t peak_cardinality = 0;
};

/// \brief Evaluates `expr` against `bindings`. `stats` may be null.
Result<XSet> Eval(const ExprPtr& expr, const Bindings& bindings, EvalStats* stats = nullptr);

/// \brief Multi-line EXPLAIN rendering of a plan.
std::string Explain(const ExprPtr& expr);

}  // namespace xsp
}  // namespace xst
