#include "src/xsp/eval.h"

#include <algorithm>

#include "src/common/macros.h"
#include "src/obs/trace.h"
#include "src/ops/boolean.h"
#include "src/ops/closure.h"
#include "src/ops/domain.h"
#include "src/ops/image.h"
#include "src/ops/relative.h"
#include "src/ops/restrict.h"

namespace xst {
namespace xsp {

namespace {

Result<XSet> EvalImpl(const ExprPtr& expr, const Bindings& bindings, EvalStats* stats,
                      bool is_root) {
  if (expr == nullptr) return Status::Invalid("null expression");
  ++stats->nodes_evaluated;

  // Leaves are base data, not materialized intermediates: only computed
  // non-root results count toward the intermediate totals.
  bool is_leaf =
      expr->kind() == ExprKind::kLiteral || expr->kind() == ExprKind::kNamed;
  auto record = [&, is_leaf](XSet value) -> XSet {
    if (!is_root && !is_leaf) {
      stats->intermediate_cardinality += value.cardinality();
      stats->peak_cardinality = std::max<uint64_t>(stats->peak_cardinality,
                                                   value.cardinality());
    }
    return value;
  };

  switch (expr->kind()) {
    case ExprKind::kLiteral:
      return record(expr->literal());
    case ExprKind::kNamed: {
      auto it = bindings.find(expr->name());
      if (it == bindings.end()) {
        return Status::NotFound("unbound name '" + expr->name() + "'");
      }
      return record(it->second);
    }
    case ExprKind::kUnion: {
      XST_ASSIGN_OR_RAISE(XSet a, EvalImpl(expr->child(0), bindings, stats, false));
      XST_ASSIGN_OR_RAISE(XSet b, EvalImpl(expr->child(1), bindings, stats, false));
      return record(Union(a, b));
    }
    case ExprKind::kIntersect: {
      XST_ASSIGN_OR_RAISE(XSet a, EvalImpl(expr->child(0), bindings, stats, false));
      XST_ASSIGN_OR_RAISE(XSet b, EvalImpl(expr->child(1), bindings, stats, false));
      return record(Intersect(a, b));
    }
    case ExprKind::kDifference: {
      XST_ASSIGN_OR_RAISE(XSet a, EvalImpl(expr->child(0), bindings, stats, false));
      XST_ASSIGN_OR_RAISE(XSet b, EvalImpl(expr->child(1), bindings, stats, false));
      return record(Difference(a, b));
    }
    case ExprKind::kDomain: {
      XST_ASSIGN_OR_RAISE(XSet r, EvalImpl(expr->child(0), bindings, stats, false));
      return record(SigmaDomain(r, expr->sigma().s1));
    }
    case ExprKind::kRestrict: {
      XST_ASSIGN_OR_RAISE(XSet r, EvalImpl(expr->child(0), bindings, stats, false));
      XST_ASSIGN_OR_RAISE(XSet a, EvalImpl(expr->child(1), bindings, stats, false));
      return record(SigmaRestrict(r, expr->sigma().s1, a));
    }
    case ExprKind::kImage: {
      XST_ASSIGN_OR_RAISE(XSet r, EvalImpl(expr->child(0), bindings, stats, false));
      XST_ASSIGN_OR_RAISE(XSet a, EvalImpl(expr->child(1), bindings, stats, false));
      return record(Image(r, a, expr->sigma()));
    }
    case ExprKind::kRelProduct: {
      XST_ASSIGN_OR_RAISE(XSet f, EvalImpl(expr->child(0), bindings, stats, false));
      XST_ASSIGN_OR_RAISE(XSet g, EvalImpl(expr->child(1), bindings, stats, false));
      return record(RelativeProduct(f, g, expr->sigma(), expr->omega()));
    }
    case ExprKind::kClosure: {
      XST_ASSIGN_OR_RAISE(XSet r, EvalImpl(expr->child(0), bindings, stats, false));
      Result<XSet> closure = TransitiveClosure(r);
      if (!closure.ok()) return closure.status();
      return record(*closure);
    }
    case ExprKind::kRange: {
      XST_ASSIGN_OR_RAISE(XSet r, EvalImpl(expr->child(0), bindings, stats, false));
      return record(ElementRangeRestrict(r, expr->sigma().s1, expr->sigma().s2));
    }
  }
  return Status::Invalid("unknown expression kind");
}

void ExplainImpl(const ExprPtr& expr, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  if (expr == nullptr) {
    out->append("(null)\n");
    return;
  }
  switch (expr->kind()) {
    case ExprKind::kLiteral:
    case ExprKind::kNamed:
      out->append(expr->ToString());
      out->push_back('\n');
      return;
    default:
      break;
  }
  // Operator head without the inlined children.
  std::string head = expr->ToString();
  out->append(head.substr(0, head.find('(')));
  out->push_back('\n');
  for (const ExprPtr& child : expr->children()) {
    ExplainImpl(child, depth + 1, out);
  }
}

}  // namespace

Result<XSet> Eval(const ExprPtr& expr, const Bindings& bindings, EvalStats* stats) {
  XST_TRACE_SPAN("xsp.eval");
  EvalStats unused;
  return EvalImpl(expr, bindings, stats != nullptr ? stats : &unused, /*is_root=*/true);
}

std::string Explain(const ExprPtr& expr) {
  std::string out;
  ExplainImpl(expr, 0, &out);
  return out;
}

}  // namespace xsp
}  // namespace xst
