#include "src/rel/algebra.h"

#include "src/common/check.h"
#include "src/common/macros.h"
#include "src/common/thread_pool.h"
#include "src/core/atom.h"
#include "src/core/order.h"
#include "src/ops/boolean.h"
#include "src/ops/domain.h"
#include "src/ops/product.h"
#include "src/ops/relative.h"
#include "src/ops/restrict.h"
#include "src/ops/span_kernels.h"

namespace xst {
namespace rel {

namespace {

using lit::Spec;

// 1-based position of `attr` in `schema`.
Result<int64_t> Position(const Schema& schema, const std::string& attr) {
  XST_ASSIGN_OR_RAISE(size_t index, schema.IndexOf(attr));
  return static_cast<int64_t>(index + 1);
}

Status RequireSameSchema(const Relation& r, const Relation& s, const char* op) {
  if (!(r.schema() == s.schema())) {
    return Status::Invalid(std::string(op) + ": schema mismatch " + r.schema().ToString() +
                           " vs " + s.schema().ToString());
  }
  return Status::OK();
}

}  // namespace

Result<Relation> Select(const Relation& r, const std::string& attr, const XSet& value) {
  return SelectIn(r, attr, {value});
}

Result<Relation> SelectIn(const Relation& r, const std::string& attr,
                          const std::vector<XSet>& values) {
  XST_ASSIGN_OR_RAISE(int64_t pos, Position(r.schema(), attr));
  // σ₁ = {pos¹}: probe values embed at `pos`; probes are 1-tuples ⟨v⟩.
  XSet sigma1 = Spec({{pos, 1}});
  std::vector<XSet> probes;
  probes.reserve(values.size());
  for (const XSet& v : values) probes.push_back(XSet::Tuple({v}));
  XSet selected = SigmaRestrict(r.tuples(), sigma1, XSet::Classical(probes));
  return Relation::Make(r.schema(), XST_VALIDATE(selected));
}

Result<Relation> SelectRange(const Relation& r, const std::string& attr, int64_t lo,
                             int64_t hi) {
  XST_ASSIGN_OR_RAISE(size_t index, r.schema().IndexOf(attr));
  if (r.schema().attribute(index).type != AttrType::kInt) {
    return Status::TypeError("SelectRange: attribute '" + attr + "' is not int");
  }
  if (lo > hi) return Relation::Empty(r.schema());
  // Materializing the interval as a probe set only pays off while it is
  // comparable to the relation; wide intervals scan with a predicate.
  if (hi - lo + 1 > kMaxRangeProbes ||
      hi - lo + 1 > static_cast<int64_t>(2 * r.size() + 16)) {
    return SelectWhere(r, attr, [lo, hi](const XSet& v) {
      return v.is_int() && v.int_value() >= lo && v.int_value() <= hi;
    });
  }
  std::vector<XSet> values;
  values.reserve(static_cast<size_t>(hi - lo + 1));
  for (int64_t v = lo; v <= hi; ++v) values.push_back(XSet::Int(v));
  return SelectIn(r, attr, values);
}

Result<Relation> SelectWhere(const Relation& r, const std::string& attr,
                             const std::function<bool(const XSet&)>& predicate) {
  XST_ASSIGN_OR_RAISE(int64_t pos, Position(r.schema(), attr));
  XSet position = XSet::Int(pos);
  // Parallel filter whose chunks come back in order, so the kept tuples are
  // an ordered subsequence of a canonical list: canonical.
  auto ms = r.tuples().members();
  std::vector<Membership> kept;
  std::vector<std::vector<Membership>> rest = ParallelCollect(
      ms.size(), kSpanGrain, &kept, [&](size_t lo, size_t hi, std::vector<Membership>* dst) {
        for (size_t i = lo; i < hi; ++i) {
          std::vector<XSet> values = ms[i].element.ElementsWithScope(position);
          if (values.size() == 1 && predicate(values[0])) dst->push_back(ms[i]);
        }
      });
  for (const std::vector<Membership>& part : rest) {
    kept.insert(kept.end(), part.begin(), part.end());
  }
  XST_DCHECK(IsCanonicalMemberList(kept));
  return Relation::Make(r.schema(), XST_VALIDATE(XSet::FromSortedMembers(std::move(kept))));
}

Result<Relation> Project(const Relation& r, const std::vector<std::string>& attrs) {
  if (attrs.empty()) return Status::Invalid("project: attribute list must be non-empty");
  std::vector<std::pair<int64_t, int64_t>> mapping;
  std::vector<Attribute> out_attrs;
  for (size_t i = 0; i < attrs.size(); ++i) {
    XST_ASSIGN_OR_RAISE(size_t index, r.schema().IndexOf(attrs[i]));
    mapping.push_back({static_cast<int64_t>(index + 1), static_cast<int64_t>(i + 1)});
    out_attrs.push_back(r.schema().attribute(index));
  }
  XSet projected = SigmaDomain(r.tuples(), Spec(mapping));
  XST_ASSIGN_OR_RAISE(Schema schema, Schema::Make(std::move(out_attrs)));
  return Relation::Make(std::move(schema), XST_VALIDATE(projected));
}

Result<Relation> Rename(const Relation& r, const std::string& from, const std::string& to) {
  XST_ASSIGN_OR_RAISE(size_t index, r.schema().IndexOf(from));
  std::vector<Attribute> attrs = r.schema().attributes();
  attrs[index].name = to;
  XST_ASSIGN_OR_RAISE(Schema schema, Schema::Make(std::move(attrs)));
  return Relation::Make(std::move(schema), r.tuples());
}

namespace {

// Assembles the Def 10.1 specifications for a key-based join of r and s.
struct JoinSpecs {
  Sigma sigma;  // governs r
  Sigma omega;  // governs s
  std::vector<Attribute> out_attrs;
};

Result<JoinSpecs> MakeJoinSpecs(const Relation& r, const Relation& s,
                                const std::vector<std::string>& keys,
                                bool keep_right_columns) {
  JoinSpecs specs;
  const int64_t n = static_cast<int64_t>(r.schema().arity());
  // σ₁: keep every left column in place.
  std::vector<std::pair<int64_t, int64_t>> sigma1;
  for (int64_t i = 1; i <= n; ++i) sigma1.push_back({i, i});
  // σ₂ / ω₁: the key columns of each side, aligned at positions 1..|K|.
  std::vector<std::pair<int64_t, int64_t>> sigma2, omega1;
  for (size_t j = 0; j < keys.size(); ++j) {
    XST_ASSIGN_OR_RAISE(int64_t left_pos, Position(r.schema(), keys[j]));
    XST_ASSIGN_OR_RAISE(int64_t right_pos, Position(s.schema(), keys[j]));
    sigma2.push_back({left_pos, static_cast<int64_t>(j + 1)});
    omega1.push_back({right_pos, static_cast<int64_t>(j + 1)});
  }
  // ω₂: surviving right columns appended after the left columns.
  std::vector<std::pair<int64_t, int64_t>> omega2;
  specs.out_attrs = r.schema().attributes();
  if (keep_right_columns) {
    int64_t next = n + 1;
    for (size_t i = 0; i < s.schema().arity(); ++i) {
      const Attribute& attr = s.schema().attribute(i);
      bool is_key = false;
      for (const std::string& k : keys) is_key |= (attr.name == k);
      if (is_key) continue;
      omega2.push_back({static_cast<int64_t>(i + 1), next++});
      specs.out_attrs.push_back(attr);
    }
  }
  specs.sigma = Sigma{Spec(sigma1), Spec(sigma2)};
  specs.omega = Sigma{Spec(omega1), Spec(omega2)};
  return specs;
}

}  // namespace

Result<Relation> NaturalJoin(const Relation& r, const Relation& s) {
  std::vector<std::string> keys = r.schema().CommonAttributes(s.schema());
  if (keys.empty()) {
    return Status::Invalid("natural join: schemas share no attribute (" +
                           r.schema().ToString() + " vs " + s.schema().ToString() +
                           "); use CrossJoin");
  }
  XST_ASSIGN_OR_RAISE(JoinSpecs specs, MakeJoinSpecs(r, s, keys, true));
  XSet joined = RelativeProduct(r.tuples(), s.tuples(), specs.sigma, specs.omega);
  XST_ASSIGN_OR_RAISE(Schema schema, Schema::Make(std::move(specs.out_attrs)));
  return Relation::Make(std::move(schema), XST_VALIDATE(joined));
}

Result<Relation> SemiJoin(const Relation& r, const Relation& s) {
  std::vector<std::string> keys = r.schema().CommonAttributes(s.schema());
  if (keys.empty()) {
    return Status::Invalid("semijoin: schemas share no attribute");
  }
  XST_ASSIGN_OR_RAISE(JoinSpecs specs, MakeJoinSpecs(r, s, keys, false));
  XSet matched = RelativeProduct(r.tuples(), s.tuples(), specs.sigma, specs.omega);
  return Relation::Make(r.schema(), XST_VALIDATE(matched));
}

Result<Relation> CrossJoin(const Relation& r, const Relation& s) {
  if (!r.schema().CommonAttributes(s.schema()).empty()) {
    return Status::Invalid("cross join: schemas share attribute names; rename first");
  }
  XST_ASSIGN_OR_RAISE(XSet product, CrossProduct(r.tuples(), s.tuples()));
  std::vector<Attribute> attrs = r.schema().attributes();
  for (const Attribute& attr : s.schema().attributes()) attrs.push_back(attr);
  XST_ASSIGN_OR_RAISE(Schema schema, Schema::Make(std::move(attrs)));
  return Relation::Make(std::move(schema), product);
}

Result<Relation> UnionRel(const Relation& r, const Relation& s) {
  XST_RETURN_NOT_OK(RequireSameSchema(r, s, "union"));
  return Relation::Make(r.schema(), Union(r.tuples(), s.tuples()));
}

Result<Relation> IntersectRel(const Relation& r, const Relation& s) {
  XST_RETURN_NOT_OK(RequireSameSchema(r, s, "intersect"));
  return Relation::Make(r.schema(), Intersect(r.tuples(), s.tuples()));
}

Result<Relation> DifferenceRel(const Relation& r, const Relation& s) {
  XST_RETURN_NOT_OK(RequireSameSchema(r, s, "difference"));
  return Relation::Make(r.schema(), Difference(r.tuples(), s.tuples()));
}

}  // namespace rel
}  // namespace xst
