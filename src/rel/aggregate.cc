#include "src/rel/aggregate.h"

#include <limits>
#include <map>

#include "src/common/check.h"
#include "src/common/macros.h"
#include "src/common/thread_pool.h"
#include "src/core/order.h"
#include "src/ops/tuple.h"

namespace xst {
namespace rel {

namespace {

struct Accumulator {
  int64_t count = 0;
  int64_t sum = 0;
  bool sum_overflow = false;
  int64_t min = std::numeric_limits<int64_t>::max();
  int64_t max = std::numeric_limits<int64_t>::min();

  void Add(int64_t v) {
    ++count;
    if (__builtin_add_overflow(sum, v, &sum)) sum_overflow = true;
    if (v < min) min = v;
    if (v > max) max = v;
  }

  // Folds another partial accumulator in (for merging per-chunk states).
  void Merge(const Accumulator& o) {
    count += o.count;
    if (__builtin_add_overflow(sum, o.sum, &sum)) sum_overflow = true;
    sum_overflow |= o.sum_overflow;
    if (o.min < min) min = o.min;
    if (o.max > max) max = o.max;
  }
};

}  // namespace

Result<Relation> GroupBy(const Relation& r, const std::vector<std::string>& keys,
                         const std::vector<AggSpec>& aggs) {
  if (aggs.empty()) return Status::Invalid("GroupBy: at least one aggregate required");
  // Resolve positions and validate types up front.
  std::vector<size_t> key_pos;
  std::vector<Attribute> out_attrs;
  for (const std::string& key : keys) {
    XST_ASSIGN_OR_RAISE(size_t pos, r.schema().IndexOf(key));
    key_pos.push_back(pos);
    out_attrs.push_back(r.schema().attribute(pos));
  }
  std::vector<size_t> agg_pos(aggs.size(), 0);
  for (size_t i = 0; i < aggs.size(); ++i) {
    const AggSpec& agg = aggs[i];
    if (agg.as.empty()) return Status::Invalid("GroupBy: aggregate output name required");
    if (agg.kind != AggKind::kCount) {
      XST_ASSIGN_OR_RAISE(size_t pos, r.schema().IndexOf(agg.attr));
      if (r.schema().attribute(pos).type != AttrType::kInt) {
        return Status::TypeError("GroupBy: aggregate '" + agg.as +
                                 "' requires an int attribute, got " +
                                 AttrTypeName(r.schema().attribute(pos).type));
      }
      agg_pos[i] = pos;
    }
    out_attrs.push_back({agg.as, AttrType::kInt});
  }
  XST_ASSIGN_OR_RAISE(Schema out_schema, Schema::Make(std::move(out_attrs)));

  // Partition: group key (as a tuple of key values) → per-aggregate state.
  // Chunks accumulate into local block maps in parallel; partial accumulators
  // merge associatively, so the merged result is order-independent. A chunk
  // stops at its first non-tuple member; the first error in chunk order wins.
  using Blocks = std::map<XSet, std::vector<Accumulator>, XSetLess>;
  struct Chunk {
    Blocks blocks;
    Status error = Status::OK();
  };
  auto tuples = r.tuples().members();
  Chunk first;
  std::vector<Chunk> rest = ParallelCollect(
      tuples.size(), /*min_chunk=*/1024, &first, [&](size_t lo, size_t hi, Chunk* dst) {
        std::vector<XSet> parts;
        for (size_t t = lo; t < hi; ++t) {
          const Membership& m = tuples[t];
          if (!TupleElements(m.element, &parts)) {
            dst->error = Status::TypeError("GroupBy: non-tuple member " + m.element.ToString());
            return;
          }
          std::vector<XSet> key_values;
          key_values.reserve(key_pos.size());
          for (size_t pos : key_pos) key_values.push_back(parts[pos]);
          auto [it, inserted] = dst->blocks.try_emplace(XSet::Tuple(key_values), aggs.size());
          for (size_t i = 0; i < aggs.size(); ++i) {
            if (aggs[i].kind == AggKind::kCount) {
              it->second[i].Add(0);
            } else {
              it->second[i].Add(parts[agg_pos[i]].int_value());
            }
          }
        }
      });
  XST_RETURN_NOT_OK(first.error);
  Blocks& blocks = first.blocks;
  for (Chunk& part : rest) {
    XST_RETURN_NOT_OK(part.error);
    for (auto& [key, accs] : part.blocks) {
      auto [it, inserted] = blocks.try_emplace(key, std::move(accs));
      if (inserted) continue;
      for (size_t i = 0; i < aggs.size(); ++i) it->second[i].Merge(accs[i]);
    }
  }

  // Fold each block to one output tuple.
  std::vector<std::vector<XSet>> rows;
  rows.reserve(blocks.size());
  std::vector<XSet> parts;
  for (const auto& [key, accs] : blocks) {
    std::vector<XSet> row;
    TupleElements(key, &parts);
    row.insert(row.end(), parts.begin(), parts.end());
    for (size_t i = 0; i < aggs.size(); ++i) {
      const Accumulator& acc = accs[i];
      switch (aggs[i].kind) {
        case AggKind::kCount:
          row.push_back(XSet::Int(acc.count));
          break;
        case AggKind::kSum:
          if (acc.sum_overflow) {
            return Status::Invalid("GroupBy: sum overflow in aggregate '" + aggs[i].as +
                                   "'");
          }
          row.push_back(XSet::Int(acc.sum));
          break;
        case AggKind::kMin:
          row.push_back(XSet::Int(acc.min));
          break;
        case AggKind::kMax:
          row.push_back(XSet::Int(acc.max));
          break;
      }
    }
    rows.push_back(std::move(row));
  }
  XST_ASSIGN_OR_RAISE(Relation result, Relation::FromRows(std::move(out_schema), rows));
  (void)XST_VALIDATE(result.tuples());
  return result;
}

Result<Relation> Aggregate(const Relation& r, const std::vector<AggSpec>& aggs) {
  if (aggs.empty()) return Status::Invalid("Aggregate: at least one aggregate required");
  if (r.empty()) {
    // SQL-style choice, documented: aggregating an empty relation yields an
    // empty relation (no block exists to fold).
    std::vector<Attribute> out_attrs;
    for (const AggSpec& agg : aggs) out_attrs.push_back({agg.as, AttrType::kInt});
    XST_ASSIGN_OR_RAISE(Schema schema, Schema::Make(std::move(out_attrs)));
    return Relation::Empty(std::move(schema));
  }
  return GroupBy(r, {}, aggs);
}

}  // namespace rel
}  // namespace xst
