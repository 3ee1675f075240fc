// The relational layer: schemas, relations, and the XST-compiled algebra,
// cross-checked against the record-at-a-time baseline engine on identical
// generated data.

#include <gtest/gtest.h>

#include "src/rel/algebra.h"
#include "src/rel/generator.h"
#include "src/rel/record.h"
#include "tests/testing.h"

namespace xst {
namespace {

using rel::AttrType;
using rel::Relation;
using rel::Schema;
using testing::X;

Schema TestSchema() {
  return *Schema::Make({{"id", AttrType::kInt},
                        {"name", AttrType::kSymbol},
                        {"score", AttrType::kInt}});
}

Relation TestRelation() {
  return *Relation::FromRows(
      TestSchema(), {{XSet::Int(1), XSet::Symbol("ann"), XSet::Int(10)},
                     {XSet::Int(2), XSet::Symbol("bob"), XSet::Int(20)},
                     {XSet::Int(3), XSet::Symbol("cho"), XSet::Int(20)}});
}

TEST(SchemaTest, MakeValidates) {
  EXPECT_TRUE(Schema::Make({{"a", AttrType::kInt}, {"a", AttrType::kInt}})
                  .status()
                  .IsInvalid());
  EXPECT_TRUE(Schema::Make({{"", AttrType::kInt}}).status().IsInvalid());
  EXPECT_TRUE(Schema::Make({}).ok());
}

TEST(SchemaTest, Lookup) {
  Schema s = TestSchema();
  EXPECT_EQ(*s.IndexOf("score"), 2u);
  EXPECT_TRUE(s.IndexOf("nope").status().IsNotFound());
  EXPECT_TRUE(s.Contains("name"));
  EXPECT_EQ(s.ToString(), "(id: int, name: symbol, score: int)");
}

TEST(SchemaTest, TupleValidation) {
  Schema s = TestSchema();
  EXPECT_TRUE(s.ValidateTuple(X("<1, ann, 10>")).ok());
  EXPECT_TRUE(s.ValidateTuple(X("<1, ann>")).IsTypeError());          // arity
  EXPECT_TRUE(s.ValidateTuple(X("<x, ann, 10>")).IsTypeError());      // type
  EXPECT_TRUE(s.ValidateTuple(X("{1^1, ann^3}")).IsTypeError());      // not a tuple
  EXPECT_TRUE(s.ValidateTuple(XSet::Int(1)).IsTypeError());
}

TEST(SchemaTest, CommonAttributes) {
  Schema a = *Schema::Make({{"x", AttrType::kInt}, {"y", AttrType::kInt}});
  Schema b = *Schema::Make({{"y", AttrType::kInt}, {"z", AttrType::kInt}});
  EXPECT_EQ(a.CommonAttributes(b), std::vector<std::string>{"y"});
  EXPECT_TRUE(b.CommonAttributes(*Schema::Make({})).empty());
}

TEST(RelationTest, MakeValidatesMembers) {
  EXPECT_TRUE(Relation::Make(TestSchema(), X("{<1, ann, 10>}")).ok());
  EXPECT_TRUE(Relation::Make(TestSchema(), X("{<1, ann>}")).status().IsTypeError());
  EXPECT_TRUE(Relation::Make(TestSchema(), X("{<1, ann, 10>^<s, s, s>}"))
                  .status()
                  .IsTypeError());  // scoped member
  EXPECT_TRUE(Relation::Make(TestSchema(), XSet::Int(1)).status().IsTypeError());
}

TEST(RelationTest, RowsRoundTrip) {
  Relation r = TestRelation();
  EXPECT_EQ(r.size(), 3u);
  std::vector<std::vector<XSet>> rows = r.Rows();
  ASSERT_EQ(rows.size(), 3u);
  Relation again = *Relation::FromRows(TestSchema(), rows);
  EXPECT_EQ(again, r);
}

TEST(RelationTest, DuplicateRowsCollapse) {
  Relation r = *Relation::FromRows(
      TestSchema(), {{XSet::Int(1), XSet::Symbol("a"), XSet::Int(1)},
                     {XSet::Int(1), XSet::Symbol("a"), XSet::Int(1)}});
  EXPECT_EQ(r.size(), 1u);  // set semantics
}

TEST(AlgebraTest, Select) {
  Relation r = TestRelation();
  Relation hit = *rel::Select(r, "score", XSet::Int(20));
  EXPECT_EQ(hit.size(), 2u);
  EXPECT_TRUE(hit.tuples().ContainsClassical(X("<2, bob, 20>")));
  EXPECT_TRUE(hit.tuples().ContainsClassical(X("<3, cho, 20>")));
  EXPECT_EQ(rel::Select(r, "score", XSet::Int(99))->size(), 0u);
  EXPECT_TRUE(rel::Select(r, "nope", XSet::Int(1)).status().IsNotFound());
}

TEST(AlgebraTest, SelectIn) {
  Relation r = TestRelation();
  Relation hit = *rel::SelectIn(r, "id", {XSet::Int(1), XSet::Int(3), XSet::Int(9)});
  EXPECT_EQ(hit.size(), 2u);
}

TEST(AlgebraTest, SelectRange) {
  Relation r = TestRelation();
  EXPECT_EQ(rel::SelectRange(r, "score", 10, 19)->size(), 1u);
  EXPECT_EQ(rel::SelectRange(r, "score", 10, 20)->size(), 3u);
  EXPECT_EQ(rel::SelectRange(r, "score", 21, 99)->size(), 0u);
  EXPECT_EQ(rel::SelectRange(r, "score", 30, 10)->size(), 0u);  // empty interval
  // Wide interval takes the predicate-scan path; answers agree.
  EXPECT_EQ(rel::SelectRange(r, "score", -1000000, 1000000)->size(), 3u);
  EXPECT_TRUE(rel::SelectRange(r, "name", 0, 1).status().IsTypeError());
  EXPECT_TRUE(rel::SelectRange(r, "nope", 0, 1).status().IsNotFound());
}

TEST(AlgebraTest, SelectWhere) {
  Relation r = TestRelation();
  Result<Relation> odd = rel::SelectWhere(
      r, "id", [](const XSet& v) { return v.is_int() && v.int_value() % 2 == 1; });
  ASSERT_TRUE(odd.ok());
  EXPECT_EQ(odd->size(), 2u);  // ids 1 and 3
  Result<Relation> named = rel::SelectWhere(
      r, "name", [](const XSet& v) { return v.str_value().size() == 3; });
  ASSERT_TRUE(named.ok());
  EXPECT_EQ(named->size(), 3u);
}

TEST(AlgebraTest, SelectRangeAgreesWithSelectWhere) {
  rel::WorkloadSpec spec;
  spec.row_count = 400;
  spec.key_cardinality = 50;
  auto orders = rel::MakeOrders(spec);
  ASSERT_TRUE(orders.ok());
  for (auto [lo, hi] : std::vector<std::pair<int64_t, int64_t>>{
           {0, 10}, {25, 25}, {40, 120}, {-5, 3}}) {
    Result<Relation> by_range = rel::SelectRange(orders->xst, "customer_id", lo, hi);
    Result<Relation> by_pred = rel::SelectWhere(
        orders->xst, "customer_id", [lo = lo, hi = hi](const XSet& v) {
          return v.int_value() >= lo && v.int_value() <= hi;
        });
    ASSERT_TRUE(by_range.ok());
    ASSERT_TRUE(by_pred.ok());
    EXPECT_EQ(*by_range, *by_pred) << lo << ".." << hi;
  }
}

TEST(AlgebraTest, Project) {
  Relation r = TestRelation();
  Relation p = *rel::Project(r, {"score"});
  EXPECT_EQ(p.schema().ToString(), "(score: int)");
  EXPECT_EQ(p.size(), 2u);  // 10 and 20: duplicates collapse
  Relation swapped = *rel::Project(r, {"name", "id"});
  EXPECT_TRUE(swapped.tuples().ContainsClassical(X("<ann, 1>")));
  EXPECT_TRUE(rel::Project(r, {}).status().IsInvalid());
  EXPECT_TRUE(rel::Project(r, {"nope"}).status().IsNotFound());
}

TEST(AlgebraTest, Rename) {
  Relation r = TestRelation();
  Relation renamed = *rel::Rename(r, "score", "points");
  EXPECT_TRUE(renamed.schema().Contains("points"));
  EXPECT_FALSE(renamed.schema().Contains("score"));
  EXPECT_EQ(renamed.tuples(), r.tuples());
}

TEST(AlgebraTest, NaturalJoin) {
  Relation people = TestRelation();
  Relation teams = *Relation::FromRows(
      *Schema::Make({{"score", AttrType::kInt}, {"tier", AttrType::kSymbol}}),
      {{XSet::Int(10), XSet::Symbol("bronze")}, {XSet::Int(20), XSet::Symbol("silver")}});
  Relation joined = *rel::NaturalJoin(people, teams);
  EXPECT_EQ(joined.schema().ToString(),
            "(id: int, name: symbol, score: int, tier: symbol)");
  EXPECT_EQ(joined.size(), 3u);
  EXPECT_TRUE(joined.tuples().ContainsClassical(X("<1, ann, 10, bronze>")));
  EXPECT_TRUE(joined.tuples().ContainsClassical(X("<2, bob, 20, silver>")));
}

TEST(AlgebraTest, NaturalJoinRequiresCommonAttr) {
  Relation r = TestRelation();
  Relation other = *Relation::FromRows(*Schema::Make({{"q", AttrType::kInt}}),
                                       {{XSet::Int(1)}});
  EXPECT_TRUE(rel::NaturalJoin(r, other).status().IsInvalid());
}

TEST(AlgebraTest, SemiJoin) {
  Relation people = TestRelation();
  Relation present = *Relation::FromRows(*Schema::Make({{"id", AttrType::kInt}}),
                                         {{XSet::Int(1)}, {XSet::Int(3)}});
  Relation matched = *rel::SemiJoin(people, present);
  EXPECT_EQ(matched.schema(), people.schema());
  EXPECT_EQ(matched.size(), 2u);
  EXPECT_TRUE(matched.tuples().ContainsClassical(X("<1, ann, 10>")));
}

TEST(AlgebraTest, CrossJoin) {
  Relation left = *Relation::FromRows(*Schema::Make({{"a", AttrType::kInt}}),
                                      {{XSet::Int(1)}, {XSet::Int(2)}});
  Relation right = *Relation::FromRows(*Schema::Make({{"b", AttrType::kSymbol}}),
                                       {{XSet::Symbol("x")}});
  Relation cross = *rel::CrossJoin(left, right);
  EXPECT_EQ(cross.size(), 2u);
  EXPECT_TRUE(cross.tuples().ContainsClassical(X("<1, x>")));
  EXPECT_TRUE(rel::CrossJoin(left, left).status().IsInvalid());  // name clash
}

TEST(AlgebraTest, SetOperations) {
  Relation a = *Relation::FromRows(*Schema::Make({{"v", AttrType::kInt}}),
                                   {{XSet::Int(1)}, {XSet::Int(2)}});
  Relation b = *Relation::FromRows(*Schema::Make({{"v", AttrType::kInt}}),
                                   {{XSet::Int(2)}, {XSet::Int(3)}});
  EXPECT_EQ(rel::UnionRel(a, b)->size(), 3u);
  EXPECT_EQ(rel::IntersectRel(a, b)->size(), 1u);
  EXPECT_EQ(rel::DifferenceRel(a, b)->size(), 1u);
  Relation other = *Relation::FromRows(*Schema::Make({{"w", AttrType::kInt}}),
                                       {{XSet::Int(1)}});
  EXPECT_TRUE(rel::UnionRel(a, other).status().IsInvalid());
}

// ---------------------------------------------------------------------------
// Engine parity: the XST algebra and the record engine must agree on
// identical generated data.
// ---------------------------------------------------------------------------

class EngineParity : public ::testing::TestWithParam<double> {};

std::vector<rel::Row> XstToRows(const Relation& r) {
  std::vector<rel::Row> rows;
  for (const std::vector<XSet>& row : r.Rows()) {
    rel::Row out;
    for (const XSet& v : row) {
      if (v.is_int()) {
        out.emplace_back(v.int_value());
      } else {
        out.emplace_back(v.str_value());
      }
    }
    rows.push_back(std::move(out));
  }
  rel::DedupRows(&rows);
  return rows;
}

TEST_P(EngineParity, SelectProjectJoinAgree) {
  rel::WorkloadSpec spec;
  spec.row_count = 500;
  spec.key_cardinality = 40;
  spec.zipf_exponent = GetParam();
  spec.seed = 7;
  auto orders = rel::MakeOrders(spec);
  auto customers = rel::MakeCustomers(spec);
  ASSERT_TRUE(orders.ok());
  ASSERT_TRUE(customers.ok());

  // Select: customer_id = 3.
  {
    Relation xst_result = *rel::Select(orders->xst, "customer_id", XSet::Int(3));
    auto it = rel::MakeFilter(rel::MakeScan(&orders->rows), 1, int64_t{3});
    std::vector<rel::Row> row_result = rel::Execute(it.get());
    rel::DedupRows(&row_result);
    EXPECT_EQ(XstToRows(xst_result), row_result);
  }
  // Project: {customer_id, amount}.
  {
    Relation xst_result = *rel::Project(orders->xst, {"customer_id", "amount"});
    auto it = rel::MakeProject(rel::MakeScan(&orders->rows), {1, 2});
    std::vector<rel::Row> row_result = rel::Execute(it.get());
    rel::DedupRows(&row_result);
    EXPECT_EQ(XstToRows(xst_result), row_result);
  }
  // Join: orders ⋈ customers on customer_id.
  {
    Relation xst_result = *rel::NaturalJoin(orders->xst, customers->xst);
    auto it = rel::MakeHashJoin(rel::MakeScan(&orders->rows), &customers->rows, 1, 0, {1});
    std::vector<rel::Row> row_result = rel::Execute(it.get());
    rel::DedupRows(&row_result);
    EXPECT_EQ(XstToRows(xst_result), row_result);
    // Nested-loop gives the same rows as hash join.
    auto nl = rel::MakeNestedLoopJoin(rel::MakeScan(&orders->rows), &customers->rows, 1, 0,
                                      {1});
    std::vector<rel::Row> nl_result = rel::Execute(nl.get());
    rel::DedupRows(&nl_result);
    EXPECT_EQ(nl_result, row_result);
  }
}

INSTANTIATE_TEST_SUITE_P(Distributions, EngineParity, ::testing::Values(0.0, 1.0, 1.5));

TEST(GeneratorTest, Deterministic) {
  rel::WorkloadSpec spec;
  spec.row_count = 100;
  spec.seed = 11;
  auto a = rel::MakeOrders(spec);
  auto b = rel::MakeOrders(spec);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->xst.tuples(), b->xst.tuples());
  EXPECT_EQ(a->rows.rows, b->rows.rows);
}

TEST(GeneratorTest, ZipfSkewsKeys) {
  rel::KeySampler uniform(100, 0.0, 5);
  rel::KeySampler zipf(100, 1.2, 5);
  int uniform_zero = 0, zipf_zero = 0;
  for (int i = 0; i < 5000; ++i) {
    uniform_zero += uniform.Next() == 0;
    zipf_zero += zipf.Next() == 0;
  }
  EXPECT_GT(zipf_zero, uniform_zero * 3);  // key 0 is hot under Zipf
}

}  // namespace
}  // namespace xst
