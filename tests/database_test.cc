// The Database facade: schema persistence, table lifecycle, index-aware
// selects, joins, cache invalidation — plus ordering-as-scoping (OrderBy).

#include <gtest/gtest.h>

#include <unistd.h>


#include "src/rel/database.h"
#include "src/rel/order.h"
#include "tests/testing.h"

namespace xst {
namespace rel {
namespace {

using testing::X;

class DatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::Open(file_.path());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
  }

  Schema PartsSchema() {
    return *Schema::Make({{"id", AttrType::kInt}, {"name", AttrType::kSymbol}});
  }

  // Declared before db_, so the store closes before its files go.
  testing::ScopedStorePath file_{
      ::testing::TempDir() + "xst_db_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
      std::to_string(::getpid())};
  std::unique_ptr<Database> db_;
};

TEST_F(DatabaseTest, SchemaRoundTripsAsXSet) {
  Schema schema = *Schema::Make({{"id", AttrType::kInt},
                                 {"name", AttrType::kString},
                                 {"tag", AttrType::kSymbol},
                                 {"blob", AttrType::kAny}});
  Result<Schema> back = Schema::FromXSet(schema.ToXSet());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, schema);
  EXPECT_TRUE(Schema::FromXSet(X("{a}")).status().IsTypeError());
  EXPECT_TRUE(Schema::FromXSet(X("<<\"x\", bogus_type>>")).status().IsTypeError());
}

TEST_F(DatabaseTest, TableLifecycle) {
  ASSERT_TRUE(db_->CreateTable("parts", PartsSchema()).ok());
  EXPECT_TRUE(db_->CreateTable("parts", PartsSchema()).IsAlreadyExists());
  EXPECT_EQ(db_->Tables(), std::vector<std::string>{"parts"});
  Result<Relation> empty = db_->Read("parts");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  EXPECT_EQ(empty->schema(), PartsSchema());
  ASSERT_TRUE(db_->DropTable("parts").ok());
  EXPECT_TRUE(db_->Read("parts").status().IsNotFound());
  EXPECT_TRUE(db_->DropTable("parts").IsNotFound());
}

TEST_F(DatabaseTest, InsertAccumulatesWithSetSemantics) {
  ASSERT_TRUE(db_->CreateTable("parts", PartsSchema()).ok());
  ASSERT_TRUE(db_->Insert("parts", {{XSet::Int(1), XSet::Symbol("bolt")}}).ok());
  ASSERT_TRUE(db_->Insert("parts", {{XSet::Int(2), XSet::Symbol("nut")},
                                    {XSet::Int(1), XSet::Symbol("bolt")}})
                  .ok());
  Result<Relation> parts = db_->Read("parts");
  ASSERT_TRUE(parts.ok());
  EXPECT_EQ(parts->size(), 2u);  // the duplicate collapsed
}

TEST_F(DatabaseTest, WriteValidatesSchema) {
  ASSERT_TRUE(db_->CreateTable("parts", PartsSchema()).ok());
  Relation wrong = *Relation::FromRows(
      *Schema::Make({{"x", AttrType::kInt}}), {{XSet::Int(1)}});
  EXPECT_TRUE(db_->Write("parts", wrong).IsInvalid());
  EXPECT_TRUE(db_->Insert("parts", {{XSet::Symbol("notint"), XSet::Symbol("q")}})
                  .IsTypeError());
}

TEST_F(DatabaseTest, PersistsAcrossReopen) {
  ASSERT_TRUE(db_->CreateTable("parts", PartsSchema()).ok());
  ASSERT_TRUE(db_->Insert("parts", {{XSet::Int(7), XSet::Symbol("gear")}}).ok());
  db_.reset();
  auto reopened = Database::Open(file_.path());
  ASSERT_TRUE(reopened.ok());
  Result<Relation> parts = (*reopened)->Read("parts");
  ASSERT_TRUE(parts.ok());
  EXPECT_EQ(parts->size(), 1u);
  EXPECT_EQ(parts->schema(), PartsSchema());
  EXPECT_TRUE(parts->tuples().ContainsClassical(X("<7, gear>")));
}

TEST_F(DatabaseTest, SelectUsesIndexWhenPresent) {
  ASSERT_TRUE(db_->CreateTable("parts", PartsSchema()).ok());
  std::vector<std::vector<XSet>> rows;
  for (int i = 0; i < 200; ++i) {
    rows.push_back({XSet::Int(i), XSet::Symbol("p" + std::to_string(i % 10))});
  }
  ASSERT_TRUE(db_->Insert("parts", rows).ok());

  Result<Relation> scan = db_->SelectEq("parts", "name", XSet::Symbol("p3"));
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(db_->HasIndex("parts", "name"));
  ASSERT_TRUE(db_->EnsureIndex("parts", "name").ok());
  EXPECT_TRUE(db_->HasIndex("parts", "name"));
  Result<Relation> indexed = db_->SelectEq("parts", "name", XSet::Symbol("p3"));
  ASSERT_TRUE(indexed.ok());
  EXPECT_EQ(*indexed, *scan);
  EXPECT_EQ(indexed->size(), 20u);
}

TEST_F(DatabaseTest, WritesInvalidateIndexes) {
  ASSERT_TRUE(db_->CreateTable("parts", PartsSchema()).ok());
  ASSERT_TRUE(db_->Insert("parts", {{XSet::Int(1), XSet::Symbol("bolt")}}).ok());
  ASSERT_TRUE(db_->EnsureIndex("parts", "name").ok());
  ASSERT_TRUE(db_->Insert("parts", {{XSet::Int(2), XSet::Symbol("bolt")}}).ok());
  // The stale index was dropped; the fresh select still sees both rows.
  EXPECT_FALSE(db_->HasIndex("parts", "name"));
  Result<Relation> hits = db_->SelectEq("parts", "name", XSet::Symbol("bolt"));
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 2u);
}

TEST_F(DatabaseTest, JoinAcrossTables) {
  ASSERT_TRUE(db_->CreateTable("parts", PartsSchema()).ok());
  ASSERT_TRUE(db_->CreateTable("stock", *Schema::Make({{"id", AttrType::kInt},
                                                       {"qty", AttrType::kInt}}))
                  .ok());
  ASSERT_TRUE(db_->Insert("parts", {{XSet::Int(1), XSet::Symbol("bolt")},
                                    {XSet::Int(2), XSet::Symbol("nut")}})
                  .ok());
  ASSERT_TRUE(db_->Insert("stock", {{XSet::Int(1), XSet::Int(50)}}).ok());
  Result<Relation> joined = db_->Join("parts", "stock");
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->size(), 1u);
  EXPECT_TRUE(joined->tuples().ContainsClassical(X("<1, bolt, 50>")));
}

// --- ordering as scoping ---------------------------------------------------

Relation Scores() {
  return *Relation::FromRows(
      *Schema::Make({{"who", AttrType::kSymbol}, {"score", AttrType::kInt}}),
      {{XSet::Symbol("ann"), XSet::Int(30)},
       {XSet::Symbol("bob"), XSet::Int(10)},
       {XSet::Symbol("cho"), XSet::Int(20)}});
}

TEST(OrderByOp, ProducesRankScopedSet) {
  XSet ranked = *OrderBy(Scores(), "score");
  EXPECT_EQ(ranked, testing::X("<<bob, 10>, <cho, 20>, <ann, 30>>"));
  Result<std::vector<XSet>> rows = RankedRows(ranked);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);
  EXPECT_EQ((*rows)[0], testing::X("<bob, 10>"));
}

TEST(OrderByOp, Descending) {
  EXPECT_EQ(*OrderBy(Scores(), "score", /*ascending=*/false),
            testing::X("<<ann, 30>, <cho, 20>, <bob, 10>>"));
}

TEST(OrderByOp, TopK) {
  EXPECT_EQ(*TopK(Scores(), "score", 2, false),
            testing::X("<<ann, 30>, <cho, 20>>"));
  EXPECT_EQ(*TopK(Scores(), "score", 99, false),
            *OrderBy(Scores(), "score", false));
}

TEST(OrderByOp, TiesBreakDeterministically) {
  Relation tied = *Relation::FromRows(
      *Schema::Make({{"who", AttrType::kSymbol}, {"score", AttrType::kInt}}),
      {{XSet::Symbol("zed"), XSet::Int(5)}, {XSet::Symbol("amy"), XSet::Int(5)}});
  XSet once = *OrderBy(tied, "score");
  EXPECT_EQ(once, *OrderBy(tied, "score"));
  // Structural tie-break puts ⟨amy,5⟩ before ⟨zed,5⟩.
  EXPECT_EQ((*RankedRows(once))[0], testing::X("<amy, 5>"));
}

TEST(OrderByOp, Validation) {
  EXPECT_TRUE(OrderBy(Scores(), "nope").status().IsNotFound());
  EXPECT_TRUE(RankedRows(testing::X("{a}")).status().IsTypeError());
}

TEST(OrderByOp, RankedResultIsAFirstClassSet) {
  // The ordered result prints, hashes, stores and parses like any value.
  XSet ranked = *OrderBy(Scores(), "score");
  EXPECT_EQ(testing::X(ranked.ToString().c_str()), ranked);
}

}  // namespace
}  // namespace rel
}  // namespace xst
