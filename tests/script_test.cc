// XSP scripts and database views: multi-statement programs, persisted
// plans, recursive view expansion, and cycle detection.

#include <gtest/gtest.h>

#include <unistd.h>

#include "src/rel/database.h"
#include "src/xsp/script.h"
#include "tests/testing.h"

namespace xst {
namespace {

using testing::X;

TEST(ScriptTest, ParseAndRun) {
  Result<xsp::Script> script = xsp::ParseScript(R"(
# two-hop friendship
friends = {<ann, bob>, <bob, cho>}
hop1 = image[<1>, <2>](@friends, {<ann>})
image[<1>, <2>](@friends, @hop1)
@hop1
)");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  EXPECT_EQ(script->statements.size(), 4u);
  Result<xsp::ScriptOutput> output = xsp::RunScript(*script, {});
  ASSERT_TRUE(output.ok()) << output.status().ToString();
  ASSERT_EQ(output->results.size(), 2u);
  EXPECT_EQ(output->results[0], X("{<cho>}"));
  EXPECT_EQ(output->results[1], X("{<bob>}"));
  EXPECT_EQ(output->bindings.at("friends"), X("{<ann, bob>, <bob, cho>}"));
}

TEST(ScriptTest, LaterStatementsSeeEarlierBindings) {
  Result<xsp::ScriptOutput> output = xsp::RunScript(
      *xsp::ParseScript("a = {1}\nb = union(@a, {2})\nunion(@a, @b)"), {});
  ASSERT_TRUE(output.ok());
  EXPECT_EQ(output->results[0], X("{1, 2}"));
}

TEST(ScriptTest, InitialBindingsAreVisible) {
  xsp::Bindings env{{"base", X("{<q, z>}")}};
  Result<xsp::ScriptOutput> output =
      xsp::RunScript(*xsp::ParseScript("domain[<2>](@base)"), env);
  ASSERT_TRUE(output.ok());
  EXPECT_EQ(output->results[0], X("{<z>}"));
}

TEST(ScriptTest, ParseErrorsCarryLineNumbers) {
  Result<xsp::Script> bad = xsp::ParseScript("a = {1}\nb = bogus(@a)\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 2"), std::string::npos);
  Result<xsp::Script> bad_name = xsp::ParseScript("9lives = {1}");
  ASSERT_FALSE(bad_name.ok());
  EXPECT_TRUE(bad_name.status().IsParseError());
}

TEST(ScriptTest, RuntimeErrorsNameTheStatement) {
  Result<xsp::ScriptOutput> output =
      xsp::RunScript(*xsp::ParseScript("@missing"), {});
  ASSERT_FALSE(output.ok());
  EXPECT_NE(output.status().message().find("@missing"), std::string::npos);
}

TEST(ScriptTest, OptimizedRunsAgree) {
  const char* text = R"(
f = {<a, p>, <b, q>}
g = {<p, 1>, <q, 2>}
image[<1>, <2>](@g, image[<1>, <2>](@f, {<a>, <b>}))
)";
  Result<xsp::ScriptOutput> plain = xsp::RunScript(*xsp::ParseScript(text), {});
  Result<xsp::ScriptOutput> optimized =
      xsp::RunScript(*xsp::ParseScript(text), {}, /*optimize=*/true);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(optimized.ok());
  EXPECT_EQ(plain->results, optimized->results);
  EXPECT_EQ(plain->results[0], X("{<1>, <2>}"));
}

// Verifications counted so far, process-wide.
uint64_t VerifiedPrograms() {
  return obs::MetricsRegistry::Global().GetCounter("xsp.verify.programs").value();
}

TEST(ScriptTest, EveryStatementIsVerifiedBeforeItRuns) {
  // In every build type, not only where VmEval verifies on its own (the
  // XST_VM_VALIDATE tier or XST_VERIFY_PROGRAMS).
  const uint64_t before = VerifiedPrograms();
  Result<xsp::ScriptOutput> output =
      xsp::RunScript(*xsp::ParseScript("a = {1}\nunion(@a, {2})"), {});
  ASSERT_TRUE(output.ok()) << output.status().ToString();
  EXPECT_GE(VerifiedPrograms() - before, 2u);
}

class ViewTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = rel::Database::Open(file_.path());
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    rel::Schema schema = *rel::Schema::Make(
        {{"src", rel::AttrType::kSymbol}, {"dst", rel::AttrType::kSymbol}});
    ASSERT_TRUE(db_->CreateTable("edges", schema).ok());
    ASSERT_TRUE(db_->Insert("edges", {{XSet::Symbol("a"), XSet::Symbol("b")},
                                      {XSet::Symbol("b"), XSet::Symbol("c")}})
                    .ok());
  }
  // Declared before db_, so the store closes before its files go.
  testing::ScopedStorePath file_{::testing::TempDir() + "xst_view_test_" +
                                 std::to_string(::getpid())};
  std::unique_ptr<rel::Database> db_;
};

TEST_F(ViewTest, CreateQueryDrop) {
  ASSERT_TRUE(db_->CreateView("reach", "closure(@edges)").ok());
  EXPECT_EQ(db_->Views(), std::vector<std::string>{"reach"});
  Result<XSet> value = db_->QueryView("reach");
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_EQ(*value, X("{<a, b>, <b, c>, <a, c>}"));
  ASSERT_TRUE(db_->DropView("reach").ok());
  EXPECT_TRUE(db_->QueryView("reach").status().IsNotFound());
}

TEST_F(ViewTest, ViewsSeeCurrentTableContents) {
  ASSERT_TRUE(db_->CreateView("reach", "closure(@edges)").ok());
  ASSERT_TRUE(db_->Insert("edges", {{XSet::Symbol("c"), XSet::Symbol("d")}}).ok());
  Result<XSet> value = db_->QueryView("reach");
  ASSERT_TRUE(value.ok());
  EXPECT_TRUE(value->ContainsClassical(X("<a, d>")));  // through the new edge
}

TEST_F(ViewTest, ViewsComposeOverViews) {
  ASSERT_TRUE(db_->CreateView("reach", "closure(@edges)").ok());
  ASSERT_TRUE(
      db_->CreateView("from_a", "image[<1>, <2>](@reach, {<a>})").ok());
  Result<XSet> value = db_->QueryView("from_a");
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_EQ(*value, X("{<b>, <c>}"));
}

TEST_F(ViewTest, EveryViewIsVerifiedBeforeItRuns) {
  ASSERT_TRUE(db_->CreateView("reach", "closure(@edges)").ok());
  ASSERT_TRUE(
      db_->CreateView("from_a", "image[<1>, <2>](@reach, {<a>})").ok());
  const uint64_t before = VerifiedPrograms();
  Result<XSet> value = db_->QueryView("from_a");  // evaluates both views
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_GE(VerifiedPrograms() - before, 2u);
}

TEST_F(ViewTest, PersistAcrossReopen) {
  ASSERT_TRUE(db_->CreateView("reach", "closure(@edges)").ok());
  db_.reset();
  auto reopened = rel::Database::Open(file_.path());
  ASSERT_TRUE(reopened.ok());
  Result<XSet> value = (*reopened)->QueryView("reach");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value->cardinality(), 3u);
}

TEST_F(ViewTest, Validation) {
  EXPECT_TRUE(db_->CreateView("bad", "bogus(@edges)").IsParseError());
  EXPECT_TRUE(db_->CreateView("edges", "@edges").IsAlreadyExists());  // name clash
  ASSERT_TRUE(db_->CreateView("v", "@edges").ok());
  EXPECT_TRUE(db_->CreateView("v", "@edges").IsAlreadyExists());
  ASSERT_TRUE(db_->CreateView("dangling", "@nope").ok());  // parses fine...
  EXPECT_TRUE(db_->QueryView("dangling").status().IsNotFound());  // ...fails to bind
}

TEST_F(ViewTest, CycleDetection) {
  // Indirect cycle: x → y → x. Neither name exists yet, so create both with
  // references to each other (creation only parse-checks).
  ASSERT_TRUE(db_->CreateView("x", "union(@edges, @y)").ok());
  ASSERT_TRUE(db_->CreateView("y", "union(@edges, @x)").ok());
  Result<XSet> value = db_->QueryView("x");
  ASSERT_FALSE(value.ok());
  EXPECT_TRUE(value.status().IsInvalid());
  EXPECT_NE(value.status().message().find("cycle"), std::string::npos);
}

}  // namespace
}  // namespace xst
