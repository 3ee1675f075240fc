// Cross-module integration: generated workloads flow through the storage
// engine, the relational algebra, the XSP optimizer, and the record-engine
// baseline, and every path agrees.

#include <gtest/gtest.h>

#include <unistd.h>


#include "src/process/process.h"
#include "src/rel/algebra.h"
#include "src/rel/generator.h"
#include "src/store/setstore.h"
#include "src/xsp/eval.h"
#include "src/xsp/optimizer.h"
#include "tests/testing.h"

namespace xst {
namespace {

using rel::Relation;
using testing::X;

class TempStore : public ::testing::Test {
 protected:
  testing::ScopedStorePath file_{
      ::testing::TempDir() + "xst_integration_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
      std::to_string(::getpid())};
};

TEST_F(TempStore, RelationsSurviveStorage) {
  rel::WorkloadSpec spec;
  spec.row_count = 2000;
  spec.key_cardinality = 64;
  auto orders = rel::MakeOrders(spec);
  auto customers = rel::MakeCustomers(spec);
  ASSERT_TRUE(orders.ok());
  ASSERT_TRUE(customers.ok());
  {
    auto store = SetStore::Open(file_.path());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("orders", orders->xst.tuples()).ok());
    ASSERT_TRUE((*store)->Put("customers", customers->xst.tuples()).ok());
  }
  auto store = SetStore::Open(file_.path());
  ASSERT_TRUE(store.ok());
  Result<XSet> orders_back = (*store)->Get("orders");
  ASSERT_TRUE(orders_back.ok());
  EXPECT_EQ(*orders_back, orders->xst.tuples());

  // Re-wrap under the schema and run the join on the recovered data.
  Result<Relation> recovered = Relation::Make(orders->xst.schema(), *orders_back);
  ASSERT_TRUE(recovered.ok());
  Result<Relation> joined = rel::NaturalJoin(*recovered, customers->xst);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->size(), orders->xst.size());  // every order has a customer
}

TEST_F(TempStore, XspPlansOverStoredSets) {
  // Store CST-style relations, load them as XSP bindings, run an optimized
  // two-hop query, and compare against direct evaluation.
  {
    auto store = SetStore::Open(file_.path());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("friend", X("{<ann, bob>, <bob, cho>, <cho, dee>}")).ok());
    ASSERT_TRUE((*store)->Put("likes", X("{<bob, tea>, <cho, jazz>, <dee, go>}")).ok());
  }
  auto store = SetStore::Open(file_.path());
  ASSERT_TRUE(store.ok());
  xsp::Bindings env;
  for (const std::string& name : (*store)->List()) {
    Result<XSet> value = (*store)->Get(name);
    ASSERT_TRUE(value.ok());
    env[name] = *value;
  }
  // likes[friend[{⟨ann⟩}]] — what does ann's friend like?
  xsp::ExprPtr plan = xsp::Expr::Image(
      xsp::Expr::Named("likes"),
      xsp::Expr::Image(xsp::Expr::Named("friend"), xsp::Expr::Literal(X("{<ann>}")),
                       Sigma::Std()),
      Sigma::Std());
  xsp::OptimizerStats opt_stats;
  Result<xsp::ExprPtr> optimized = xsp::Optimize(plan, env, &opt_stats);
  ASSERT_TRUE(optimized.ok());
  EXPECT_EQ(opt_stats.compose_images, 1);
  EXPECT_EQ(*xsp::Eval(*optimized, env), X("{<tea>}"));
  EXPECT_EQ(*xsp::Eval(plan, env), X("{<tea>}"));
}

TEST_F(TempStore, SelectivitySweepParity) {
  // Engines agree across selectivities, and stored data round-trips the
  // whole pipeline: generate → store → load → select/join → compare.
  rel::WorkloadSpec spec;
  spec.row_count = 1500;
  spec.key_cardinality = 50;
  spec.zipf_exponent = 1.0;
  auto orders = rel::MakeOrders(spec);
  auto customers = rel::MakeCustomers(spec);
  ASSERT_TRUE(orders.ok());
  ASSERT_TRUE(customers.ok());
  {
    auto store = SetStore::Open(file_.path());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("orders", orders->xst.tuples()).ok());
  }
  auto store = SetStore::Open(file_.path());
  ASSERT_TRUE(store.ok());
  Result<XSet> back = (*store)->Get("orders");
  ASSERT_TRUE(back.ok());
  Result<Relation> stored_orders = Relation::Make(orders->xst.schema(), *back);
  ASSERT_TRUE(stored_orders.ok());

  for (int64_t key : {int64_t{0}, int64_t{7}, int64_t{49}}) {
    Result<Relation> xst_sel = rel::Select(*stored_orders, "customer_id", XSet::Int(key));
    ASSERT_TRUE(xst_sel.ok());
    auto it = rel::MakeFilter(rel::MakeScan(&orders->rows), 1, key);
    std::vector<rel::Row> rows = rel::Execute(it.get());
    EXPECT_EQ(xst_sel->size(), rows.size()) << "key " << key;
  }
}

TEST_F(TempStore, ProcessesPersistAsSets) {
  // A process is not a set, but its representation is (⟨f, σ⟩): store it,
  // recover it, and confirm the behavior survives.
  Process original(X("{<a, x>, <b, y>}"), Sigma::Inv());
  {
    auto store = SetStore::Open(file_.path());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("behavior", original.ToXSet()).ok());
  }
  auto store = SetStore::Open(file_.path());
  ASSERT_TRUE(store.ok());
  Result<XSet> repr = (*store)->Get("behavior");
  ASSERT_TRUE(repr.ok());
  Result<Process> recovered = Process::FromXSet(*repr);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(*recovered == original);
  EXPECT_EQ(recovered->Apply(X("{<x>}")), X("{<a>}"));
}

}  // namespace
}  // namespace xst
