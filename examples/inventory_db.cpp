// A miniature backend information system — the VLDB 1977 pitch end to end.
//
// Two tables are defined, loaded, persisted, recovered, and queried, and
// every step is a set operation: relations are extended sets of tuples,
// select/project/join compile to σ-restriction / σ-domain / relative
// product, and even the store's catalog is an extended set.
//
// Run:  ./build/examples/inventory_db

#include <cstdio>
#include <string>

#include "src/rel/algebra.h"
#include "src/rel/relation.h"
#include "src/store/setstore.h"

using namespace xst;
using rel::AttrType;
using rel::Relation;
using rel::Schema;

namespace {

void Print(const char* label, const Relation& r) {
  std::printf("-- %s --\n%s\n\n", label, r.ToString(8).c_str());
}

int Fail(const Status& st) {
  std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
  return 1;
}

}  // namespace

int main() {
  // 1. Schemas and data.
  Schema parts = *Schema::Make({{"part_id", AttrType::kInt},
                                {"name", AttrType::kSymbol},
                                {"warehouse", AttrType::kSymbol}});
  Schema stock = *Schema::Make({{"part_id", AttrType::kInt},
                                {"quantity", AttrType::kInt}});
  Result<Relation> parts_rel = Relation::FromRows(
      parts, {
                 {XSet::Int(1), XSet::Symbol("bolt"), XSet::Symbol("east")},
                 {XSet::Int(2), XSet::Symbol("nut"), XSet::Symbol("east")},
                 {XSet::Int(3), XSet::Symbol("gear"), XSet::Symbol("west")},
                 {XSet::Int(4), XSet::Symbol("cam"), XSet::Symbol("west")},
             });
  Result<Relation> stock_rel = Relation::FromRows(
      stock, {
                 {XSet::Int(1), XSet::Int(500)},
                 {XSet::Int(2), XSet::Int(120)},
                 {XSet::Int(3), XSet::Int(7)},
             });
  if (!parts_rel.ok()) return Fail(parts_rel.status());
  if (!stock_rel.ok()) return Fail(stock_rel.status());
  Print("parts", *parts_rel);
  Print("stock", *stock_rel);

  // 2. Persist both tables: what goes to disk is the tuple set itself.
  const std::string path = "/tmp/xst_inventory.db";
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());  // the store's log sidecar
  {
    auto store = SetStore::Open(path);
    if (!store.ok()) return Fail(store.status());
    Status st = (*store)->Put("parts", parts_rel->tuples());
    if (!st.ok()) return Fail(st);
    st = (*store)->Put("stock", stock_rel->tuples());
    if (!st.ok()) return Fail(st);
    std::printf("-- store catalog (an extended set, Def 9.1 tuples) --\n%s\n\n",
                (*store)->CatalogAsXSet().ToString().c_str());
  }

  // 3. Recover and query.
  auto store = SetStore::Open(path);
  if (!store.ok()) return Fail(store.status());
  Result<XSet> parts_back = (*store)->Get("parts");
  Result<XSet> stock_back = (*store)->Get("stock");
  if (!parts_back.ok()) return Fail(parts_back.status());
  if (!stock_back.ok()) return Fail(stock_back.status());
  Relation parts_db = *Relation::Make(parts, *parts_back);
  Relation stock_db = *Relation::Make(stock, *stock_back);

  // Which parts live in the east warehouse?  (σ-restriction)
  Result<Relation> east = rel::Select(parts_db, "warehouse", XSet::Symbol("east"));
  if (!east.ok()) return Fail(east.status());
  Print("select warehouse = east", *east);

  // Their names only.  (σ-domain)
  Result<Relation> names = rel::Project(*east, {"name"});
  if (!names.ok()) return Fail(names.status());
  Print("project {name}", *names);

  // Join with stock to see quantities.  (relative product, Def 10.1)
  Result<Relation> stocked = rel::NaturalJoin(parts_db, stock_db);
  if (!stocked.ok()) return Fail(stocked.status());
  Print("parts natural-join stock", *stocked);

  // Parts without stock rows: semijoin complement via set difference.
  Result<Relation> with_stock = rel::SemiJoin(parts_db, stock_db);
  if (!with_stock.ok()) return Fail(with_stock.status());
  Result<Relation> missing = rel::DifferenceRel(parts_db, *with_stock);
  if (!missing.ok()) return Fail(missing.status());
  Print("parts with no stock row (difference of semijoin)", *missing);

  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  return 0;
}
