#include "src/rel/database.h"

#include "src/common/macros.h"
#include "src/ops/boolean.h"
#include "src/xsp/compile.h"
#include "src/xsp/parser.h"
#include "src/xsp/vm.h"

namespace xst {
namespace rel {

Result<std::unique_ptr<Database>> Database::Open(const std::string& path) {
  XST_ASSIGN_OR_RAISE(std::unique_ptr<SetStore> store, SetStore::Open(path));
  return std::unique_ptr<Database>(new Database(std::move(store)));
}

Status Database::CreateTable(const std::string& name, const Schema& schema) {
  if (name.empty()) return Status::Invalid("table names must be non-empty");
  if (store_->Contains(SchemaKey(name))) {
    return Status::AlreadyExists("table '" + name + "' already exists");
  }
  XST_RETURN_NOT_OK(store_->Put(SchemaKey(name), schema.ToXSet()));
  return store_->Put(TableKey(name), XSet::Empty());
}

Result<Schema> Database::ReadSchema(const std::string& name) {
  Result<XSet> repr = store_->Get(SchemaKey(name));
  if (!repr.ok()) {
    if (repr.status().IsNotFound()) {
      return Status::NotFound("no table named '" + name + "'");
    }
    return repr.status();
  }
  return Schema::FromXSet(*repr);
}

Status Database::Write(const std::string& name, const Relation& relation) {
  XST_ASSIGN_OR_RAISE(Schema schema, ReadSchema(name));
  if (!(schema == relation.schema())) {
    return Status::Invalid("write to '" + name + "': schema mismatch — table is " +
                           schema.ToString() + ", data is " +
                           relation.schema().ToString());
  }
  XST_RETURN_NOT_OK(store_->Put(TableKey(name), relation.tuples()));
  InvalidateCaches(name);
  return Status::OK();
}

Status Database::Insert(const std::string& name,
                        const std::vector<std::vector<XSet>>& rows) {
  XST_ASSIGN_OR_RAISE(Relation current, Read(name));
  XST_ASSIGN_OR_RAISE(Relation fresh, Relation::FromRows(current.schema(), rows));
  XST_ASSIGN_OR_RAISE(
      Relation merged,
      Relation::Make(current.schema(), Union(current.tuples(), fresh.tuples())));
  return Write(name, merged);
}

Result<Relation> Database::Read(const std::string& name) {
  auto it = table_cache_.find(name);
  if (it != table_cache_.end()) return it->second;
  XST_ASSIGN_OR_RAISE(Schema schema, ReadSchema(name));
  XST_ASSIGN_OR_RAISE(XSet tuples, store_->Get(TableKey(name)));
  XST_ASSIGN_OR_RAISE(Relation relation, Relation::Make(std::move(schema), tuples));
  table_cache_.emplace(name, relation);
  return relation;
}

Status Database::DropTable(const std::string& name) {
  XST_RETURN_NOT_OK(store_->Delete(SchemaKey(name)));
  XST_RETURN_NOT_OK(store_->Delete(TableKey(name)));
  InvalidateCaches(name);
  return Status::OK();
}

std::vector<std::string> Database::Tables() const {
  std::vector<std::string> tables;
  for (const std::string& key : store_->List()) {
    if (key.rfind("schema:", 0) == 0) tables.push_back(key.substr(7));
  }
  return tables;
}

Status Database::EnsureIndex(const std::string& table, const std::string& attr) {
  std::string key = IndexKey(table, attr);
  if (index_cache_.count(key) != 0) return Status::OK();
  XST_ASSIGN_OR_RAISE(Relation relation, Read(table));
  XST_ASSIGN_OR_RAISE(AttributeIndex index, AttributeIndex::Build(relation, attr));
  index_cache_.emplace(key, std::move(index));
  return Status::OK();
}

bool Database::HasIndex(const std::string& table, const std::string& attr) const {
  return index_cache_.count(IndexKey(table, attr)) != 0;
}

Result<Relation> Database::SelectEq(const std::string& table, const std::string& attr,
                                    const XSet& value) {
  auto it = index_cache_.find(IndexKey(table, attr));
  if (it != index_cache_.end()) {
    return it->second.Select(value);
  }
  XST_ASSIGN_OR_RAISE(Relation relation, Read(table));
  return Select(relation, attr, value);
}

Result<Relation> Database::Join(const std::string& left, const std::string& right) {
  XST_ASSIGN_OR_RAISE(Relation l, Read(left));
  XST_ASSIGN_OR_RAISE(Relation r, Read(right));
  return NaturalJoin(l, r);
}

Status Database::CreateView(const std::string& name, const std::string& plan_text) {
  if (name.empty()) return Status::Invalid("view names must be non-empty");
  if (store_->Contains(ViewKey(name)) || store_->Contains(SchemaKey(name))) {
    return Status::AlreadyExists("'" + name + "' already exists");
  }
  Result<xsp::ExprPtr> plan = xsp::ParsePlan(plan_text);
  if (!plan.ok()) return plan.status().WithContext("view '" + name + "'");
  return store_->Put(ViewKey(name), XSet::String(plan_text));
}

Status Database::DropView(const std::string& name) {
  return store_->Delete(ViewKey(name));
}

std::vector<std::string> Database::Views() const {
  std::vector<std::string> views;
  for (const std::string& key : store_->List()) {
    if (key.rfind("view:", 0) == 0) views.push_back(key.substr(5));
  }
  return views;
}

Result<XSet> Database::QueryView(const std::string& name) {
  std::vector<std::string> trail;
  return EvaluateView(name, &trail);
}

Result<XSet> Database::EvaluateView(const std::string& name,
                                    std::vector<std::string>* trail) {
  for (const std::string& seen : *trail) {
    if (seen == name) {
      return Status::Invalid("view cycle: '" + name + "' depends on itself");
    }
  }
  trail->push_back(name);
  Result<XSet> text = store_->Get(ViewKey(name));
  if (!text.ok()) {
    if (text.status().IsNotFound()) return Status::NotFound("no view named '" + name + "'");
    return text.status();
  }
  XST_ASSIGN_OR_RAISE(xsp::ExprPtr plan, xsp::ParsePlan(text->str_value()));
  // Resolve every @leaf: tables bind their tuple sets, views expand
  // recursively (depth-first, cycle-checked via the trail).
  std::vector<std::string> leaves;
  xsp::CollectNamedLeaves(plan, &leaves);
  xsp::Bindings bindings;
  for (const std::string& leaf : leaves) {
    if (bindings.count(leaf) != 0) continue;
    if (store_->Contains(SchemaKey(leaf))) {
      XST_ASSIGN_OR_RAISE(Relation table, Read(leaf));
      bindings[leaf] = table.tuples();
    } else if (store_->Contains(ViewKey(leaf))) {
      XST_ASSIGN_OR_RAISE(XSet value, EvaluateView(leaf, trail));
      bindings[leaf] = value;
    } else {
      return Status::NotFound("view '" + name + "' references unknown '@" + leaf + "'");
    }
  }
  trail->pop_back();
  Result<xsp::Program> program = xsp::Compile(plan);
  Result<XSet> value = program.ok() ? xsp::VmEval(*program, bindings)
                                    : Result<XSet>(program.status());
  if (!value.ok()) return value.status().WithContext("view '" + name + "'");
  return value;
}

void Database::InvalidateCaches(const std::string& name) {
  table_cache_.erase(name);
  std::string prefix = name + ".";
  for (auto it = index_cache_.begin(); it != index_cache_.end();) {
    if (it->first.rfind(prefix, 0) == 0) {
      it = index_cache_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace rel
}  // namespace xst
