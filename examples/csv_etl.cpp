// End-to-end ETL: CSV in, set store + views in the middle, CSV out.
//
// A tiny pipeline showing the interchange path: external row data becomes a
// typed relation (one parse), lives in the database next to its schema and
// a derived view, and leaves as CSV again — with every intermediate step an
// extended set.
//
// Run:  ./build/examples/csv_etl

#include <cstdio>
#include <string>

#include "src/rel/aggregate.h"
#include "src/rel/csv.h"
#include "src/rel/database.h"
#include "src/rel/order.h"

using namespace xst;
using namespace xst::rel;

namespace {

const char* kIncomingCsv =
    "city,population,country\n"
    "tokyo,37400068,jp\n"
    "delhi,28514000,in\n"
    "shanghai,25582000,cn\n"
    "sao_paulo,21650000,br\n"
    "mumbai,19980000,in\n"
    "beijing,19618000,cn\n";

int Fail(const Status& st) {
  std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
  return 1;
}

}  // namespace

int main() {
  // 1. Ingest: CSV → typed relation.
  Schema schema = *Schema::Make({{"city", AttrType::kSymbol},
                                 {"population", AttrType::kInt},
                                 {"country", AttrType::kSymbol}});
  Result<Relation> cities = ImportCsv(schema, kIncomingCsv);
  if (!cities.ok()) return Fail(cities.status());
  std::printf("ingested %zu rows into %s\n\n", cities->size(),
              schema.ToString().c_str());

  // 2. Load into a database with a persisted view.
  const std::string path = "/tmp/xst_etl.db";
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());  // the store's log sidecar
  auto db = Database::Open(path);
  if (!db.ok()) return Fail(db.status());
  Status st = (*db)->CreateTable("cities", schema);
  if (!st.ok()) return Fail(st);
  st = (*db)->Write("cities", *cities);
  if (!st.ok()) return Fail(st);
  st = (*db)->CreateView("city_names", "domain[<1>](@cities)");
  if (!st.ok()) return Fail(st);
  Result<XSet> names = (*db)->QueryView("city_names");
  if (!names.ok()) return Fail(names.status());
  std::printf("view city_names = %s\n\n", names->ToString().c_str());

  // 3. Transform: group by country, aggregate, rank.
  Result<Relation> by_country =
      GroupBy(*cities, {"country"},
              {{AggKind::kSum, "population", "total_pop"},
               {AggKind::kCount, "", "cities"}});
  if (!by_country.ok()) return Fail(by_country.status());
  Result<XSet> ranked = OrderBy(*by_country, "total_pop", /*ascending=*/false);
  if (!ranked.ok()) return Fail(ranked.status());
  std::printf("countries by total population (rank-scoped set):\n  %s\n\n",
              ranked->ToString().c_str());

  // 4. Export the aggregate as CSV.
  Result<std::string> csv = ExportCsv(*by_country);
  if (!csv.ok()) return Fail(csv.status());
  std::printf("outgoing CSV:\n%s", csv->c_str());

  // 5. Round-trip sanity: the exported CSV re-imports to the same relation.
  Result<Relation> back = ImportCsv(by_country->schema(), *csv);
  std::printf("\nround-trip equals original: %s\n",
              back.ok() && *back == *by_country ? "yes" : "NO");
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  return 0;
}
