// Quickstart: the extended set value system in five minutes.
//
// Builds scoped sets, shows the paper's core operators (image, σ-domain,
// σ-restriction), turns a set of pairs into a *behavior* and applies it, and
// round-trips everything through the persistent set store.
//
// Run:  ./build/examples/quickstart

#include <cstdio>
#include <string>

#include "src/core/parse.h"
#include "src/core/xset.h"
#include "src/ops/boolean.h"
#include "src/ops/domain.h"
#include "src/ops/image.h"
#include "src/process/process.h"
#include "src/store/setstore.h"

using namespace xst;

namespace {

void Show(const char* label, const std::string& value) {
  std::printf("  %-34s %s\n", label, value.c_str());
}

}  // namespace

int main() {
  std::printf("== 1. Extended sets: membership carries a scope ==\n");
  // Classical sets are the ∅-scope special case.
  XSet classical = ParseOrDie("{apple, pear}");
  // Scopes turn sets into records/tuples: ⟨x,y⟩ = {x^1, y^2}.
  XSet pair = XSet::Pair(XSet::Symbol("ann"), XSet::Int(31));
  XSet record = ParseOrDie("{ann^name, 31^age}");  // scope by field name
  Show("classical:", classical.ToString());
  Show("ordered pair (Def 7.2):", pair.ToString());
  Show("field-scoped record:", record.ToString());
  Show("age of ann:", record.ElementsWithScope(XSet::Symbol("age"))[0].ToString());

  std::printf("\n== 2. The operator algebra ==\n");
  XSet people = ParseOrDie("{<ann, 31>, <bob, 27>, <cho, 31>}");
  Show("people:", people.ToString());
  Show("names (sigma-domain <1>):", SigmaDomain(people, ParseOrDie("<1>")).ToString());
  Show("ages   (sigma-domain <2>):", SigmaDomain(people, ParseOrDie("<2>")).ToString());
  // Image = restrict on σ₁, project σ₂ — lookup in one stroke.
  Show("who is 31? (inverse image):",
       Image(people, ParseOrDie("{<31>}"), Sigma::Inv()).ToString());
  Show("union with {<dee, 99>}:",
       Union(people, ParseOrDie("{<dee, 99>}")).ToString());

  std::printf("\n== 3. Functions as set behavior (Def 8.1) ==\n");
  // The same set, read as a behavior: f(σ) maps names to ages.
  Process age_of(people, Sigma::Std());
  Show("age_of({<ann>}):", age_of.Apply(ParseOrDie("{<ann>}")).ToString());
  Show("age_of({<ann>, <bob>}):",
       age_of.Apply(ParseOrDie("{<ann>, <bob>}")).ToString());
  Show("domain of definition:", age_of.Domain().ToString());
  // The behavior itself is not a set, but its notation is:
  Show("process as a set:", age_of.ToXSet().ToString());

  std::printf("\n== 4. Persistence: what is stored IS the set ==\n");
  const std::string path = "/tmp/xst_quickstart.db";
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());  // the store's log sidecar
  {
    auto store = SetStore::Open(path);
    if (!store.ok()) {
      std::fprintf(stderr, "open failed: %s\n", store.status().ToString().c_str());
      return 1;
    }
    Status st = (*store)->Put("people", people);
    if (!st.ok()) {
      std::fprintf(stderr, "put failed: %s\n", st.ToString().c_str());
      return 1;
    }
    Show("stored 'people', pages used:", std::to_string((*store)->page_count()));
    Show("catalog (itself a set):", (*store)->CatalogAsXSet().ToString());
  }
  auto reopened = SetStore::Open(path);
  Result<XSet> back = (*reopened)->Get("people");
  Show("reloaded equals original:", back.ok() && *back == people ? "yes" : "NO");
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  return 0;
}
