#include "src/core/validate.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/sync.h"
#include "src/core/interner.h"
#include "src/core/order.h"
// The memo being validated lives one layer up; validation deliberately spans
// layers so one entry point can certify the whole substrate.
#include "src/ops/rescope.h"

namespace xst {

namespace {

// Identifies a node without printing it: corrupt nodes may be cyclic, so
// ToString (which recurses) is off limits here.
std::string Describe(const internal::Node* n) {
  const char* kind = "?";
  switch (n->kind) {
    case NodeKind::kInt:
      kind = "int";
      break;
    case NodeKind::kSymbol:
      kind = "symbol";
      break;
    case NodeKind::kString:
      kind = "string";
      break;
    case NodeKind::kSet:
      kind = "set";
      break;
  }
  return std::string(kind) + " node (cardinality " + std::to_string(n->members.size()) +
         ", hash " + std::to_string(n->hash) + ")";
}

// Shallow per-node checks: member ordering and the derived header fields
// (hash, depth, tree_size) all match what interning would have computed.
Status CheckNodeShape(const internal::Node* n) {
  if (n->kind != NodeKind::kSet) {
    if (!n->members.empty()) {
      return Status::Corruption("atom carries memberships: " + Describe(n));
    }
    if (n->depth != 0 || n->tree_size != 1) {
      return Status::Corruption("atom header corrupt (depth/tree_size): " + Describe(n));
    }
  } else {
    uint32_t depth = 0;
    uint64_t tree_size = 1;
    for (size_t i = 0; i < n->members.size(); ++i) {
      const Membership& m = n->members[i];
      if (i > 0) {
        int c = CompareMembership(n->members[i - 1], m);
        if (c == 0) {
          return Status::Corruption("duplicate membership at index " + std::to_string(i) +
                                    " of " + Describe(n));
        }
        if (c > 0) {
          return Status::Corruption("members not in canonical order at index " +
                                    std::to_string(i) + " of " + Describe(n));
        }
      }
      depth = std::max(depth, std::max(m.element.depth(), m.scope.depth()));
      tree_size += m.element.tree_size() + m.scope.tree_size();
    }
    uint32_t want_depth = n->members.empty() ? 0 : depth + 1;
    if (n->depth != want_depth || n->tree_size != tree_size) {
      return Status::Corruption("set header corrupt (depth/tree_size): " + Describe(n));
    }
  }
  if (internal::ComputeNodeHash(*n) != n->hash) {
    return Status::Corruption("stored hash disagrees with recomputed structural hash: " +
                              Describe(n));
  }
  return Status::OK();
}

// Hash-consing coherence for one node: the arena's canonical node for this
// node's structural key must be this node itself.
Status CheckNodeInterned(const internal::Node* n) {
  const internal::Node* canon = Interner::Global().Find(*n);
  if (canon == nullptr) {
    return Status::Corruption("node not interned (foreign to the arena): " + Describe(n));
  }
  if (canon != n) {
    return Status::Corruption(
        "node is not pointer-equal to its canonical interned form "
        "(hash-consing coherence violated): " +
        Describe(n));
  }
  return Status::OK();
}

// Nodes that already passed deep validation. Sound to cache: nodes are
// immutable and immortal, so valid-once is valid-forever. Keeps level-2
// builds from re-walking shared subtrees on every kernel post-condition.
struct ValidNodeCache {
  Mutex cache_mu XST_LOCK_RANK(50);
  std::unordered_set<const internal::Node*> nodes XST_GUARDED_BY(cache_mu);
};

ValidNodeCache& ValidCache() {
  static auto* cache = new ValidNodeCache();  // leaked with the arena
  return *cache;
}

bool IsCachedValid(const internal::Node* n) {
  ValidNodeCache& cache = ValidCache();
  MutexLock lock(&cache.cache_mu);
  return cache.nodes.count(n) != 0;
}

void MarkCachedValid(const internal::Node* n) {
  ValidNodeCache& cache = ValidCache();
  MutexLock lock(&cache.cache_mu);
  cache.nodes.insert(n);
}

// Iterative post-order DFS over ⟨element, scope⟩ edges with gray/black
// coloring: a gray child means the membership graph reaches a node from
// itself, i.e. the scope graph is not well-founded.
Status ValidateDeep(const internal::Node* root) {
  constexpr uint8_t kGray = 1;
  constexpr uint8_t kBlack = 2;
  std::unordered_map<const internal::Node*, uint8_t> state;
  // Each frame: node plus the index of the next child edge to follow
  // (membership i, element for even step, scope for odd).
  struct Frame {
    const internal::Node* node;
    size_t next_edge;
  };
  std::vector<Frame> stack;
  stack.push_back({root, 0});
  state[root] = kGray;
  while (!stack.empty()) {
    Frame& f = stack.back();
    const internal::Node* n = f.node;
    const size_t edge_count = n->kind == NodeKind::kSet ? 2 * n->members.size() : 0;
    if (f.next_edge < edge_count) {
      const Membership& m = n->members[f.next_edge / 2];
      const internal::Node* child =
          (f.next_edge % 2 == 0 ? m.element : m.scope).node();
      ++f.next_edge;
      auto it = state.find(child);
      if (it != state.end()) {
        if (it->second == kGray) {
          return Status::Corruption(
              "scope graph is not well-founded (membership cycle through " +
              Describe(child) + ")");
        }
        continue;  // black: already validated on this walk
      }
      if (IsCachedValid(child)) {
        state[child] = kBlack;
        continue;
      }
      state[child] = kGray;
      stack.push_back({child, 0});
      continue;
    }
    // All children validated; check this node and blacken it.
    Status st = CheckNodeShape(n);
    if (st.ok()) st = CheckNodeInterned(n);
    if (!st.ok()) return st;
    state[n] = kBlack;
    MarkCachedValid(n);
    stack.pop_back();
  }
  return Status::OK();
}

}  // namespace

Status ValidateXSet(const XSet& s, ValidateLevel level) {
  const internal::Node* n = s.node();
  if (n == nullptr) return Status::Corruption("XSet handle holds a null node");
  if (level == ValidateLevel::kShallow) return CheckNodeShape(n);
  if (IsCachedValid(n)) return Status::OK();
  return ValidateDeep(n);
}

Status ValidateInterner() {
  const Interner& interner = Interner::Global();
  for (const internal::Node* n : interner.SnapshotNodes()) {
    Status st = CheckNodeShape(n);
    if (st.ok()) st = CheckNodeInterned(n);
    if (!st.ok()) return st.WithContext("interned arena");
    // Children of an interned set must themselves be canonical residents —
    // an interned node wrapping a foreign child is how a corrupt subtree
    // would hide from per-node checks.
    for (const Membership& m : n->members) {
      st = CheckNodeInterned(m.element.node());
      if (st.ok()) st = CheckNodeInterned(m.scope.node());
      if (!st.ok()) return st.WithContext("child of interned " + Describe(n));
    }
  }
  return Status::OK();
}

Status ValidateRescopeMemo() {
  for (const internal::RescopeMemoEntry& e : internal::SnapshotRescopeMemo()) {
    Status st = ValidateXSet(e.a, ValidateLevel::kShallow);
    if (st.ok()) st = ValidateXSet(e.sigma, ValidateLevel::kShallow);
    if (st.ok()) st = ValidateXSet(e.result, ValidateLevel::kShallow);
    if (!st.ok()) return st.WithContext("rescope memo operand");
    std::vector<Membership> raw;
    raw.reserve(e.a.cardinality());
    AppendRescopeByScopeRaw(e.a, e.sigma, &raw);
    XSet recomputed = XSet::FromMembers(std::move(raw));
    if (recomputed != e.result) {
      return Status::Corruption(
          "rescope memo entry is not re-derivable: cached " + e.result.ToString() +
          " but recomputation of " + e.a.ToString() + " ^{/" + e.sigma.ToString() +
          "/} yields " + recomputed.ToString());
    }
  }
  return Status::OK();
}

namespace internal {

XSet ValidateOrDie(XSet s, const char* file, int line, const char* expr) {
  const ValidateLevel level =
      XST_VALIDATE_LEVEL >= 2 ? ValidateLevel::kDeep : ValidateLevel::kShallow;
  Status st = ValidateXSet(s, level);
  if (!st.ok()) {
    std::fprintf(stderr, "XST_VALIDATE failed at %s:%d on %s: %s\n", file, line, expr,
                 st.ToString().c_str());
    std::fflush(stderr);
    std::abort();
  }
  return s;
}

}  // namespace internal

}  // namespace xst
