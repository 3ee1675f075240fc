#include "src/core/xset.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/core/interner.h"
#include "src/core/order.h"
#include "src/core/print.h"

namespace xst {

XSet::XSet() : node_(Interner::Global().EmptySet()) {}

XSet XSet::Empty() { return XSet(Interner::Global().EmptySet()); }

XSet XSet::Int(int64_t v) { return XSet(Interner::Global().Int(v)); }

XSet XSet::Symbol(std::string_view name) { return XSet(Interner::Global().Symbol(name)); }

XSet XSet::String(std::string_view text) { return XSet(Interner::Global().String(text)); }

XSet XSet::FromMembers(std::vector<Membership> members) {
  CanonicalizeMembers(&members);
  return XSet(Interner::Global().Set(std::move(members)));
}

XSet XSet::FromSortedMembers(std::vector<Membership> members) {
  // Release builds trust the caller (that is the point of the fast path);
  // debug builds fail loudly on a producer that broke the merge contract.
  XST_DCHECK(IsCanonicalMemberList(members));
  return XSet(Interner::Global().Set(std::move(members)));
}

XSet XSet::Classical(const std::vector<XSet>& elements) {
  std::vector<Membership> members;
  members.reserve(elements.size());
  XSet empty = Empty();
  for (const XSet& e : elements) members.push_back(Membership{e, empty});
  return FromMembers(std::move(members));
}

XSet XSet::Tuple(const std::vector<XSet>& elements) {
  std::vector<Membership> members;
  members.reserve(elements.size());
  for (size_t i = 0; i < elements.size(); ++i) {
    members.push_back(Membership{elements[i], Int(static_cast<int64_t>(i + 1))});
  }
  return FromMembers(std::move(members));
}

XSet XSet::Pair(const XSet& a, const XSet& b) { return Tuple({a, b}); }

NodeKind XSet::kind() const { return node_->kind; }

bool XSet::empty() const { return node_->kind == NodeKind::kSet && node_->members.empty(); }

int64_t XSet::int_value() const { return node_->int_value; }

const std::string& XSet::str_value() const { return node_->str_value; }

std::span<const Membership> XSet::members() const {
  if (node_->kind != NodeKind::kSet) return {};
  return {node_->members.data(), node_->members.size()};
}

size_t XSet::cardinality() const {
  return node_->kind == NodeKind::kSet ? node_->members.size() : 0;
}

namespace {

// Binary search for the first membership whose element is `element`.
// Memberships are sorted by (element, scope), so all scopes of one element
// are contiguous.
std::span<const Membership>::iterator LowerBoundElement(std::span<const Membership> ms,
                                                        const XSet& element) {
  return std::lower_bound(ms.begin(), ms.end(), element,
                          [](const Membership& m, const XSet& e) {
                            return Compare(m.element, e) < 0;
                          });
}

}  // namespace

bool XSet::Contains(const XSet& element, const XSet& scope) const {
  auto ms = members();
  for (auto it = LowerBoundElement(ms, element); it != ms.end() && it->element == element;
       ++it) {
    if (it->scope == scope) return true;
  }
  return false;
}

bool XSet::ContainsClassical(const XSet& element) const {
  return Contains(element, Empty());
}

bool XSet::ContainsUnderAnyScope(const XSet& element) const {
  auto ms = members();
  auto it = LowerBoundElement(ms, element);
  return it != ms.end() && it->element == element;
}

std::vector<XSet> XSet::ScopesOf(const XSet& element) const {
  std::vector<XSet> scopes;
  auto ms = members();
  for (auto it = LowerBoundElement(ms, element); it != ms.end() && it->element == element;
       ++it) {
    scopes.push_back(it->scope);
  }
  return scopes;
}

std::vector<XSet> XSet::ElementsWithScope(const XSet& scope) const {
  std::vector<XSet> elements;
  for (const Membership& m : members()) {
    if (m.scope == scope) elements.push_back(m.element);
  }
  return elements;
}

uint64_t XSet::hash() const { return node_->hash; }

uint32_t XSet::depth() const { return node_->depth; }

uint64_t XSet::tree_size() const { return node_->tree_size; }

std::string XSet::ToString() const { return Print(*this); }

}  // namespace xst
