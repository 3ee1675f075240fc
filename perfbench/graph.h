// The seeded Dexter hypertext graph and its independent model.
//
// Shape (after "An Algebraic Dexter-Based Hypertext Reference Model"):
// components own anchors, and links run from a source anchor to a
// destination anchor. Each relation is a stored set of ordered pairs:
//
//   comp_anchor  {<c, a>}   anchor resolution: image of a component
//   anchor_link  {<a, l>}   out-links of an anchor (the link index)
//   link_dst     {<l, a>}   destination anchor of a link
//   c<c>         {<i, v>}   the component's 24-member content blob
//
// Identifiers live in disjoint integer bands (components < anchors < links),
// so in the structural order every pair <x, y> of comp_anchor and
// anchor_link sorts by x first, and an element range over one component's
// anchors (or one anchor interval's links) is a contiguous slice of the
// ordered index — the shape `range[...]` seeks.
//
// The model is plain std containers filled by the same generator; it never
// calls into the library, so it can check every answer the store returns.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/core/xset.h"

namespace dexter {

inline constexpr int64_t kAnchorBase = int64_t{1} << 20;
inline constexpr int64_t kAnchorSlots = 8;  // anchor ids reserved per component
inline constexpr int64_t kLinkBase = int64_t{1} << 30;
inline constexpr int64_t kNewLinkBase = int64_t{1} << 36;  // links added by edits
inline constexpr int64_t kTop = int64_t{1} << 40;           // above every id
inline constexpr int kBlobMembers = 24;

/// splitmix64: small, seedable, and identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

inline uint64_t Mix(uint64_t a, uint64_t b) { return Rng(a * 0x9e3779b97f4a7c15ull ^ b).Next(); }

/// Zipf(s) over ranks [0, n), drawn by inverse CDF.
class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n) {
    double sum = 0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Draw(Rng& rng) const {
    const double u = rng.Unit();
    const size_t i = std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
    return std::min(i, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

struct GraphShape {
  int64_t components = 0;
  // Narrow ranges by default: with Zipf-skewed reads a handful of hot
  // components carry much of the load, and their sizes should not decide a
  // run's latency more than the code under test does.
  int min_anchors = 5;  ///< anchors per component, uniform in [min, max]
  int max_anchors = 7;
  int min_out = 3;      ///< out-links per anchor, uniform in [min_out, max_out]
  int max_out = 5;
  double local_share = 0.75;  ///< links whose target is within ±8 components
};

inline int64_t AnchorId(int64_t comp, int64_t j) { return kAnchorBase + comp * kAnchorSlots + j; }
inline int64_t AnchorSlot(int64_t anchor) { return anchor - kAnchorBase; }
inline int64_t ComponentOf(int64_t anchor) { return AnchorSlot(anchor) / kAnchorSlots; }

/// The content blob of component `comp` at `version`.
inline std::vector<int64_t> BlobPayload(uint64_t seed, int64_t comp, uint64_t version) {
  std::vector<int64_t> v(kBlobMembers);
  for (int i = 0; i < kBlobMembers; ++i) {
    v[i] = static_cast<int64_t>(
        Mix(Mix(seed, static_cast<uint64_t>(comp)), version * 64 + static_cast<uint64_t>(i)) &
        0x7fffffff);
  }
  return v;
}

/// The generated graph. Immutable after Generate(); `out` and `blob` also
/// seed the mutable Model.
struct Graph {
  uint64_t seed = 0;
  GraphShape shape;
  std::vector<int> anchors;                 ///< anchors per component
  std::vector<std::vector<int64_t>> out;    ///< out-links per anchor slot
  std::vector<int64_t> link_dst;            ///< destination anchor per link
  std::vector<std::vector<int64_t>> blob;   ///< payload per component

  int64_t links() const { return static_cast<int64_t>(link_dst.size()); }

  static Graph Generate(uint64_t seed, const GraphShape& shape) {
    Graph g;
    g.seed = seed;
    g.shape = shape;
    Rng rng(Mix(seed, 0x6772617068));
    const int64_t n = shape.components;
    g.anchors.resize(n);
    for (int64_t c = 0; c < n; ++c) {
      g.anchors[c] = shape.min_anchors +
                     static_cast<int>(rng.Below(shape.max_anchors - shape.min_anchors + 1));
    }
    g.out.resize(n * kAnchorSlots);
    for (int64_t c = 0; c < n; ++c) {
      for (int j = 0; j < g.anchors[c]; ++j) {
        const int degree =
            shape.min_out + static_cast<int>(rng.Below(shape.max_out - shape.min_out + 1));
        for (int d = 0; d < degree; ++d) {
          int64_t target = rng.Unit() < shape.local_share
                               ? (c + static_cast<int64_t>(rng.Below(17)) - 8 + n) % n
                               : static_cast<int64_t>(rng.Below(n));
          const int64_t dst = AnchorId(target, static_cast<int64_t>(rng.Below(g.anchors[target])));
          g.out[c * kAnchorSlots + j].push_back(kLinkBase + g.links());
          g.link_dst.push_back(dst);
        }
      }
    }
    g.blob.resize(n);
    for (int64_t c = 0; c < n; ++c) g.blob[c] = BlobPayload(seed, c, 0);
    return g;
  }
};

/// The mutable model the edit workload's acknowledged writes are applied to.
struct Model {
  std::vector<std::set<int64_t>> out;       ///< current out-links per anchor slot
  std::vector<std::vector<int64_t>> blob;   ///< current payload per component

  explicit Model(const Graph& g) : blob(g.blob) {
    out.reserve(g.out.size());
    for (const std::vector<int64_t>& links : g.out) out.emplace_back(links.begin(), links.end());
  }

  /// Out-links of every anchor slot in [lo_slot, hi_slot], as (anchor, link).
  std::vector<std::pair<int64_t, int64_t>> LinksFrom(int64_t lo_slot, int64_t hi_slot) const {
    std::vector<std::pair<int64_t, int64_t>> r;
    for (int64_t s = std::max<int64_t>(lo_slot, 0);
         s <= hi_slot && s < static_cast<int64_t>(out.size()); ++s) {
      for (int64_t l : out[s]) r.emplace_back(kAnchorBase + s, l);
    }
    return r;
  }
};

// -- Reading results back into plain integers --------------------------------

/// {<x>, ...} → sorted x values; false unless every member has that shape.
inline bool UnaryInts(const xst::XSet& s, std::vector<int64_t>* out) {
  out->clear();
  if (!s.is_set()) return false;
  for (const xst::Membership& m : s.members()) {
    if (!m.scope.empty()) return false;
    const std::span<const xst::Membership> t = m.element.members();
    if (t.size() != 1 || !t[0].element.is_int() || !t[0].scope.is_int() ||
        t[0].scope.int_value() != 1) {
      return false;
    }
    out->push_back(t[0].element.int_value());
  }
  std::sort(out->begin(), out->end());
  return true;
}

/// {<x, y>, ...} → sorted (x, y) values; false unless every member is a pair
/// of integers under the empty scope.
inline bool PairInts(const xst::XSet& s, std::vector<std::pair<int64_t, int64_t>>* out) {
  out->clear();
  if (!s.is_set()) return false;
  for (const xst::Membership& m : s.members()) {
    if (!m.scope.empty()) return false;
    const std::span<const xst::Membership> t = m.element.members();
    if (t.size() != 2) return false;
    int64_t x = 0, y = 0;
    int seen = 0;
    for (const xst::Membership& c : t) {
      if (!c.element.is_int() || !c.scope.is_int()) return false;
      if (c.scope.int_value() == 1) {
        x = c.element.int_value();
        seen |= 1;
      } else if (c.scope.int_value() == 2) {
        y = c.element.int_value();
        seen |= 2;
      }
    }
    if (seen != 3) return false;
    out->emplace_back(x, y);
  }
  std::sort(out->begin(), out->end());
  return true;
}

// -- Building stored values ----------------------------------------------------

inline xst::XSet IntPair(int64_t x, int64_t y) {
  return xst::XSet::Pair(xst::XSet::Int(x), xst::XSet::Int(y));
}

inline xst::XSet BlobSet(const std::vector<int64_t>& payload) {
  std::vector<xst::Membership> ms;
  ms.reserve(payload.size());
  for (size_t i = 0; i < payload.size(); ++i) {
    ms.push_back(xst::M(IntPair(static_cast<int64_t>(i), payload[i])));
  }
  return xst::XSet::FromMembers(std::move(ms));
}

inline std::string BlobName(int64_t comp) { return "c" + std::to_string(comp); }

}  // namespace dexter
