// ImageIndex: an access path for the image family R[·]_σ.
//
// Image evaluation scans the carrier once per probe set. When the same
// carrier is queried repeatedly — the normal regime for a stored relation or
// a composed process — a hash index over the σ₁-keys turns each lookup into
// O(|probes| + |result|). This is the paper's "dynamically manage data
// access performance": the index is pure representation, invisible in the
// algebra (Lookup is extensionally equal to Image, which the tests check on
// random data).
//
// The index covers probes in the singleton shape that selection and
// application produce: probe members a^s whose re-scope a^{\σ₁\} is a single
// membership with an ∅ scope-probe (s^{\σ₁\} = ∅). Probe members outside
// that shape fall back to the image kernel (ImageSpans) over the full
// carrier, so Lookup is always correct.

#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "src/core/xset.h"
#include "src/ops/image.h"
#include "src/ops/span_kernels.h"

namespace xst {

class ImageIndex {
 public:
  /// \brief Builds the index for R[·]_σ. O(|r| · member width).
  ImageIndex(XSet r, Sigma sigma);

  /// \brief Extensionally equal to Image(relation(), probes, sigma()).
  XSet Lookup(const XSet& probes) const;

  const XSet& relation() const { return r_; }
  const Sigma& sigma() const { return sigma_; }

  /// \brief Number of distinct σ₁-keys in the index.
  size_t key_count() const { return buckets_.size(); }
  /// \brief How many Lookup probe members took the general fallback.
  uint64_t fallback_count() const { return fallbacks_; }

 private:
  using Buckets = std::unordered_map<Membership, std::vector<Membership>, MembershipHash>;

  XSet r_;
  Sigma sigma_;
  // inner membership of a carrier member → the σ₂-projections ⟨x, s⟩ of
  // every carrier membership containing it.
  Buckets buckets_;
  mutable uint64_t fallbacks_ = 0;
};

}  // namespace xst
