// A register VM executing compiled XSP programs (compile.h) over batched
// membership spans.
//
// Registers hold either an interned XSet handle or a raw canonical
// membership span living in a VmContext scratch buffer. The span kernels
// (src/ops/span_kernels.h) keep every result canonical, so a fused
// restrict∘image∘boolean chain flows span → span → span and only the final
// kMaterialize interns — via XSet::FromSortedMembers, validated at the Vm
// tier (XST_VM_VALIDATE in src/common/check.h). Operands stream in through
// the MemberCursor abstraction (src/core/cursor.h), uniformly for
// in-memory bindings and SetStore-resident sets.
//
// The VmContext is the per-execution scratch arena, reusing the PR1
// RelativeProduct arena pattern at program granularity: buffers are cleared
// but never shrunk between executions, so a hot program's steady state
// allocates nothing, and root-level ImageIndex access paths persist in it
// across executions of the same carrier.
//
// Observability: every dispatch runs under a per-opcode XST_TRACE_SPAN
// ("vm.union", "vm.image", ...), per-opcode counters land in the metrics
// registry under "xsp.vm.op.<name>", and the VmObserver seam feeds EXPLAIN
// ANALYZE (analyze.h) with per-instruction rows/self-time.

#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/result.h"
#include "src/core/cursor.h"
#include "src/ops/image.h"
#include "src/ops/index.h"
#include "src/xsp/compile.h"

namespace xst {
namespace xsp {

namespace internal {
class VmExecutor;
}  // namespace internal

/// \brief Execution statistics for one (or more, when accumulated) VM runs.
///
/// The VM's materialization accounting is intentionally different from
/// EvalStats: the reference evaluator counts every non-root operator output
/// (everything it materializes), the VM counts only what actually reached
/// the interner — which for a fused span chain is nothing but the root.
struct VmStats {
  uint64_t instructions = 0;
  /// FromSortedMembers interns performed (the root's counts too).
  uint64_t materializations = 0;
  /// Total rows of interned non-result values — 0 for a fully fused chain.
  uint64_t interned_intermediate_rows = 0;
  /// Largest register value produced (span or interned), in rows.
  uint64_t peak_rows = 0;
};

/// \brief Per-instruction hooks, the seam EXPLAIN ANALYZE rides.
/// Self-time is measured by the VM (dispatch to dispatch) only while an
/// observer is installed.
class VmObserver {
 public:
  virtual ~VmObserver() = default;

  /// \brief Called before instruction `pc` dispatches (counter snapshots).
  virtual void OnInstrStart(size_t pc) = 0;

  /// \brief Called after instruction `pc` produced `out_rows` rows
  /// (interned handle or span) in `self_ns` nanoseconds.
  /// `interned_intermediate` is true exactly when the instruction interned
  /// a non-result value — the rows VmStats::interned_intermediate_rows
  /// accumulates, so an observer's per-instruction view can reconstruct the
  /// stats totals exactly.
  virtual void OnInstr(size_t pc, const Instr& instr, uint64_t out_rows,
                       bool out_interned, bool interned_intermediate,
                       uint64_t self_ns) = 0;
};

/// \brief Reusable per-execution scratch state: one arena buffer per
/// register plus the ImageIndex cache for kIndex access paths.
class VmContext {
 public:
  VmContext() = default;
  ~VmContext();
  VmContext(const VmContext&) = delete;
  VmContext& operator=(const VmContext&) = delete;

  /// \brief Number of register buffers currently held.
  size_t arena_buffers() const { return buffers_.size(); }

  /// \brief Total Membership slots reserved across buffers — steady under
  /// repeated execution of the same program (the arena-reuse invariant the
  /// tests pin down).
  size_t arena_capacity() const;

  /// \brief Resident ImageIndex access paths.
  size_t index_cache_size() const { return index_cache_.size(); }

 private:
  friend class internal::VmExecutor;

  struct IndexKey {
    const void* r;
    const void* s1;
    const void* s2;
    bool operator==(const IndexKey& o) const {
      return r == o.r && s1 == o.s1 && s2 == o.s2;
    }
  };
  struct IndexKeyHash {
    size_t operator()(const IndexKey& k) const;
  };

  std::vector<std::vector<Membership>> buffers_;
  std::unordered_map<IndexKey, std::unique_ptr<ImageIndex>, IndexKeyHash> index_cache_;
};

/// \brief Executes `program`, resolving kLoadBinding operands through
/// `source`. `ctx`, `stats` and `observer` may be null; a null `ctx` uses a
/// throwaway arena.
Result<XSet> VmEval(const Program& program, const CursorSource& source,
                    VmContext* ctx = nullptr, VmStats* stats = nullptr,
                    VmObserver* observer = nullptr);

/// \brief Convenience overload over an in-memory binding environment.
Result<XSet> VmEval(const Program& program, const Bindings& bindings,
                    VmContext* ctx = nullptr, VmStats* stats = nullptr,
                    VmObserver* observer = nullptr);

}  // namespace xsp
}  // namespace xst
