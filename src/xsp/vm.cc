#include "src/xsp/vm.h"

#include <algorithm>
#include <array>
#include <utility>

#include "src/common/check.h"
#include "src/common/hash.h"
#include "src/common/macros.h"
#include "src/core/order.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/ops/closure.h"
#include "src/ops/relative.h"
#include "src/ops/span_kernels.h"
#include "src/xsp/verify.h"

namespace xst {
namespace xsp {

namespace {

// One virtual register: an interned handle, or a raw canonical span living
// in the VmContext buffer the register is pinned to.
struct Reg {
  XSet set;
  std::vector<Membership>* buf = nullptr;
  bool interned = false;

  MemberSpan Span() const { return interned ? set.members() : MemberSpan(*buf); }
  uint64_t Rows() const { return interned ? set.cardinality() : buf->size(); }
};

// kLoadBinding and kLoadRange: moves an opened cursor's operand into `reg`,
// as the interned handle when the cursor has one, else as its batches
// concatenated in the register's buffer (batches are consecutive slices of
// one canonical list, so concatenation needs no re-sort).
Status LoadCursor(MemberCursor& cursor, Reg* reg) {
  if (std::optional<XSet> whole = cursor.WholeSet()) {
    reg->set = std::move(*whole);
    reg->interned = true;
    return Status::OK();
  }
  for (MemberSpan batch = cursor.NextBatch(); !batch.empty(); batch = cursor.NextBatch()) {
    reg->buf->insert(reg->buf->end(), batch.begin(), batch.end());
  }
  reg->interned = false;
  // A failed read also ends in an empty batch; a truncated operand must
  // not evaluate.
  return cursor.status();
}

void MirrorVmStats(const VmStats& stats) {
  static obs::Counter& programs =
      obs::MetricsRegistry::Global().GetCounter("xsp.vm.programs");
  static obs::Counter& instructions =
      obs::MetricsRegistry::Global().GetCounter("xsp.vm.instructions");
  static obs::Counter& materializations =
      obs::MetricsRegistry::Global().GetCounter("xsp.vm.materializations");
  programs.Increment();
  instructions.Add(stats.instructions);
  materializations.Add(stats.materializations);
}

// Per-opcode execution counters, named so a metrics dump reads as an
// opcode histogram ("xsp.vm.op.image": 12, ...). The table is built once
// under the magic-static guard, so concurrent VMs only ever read it.
void CountOpcode(OpCode op) {
  static const std::array<obs::Counter*, kNumOpCodes> counters = [] {
    std::array<obs::Counter*, kNumOpCodes> table{};
    for (size_t i = 0; i < kNumOpCodes; ++i) {
      table[i] = &obs::MetricsRegistry::Global().GetCounter(
          std::string("xsp.vm.op.") + OpCodeName(static_cast<OpCode>(i)));
    }
    return table;
  }();
  const size_t i = static_cast<size_t>(op);
  XST_DCHECK(i < kNumOpCodes);  // proven by VerifyProgram before dispatch
  counters[i]->Add(1);
}

}  // namespace

VmContext::~VmContext() = default;

size_t VmContext::arena_capacity() const {
  size_t total = 0;
  for (const std::vector<Membership>& buf : buffers_) total += buf.capacity();
  return total;
}

size_t VmContext::IndexKeyHash::operator()(const IndexKey& k) const {
  return static_cast<size_t>(
      HashCombine(HashCombine(reinterpret_cast<uintptr_t>(k.r),
                              reinterpret_cast<uintptr_t>(k.s1)),
                  reinterpret_cast<uintptr_t>(k.s2)));
}

namespace internal {

class VmExecutor {
 public:
  static Result<XSet> Run(const Program& program, const CursorSource& source,
                          VmContext* ctx, VmStats* stats, VmObserver* observer) {
    XST_TRACE_SPAN("xsp.vm.exec");
    if (program.code.empty()) return Status::Invalid("empty program");
    // Mandatory static pass at the XST_VM_VALIDATE tier (opt-in in Release
    // via XST_VERIFY_PROGRAMS): everything the XST_DCHECKs below assume —
    // register/table indexes in range, operands defined, kIndex /
    // kRelProduct / kClosure operands interned — is proven here, once per
    // program instead of once per dispatch.
    if (VmVerifyEnabled()) {
      XST_RETURN_NOT_OK(VerifyProgram(program));
    }

    // Pin each register to its arena buffer: cleared, capacity retained, so
    // a re-executed program allocates nothing once warm.
    if (ctx->buffers_.size() < program.num_regs) {
      ctx->buffers_.resize(program.num_regs);
    }
    for (std::vector<Membership>& buf : ctx->buffers_) buf.clear();
    std::vector<Reg> regs(program.num_regs);
    for (size_t i = 0; i < regs.size(); ++i) regs[i].buf = &ctx->buffers_[i];

    VmStats local;
    const uint16_t result_reg = program.code.back().dst;

    for (size_t pc = 0; pc < program.code.size(); ++pc) {
      const Instr& in = program.code[pc];
      XST_DCHECK(in.dst < regs.size());
      ++local.instructions;
      CountOpcode(in.op);
      if (observer != nullptr) observer->OnInstrStart(pc);
      const uint64_t t0 = observer != nullptr ? obs::MonotonicNowNs() : 0;
      const uint64_t intermediates0 = local.interned_intermediate_rows;

      // Every enumerator must be handled here — no default — so a new
      // opcode fails to compile (and lint's vm-opcode-dispatch rule fails)
      // until the VM learns it.
      switch (in.op) {
        case OpCode::kLoadLiteral: {
          XST_TRACE_SPAN("vm.load_literal");
          regs[in.dst].set = program.literals[in.a];
          regs[in.dst].interned = true;
          break;
        }
        case OpCode::kLoadBinding: {
          XST_TRACE_SPAN("vm.load_binding");
          XST_ASSIGN_OR_RAISE(std::unique_ptr<MemberCursor> cursor,
                              source.Open(program.names[in.a]));
          XST_RETURN_NOT_OK(LoadCursor(*cursor, &regs[in.dst]));
          break;
        }
        case OpCode::kUnion: {
          XST_TRACE_SPAN("vm.union");
          UnionSpans(regs[in.a].Span(), regs[in.b].Span(), regs[in.dst].buf);
          break;
        }
        case OpCode::kIntersect: {
          XST_TRACE_SPAN("vm.intersect");
          IntersectSpans(regs[in.a].Span(), regs[in.b].Span(), regs[in.dst].buf);
          break;
        }
        case OpCode::kDifference: {
          XST_TRACE_SPAN("vm.difference");
          DifferenceSpans(regs[in.a].Span(), regs[in.b].Span(), regs[in.dst].buf);
          break;
        }
        case OpCode::kRescope: {
          XST_TRACE_SPAN("vm.rescope");
          DomainSpans(regs[in.a].Span(), program.specs[in.spec].sigma.s1,
                      regs[in.dst].buf);
          break;
        }
        case OpCode::kRestrict: {
          XST_TRACE_SPAN("vm.restrict");
          RestrictSpans(regs[in.a].Span(), program.specs[in.spec].sigma.s1,
                        regs[in.b].Span(), regs[in.dst].buf);
          break;
        }
        case OpCode::kImage: {
          XST_TRACE_SPAN("vm.image");
          ImageSpans(regs[in.a].Span(), program.specs[in.spec].sigma,
                     regs[in.b].Span(), regs[in.dst].buf);
          break;
        }
        case OpCode::kIndex: {
          XST_TRACE_SPAN("vm.index");
          XST_DCHECK(regs[in.a].interned && regs[in.b].interned);
          const Sigma& sigma = program.specs[in.spec].sigma;
          ImageIndex& index = GetIndex(ctx, regs[in.a].set, sigma);
          regs[in.dst].set = index.Lookup(regs[in.b].set);
          regs[in.dst].interned = true;
          if (in.dst != result_reg) {
            local.interned_intermediate_rows += regs[in.dst].set.cardinality();
          }
          break;
        }
        case OpCode::kRelProduct: {
          XST_TRACE_SPAN("vm.rel_product");
          XST_DCHECK(regs[in.a].interned && regs[in.b].interned);
          const SpecEntry& spec = program.specs[in.spec];
          regs[in.dst].set =
              RelativeProduct(regs[in.a].set, regs[in.b].set, spec.sigma, spec.omega);
          regs[in.dst].interned = true;
          if (in.dst != result_reg) {
            local.interned_intermediate_rows += regs[in.dst].set.cardinality();
          }
          break;
        }
        case OpCode::kClosure: {
          XST_TRACE_SPAN("vm.closure");
          XST_DCHECK(regs[in.a].interned);
          XST_ASSIGN_OR_RAISE(regs[in.dst].set, TransitiveClosure(regs[in.a].set));
          regs[in.dst].interned = true;
          if (in.dst != result_reg) {
            local.interned_intermediate_rows += regs[in.dst].set.cardinality();
          }
          break;
        }
        case OpCode::kRange: {
          XST_TRACE_SPAN("vm.range");
          const Sigma& bounds = program.specs[in.spec].sigma;
          ElementRangeSpans(regs[in.a].Span(), bounds.s1, bounds.s2,
                            regs[in.dst].buf);
          break;
        }
        case OpCode::kLoadRange: {
          XST_TRACE_SPAN("vm.load_range");
          const Sigma& bounds = program.specs[in.spec].sigma;
          XST_ASSIGN_OR_RAISE(
              std::unique_ptr<MemberCursor> cursor,
              source.OpenElementRange(program.names[in.a], bounds.s1, bounds.s2));
          XST_RETURN_NOT_OK(LoadCursor(*cursor, &regs[in.dst]));
          break;
        }
        case OpCode::kMaterialize: {
          XST_TRACE_SPAN("vm.materialize");
          Reg& r = regs[in.dst];
          if (!r.interned) {
            // Copy out of the arena: FromSortedMembers takes ownership of
            // its vector, and donating the buffer would defeat reuse.
            std::vector<Membership> members(r.buf->begin(), r.buf->end());
            XST_DCHECK(IsCanonicalMemberList(members));
            r.set = XST_VM_VALIDATE(XSet::FromSortedMembers(std::move(members)));
            r.interned = true;
            ++local.materializations;
            if (in.dst != result_reg) {
              local.interned_intermediate_rows += r.set.cardinality();
            }
          }
          break;
        }
      }

      local.peak_rows = std::max(local.peak_rows, regs[in.dst].Rows());
      if (observer != nullptr) {
        observer->OnInstr(pc, in, regs[in.dst].Rows(), regs[in.dst].interned,
                          local.interned_intermediate_rows > intermediates0,
                          obs::MonotonicNowNs() - t0);
      }
    }

    MirrorVmStats(local);
    if (stats != nullptr) {
      stats->instructions += local.instructions;
      stats->materializations += local.materializations;
      stats->interned_intermediate_rows += local.interned_intermediate_rows;
      stats->peak_rows = std::max(stats->peak_rows, local.peak_rows);
    }
    XST_DCHECK(regs[result_reg].interned);  // verifier: final kMaterialize
    return regs[result_reg].set;
  }

 private:
  static ImageIndex& GetIndex(VmContext* ctx, const XSet& r, const Sigma& sigma) {
    VmContext::IndexKey key{r.node(), sigma.s1.node(), sigma.s2.node()};
    std::unique_ptr<ImageIndex>& slot = ctx->index_cache_[key];
    if (slot == nullptr) slot = std::make_unique<ImageIndex>(r, sigma);
    return *slot;
  }
};

}  // namespace internal

Result<XSet> VmEval(const Program& program, const CursorSource& source,
                    VmContext* ctx, VmStats* stats, VmObserver* observer) {
  VmContext scratch;
  return internal::VmExecutor::Run(program, source, ctx != nullptr ? ctx : &scratch,
                                   stats, observer);
}

Result<XSet> VmEval(const Program& program, const Bindings& bindings,
                    VmContext* ctx, VmStats* stats, VmObserver* observer) {
  MapCursorSource source(bindings);
  return VmEval(program, source, ctx, stats, observer);
}

}  // namespace xsp
}  // namespace xst
