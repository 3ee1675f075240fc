// Compilation of XSP plans to flat register bytecode.
//
// The reference evaluator (eval.cc) materializes an interned XSet at every
// node; the compiled form exists to NOT do that. Compile() lowers an
// (ideally already optimized) ExprPtr tree to a linear Program over virtual
// registers, which the VM (vm.h) executes over raw membership spans in a
// reusable scratch arena — a restrict∘image∘boolean chain becomes a fused
// run of span kernels with a single FromSortedMembers intern at the end.
//
// Opcode catalog (DESIGN.md §11):
//   kLoadLiteral   dst ← literals[a]                (interned)
//   kLoadBinding   dst ← cursor over names[a]       (interned or streamed)
//   kUnion         dst ← a ∪ b                      (span merge)
//   kIntersect     dst ← a ∩ b                      (span merge/gallop/hash)
//   kDifference    dst ← a ∼ b                      (span merge)
//   kRescope       dst ← 𝔇_σ(a)                     (σ-domain rescope loop)
//   kRestrict      dst ← a |_σ b                    (span filter)
//   kImage         dst ← a[b]_σ                     (fused filter+rescope)
//   kIndex         dst ← a[b]_σ via ImageIndex      (cached per VmContext)
//   kRelProduct    dst ← a /σω b                    (materialized operands)
//   kClosure       dst ← a⁺                         (materialized operand)
//   kMaterialize   dst ← intern(dst)                (FromSortedMembers)
//   kRange         dst ← {z^w ∈ a : lo ≤ z ≤ hi}    (contiguous span slice)
//   kLoadRange     dst ← range cursor over names[a] (ordered-index access
//                  path: CursorSource::OpenElementRange seeks the lower
//                  edge; a B+tree-backed source reads only in-range leaves)
//
// The VM's dispatch switch over this enum must be exhaustive; lint enforces
// it (vm-opcode-dispatch in tools/xst_lint.py).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/xsp/expr.h"

namespace xst {
namespace xsp {

enum class OpCode : uint8_t {
  kLoadLiteral,
  kLoadBinding,
  kUnion,
  kIntersect,
  kDifference,
  kRescope,
  kRestrict,
  kImage,
  kIndex,
  kRelProduct,
  kClosure,
  kMaterialize,
  kRange,
  kLoadRange,
};

/// \brief Number of OpCode enumerators (bounds per-opcode stats arrays).
inline constexpr size_t kNumOpCodes = 14;

/// \brief Static name of an opcode ("LoadBinding", "Image", ...).
const char* OpCodeName(OpCode op);

/// \brief One instruction. `a`/`b` are operand registers except for the
/// loads, where `a` indexes Program::literals / Program::names. `spec`
/// indexes Program::specs for the σ/ω-carrying opcodes and is 0 otherwise.
struct Instr {
  OpCode op = OpCode::kMaterialize;
  uint16_t dst = 0;
  uint16_t a = 0;
  uint16_t b = 0;
  uint16_t spec = 0;
};

/// \brief σ (and for kRelProduct also ω) attached to an instruction. The
/// range opcodes reuse sigma as the interval: s1 = lo, s2 = hi.
struct SpecEntry {
  Sigma sigma{XSet::Empty(), XSet::Empty()};
  Sigma omega{XSet::Empty(), XSet::Empty()};
};

/// \brief A compiled plan: straight-line code in operand-before-use order,
/// ending with a kMaterialize of the result register (the only instruction
/// that interns on the fused span path).
struct Program {
  std::vector<Instr> code;
  std::vector<XSet> literals;
  std::vector<std::string> names;
  std::vector<SpecEntry> specs;
  uint16_t num_regs = 0;

  /// \brief Disassembly of instruction `pc` as one line, without the
  /// newline: control characters in literal previews and binding names are
  /// escaped, so the line never breaks.
  std::string InstrToString(size_t pc) const;

  /// \brief Human-readable disassembly: InstrToString for each instruction,
  /// one per line.
  std::string ToString() const;
};

/// \brief Lowers `expr` to bytecode. Shared subtrees (pointer-identical
/// nodes, as the optimizer's rewrites produce) compile once and share a
/// register. Fails on null nodes or register/operand-table overflow.
Result<Program> Compile(const ExprPtr& expr);

}  // namespace xsp
}  // namespace xst
