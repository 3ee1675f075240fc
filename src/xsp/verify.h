// Static verification of compiled XSP programs (compile.h), run BEFORE the
// VM trusts a Program's bytes.
//
// The VM (vm.h) executes straight-line register code with raw table and
// register indexing on its hot path; a compiler bug that emits an undefined
// register, confuses a span with an interned handle, or points a load at a
// missing literal would become silent memory corruption at execution time.
// Verify() is an abstract interpreter over the 14-opcode Program that
// proves, once per program instead of once per dispatch:
//
//   (a) def-before-use and single assignment: every register operand was
//       defined by an earlier instruction, and every register is defined by
//       exactly one value-producing instruction (kMaterialize transitions a
//       register in place and is the one re-write allowed);
//   (b) a register type discipline over the lattice
//
//             span            least knowledge: possibly a raw arena span
//              |
//            handle           statically interned (hash-consed, stable)
//              |
//         materialized        interned via an explicit kMaterialize
//              |
//            uninit           bottom: never written
//
//       with per-opcode transfer functions: the fused span kernels
//       (kUnion..kImage) consume any defined register and produce spans;
//       kIndex / kRelProduct / kClosure delegate to set-level kernels and
//       require statically interned operands (handle or materialized) — a
//       stable carrier for the VmContext ImageIndex cache in kIndex's case;
//       kMaterialize is the only span -> handle transition;
//   (c) every literal / binding-name / spec table index in range, and the
//       root register defined exactly once;
//   (d) structural limits: opcode bytes inside the enum, register count and
//       program length bounded, every allocated register defined, and no
//       instruction after the root materialization (the final instruction
//       is the kMaterialize the VM reads the result register from).
//
// Every diagnostic names the offending instruction index ("instr 3
// (Union): ..."), so a rejected program is debuggable from the status text
// alone.
//
// Wiring: VmEval runs VerifyProgram as a mandatory pass at the
// XST_VM_VALIDATE tier (debug builds and XST_VALIDATE_LEVEL >= 1); Release
// builds opt in with the XST_VERIFY_PROGRAMS environment variable. EXPLAIN
// ANALYZE labels each instruction row with VerifiedProgram::InstrToString,
// and `xstctl verify` prints VerifiedProgram::ToString(): the typed listing
// of the proof the verifier computed, one line per instruction.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/xsp/compile.h"

namespace xst {
namespace xsp {

/// \brief Abstract type of a register, ordered by how much the verifier
/// knows about its runtime representation (see the lattice above).
enum class RegType : uint8_t {
  kUninit,        ///< never written
  kSpan,          ///< possibly a raw canonical span in the VmContext arena
  kHandle,        ///< statically interned handle
  kMaterialized,  ///< interned via an explicit kMaterialize
};

/// \brief Number of RegType enumerators.
inline constexpr size_t kNumRegTypes = 4;

/// \brief Static name of a register type ("uninit", "span", ...).
const char* RegTypeName(RegType type);

/// \brief True when `type` is statically known interned (what kIndex /
/// kRelProduct / kClosure operands must be).
inline bool IsInterned(RegType type) {
  return type == RegType::kHandle || type == RegType::kMaterialized;
}

/// \brief The verifier's per-instruction judgment: operand types observed
/// before the instruction and the destination type after it. Operand slots
/// that are not registers for the opcode (table indexes, unused fields)
/// stay kUninit.
struct InstrTypes {
  RegType a_before = RegType::kUninit;
  RegType b_before = RegType::kUninit;
  RegType dst_after = RegType::kUninit;
};

/// \brief Hard ceiling on code.size(); a Program longer than this is
/// rejected outright (structural limit (d)).
inline constexpr size_t kMaxProgramLength = size_t{1} << 20;

/// \brief A Program together with the proof Verify() computed for it. The
/// program inside is the one that was verified — callers hand the checked
/// bytes to the VM instead of re-fetching them from anywhere mutable.
class VerifiedProgram {
 public:
  /// \brief The verified program (byte-identical to what Verify was given).
  const Program& program() const { return program_; }

  /// \brief Per-instruction type judgments, parallel to program().code.
  const std::vector<InstrTypes>& instr_types() const { return instr_types_; }

  /// \brief The register the final kMaterialize pins the result in.
  uint16_t root_reg() const { return root_reg_; }

  /// \brief Typed line of instruction `pc`, without the newline: its
  /// Program::InstrToString annotated with the operand types consumed and
  /// the destination type produced, e.g.
  ///   2: Union r2 <- r0, r1   ; r0:handle, r1:span -> r2:span
  std::string InstrToString(size_t pc) const;

  /// \brief Typed disassembly: InstrToString for each instruction, one per
  /// line.
  std::string ToString() const;

 private:
  friend Result<VerifiedProgram> Verify(Program program);

  Program program_;
  std::vector<InstrTypes> instr_types_;
  uint16_t root_reg_ = 0;
};

/// \brief Verifies `program` and, on success, returns it packaged with the
/// computed type proof. Rejections are Status::Invalid naming the offending
/// instruction index.
Result<VerifiedProgram> Verify(Program program);

/// \brief The same judgment as Verify() without materializing the proof —
/// no copy, no per-instruction type table kept. This is the form VmEval
/// calls on its hot path.
Status VerifyProgram(const Program& program);

/// \brief True when VmEval verifies programs before executing them: always
/// at the XST_VM_VALIDATE tier (debug builds or XST_VALIDATE_LEVEL >= 1),
/// and in Release when the XST_VERIFY_PROGRAMS environment variable is set
/// to anything but "0".
bool VmVerifyEnabled();

}  // namespace xsp
}  // namespace xst
