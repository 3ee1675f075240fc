#include "src/xsp/verify.h"

#include <cstdlib>
#include <cstring>
#include <utility>

#include "src/common/check.h"
#include "src/common/macros.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace xst {
namespace xsp {

namespace {

void CountVerification(bool accepted) {
  static obs::Counter& programs =
      obs::MetricsRegistry::Global().GetCounter("xsp.verify.programs");
  static obs::Counter& rejections =
      obs::MetricsRegistry::Global().GetCounter("xsp.verify.rejections");
  programs.Increment();
  if (!accepted) rejections.Increment();
}

Status Fail(size_t pc, OpCode op, const std::string& message) {
  return Status::Invalid("verify: instr " + std::to_string(pc) + " (" +
                         OpCodeName(op) + "): " + message);
}

// One abstract step. `types` is the register state before the instruction;
// on success it reflects the state after, and `judgment` records the
// operand types consumed (register operands only) and the dst type
// produced. The switch must stay exhaustive with no default so a new
// opcode cannot execute unverified (vm-opcode-dispatch lint rule).
Status Step(const Program& p, size_t pc, std::vector<RegType>& types,
            InstrTypes* judgment) {
  const Instr& in = p.code[pc];
  if (static_cast<size_t>(in.op) >= kNumOpCodes) {
    return Status::Invalid("verify: instr " + std::to_string(pc) +
                           ": invalid opcode byte " +
                           std::to_string(static_cast<unsigned>(in.op)));
  }
  if (in.dst >= p.num_regs) {
    return Fail(pc, in.op,
                "dst r" + std::to_string(in.dst) + " out of range (num_regs=" +
                    std::to_string(p.num_regs) + ")");
  }

  // Field-shape helpers shared by the cases below. Every rule reports the
  // instruction index through Fail().
  auto require_zero = [&](uint16_t field, const char* what) -> Status {
    if (field != 0) {
      return Fail(pc, in.op, std::string("unused ") + what +
                                 " field must be 0, got " + std::to_string(field));
    }
    return Status::OK();
  };
  auto table_index = [&](uint16_t index, size_t size, const char* table) -> Status {
    if (index >= size) {
      return Fail(pc, in.op, std::string(table) + " index " + std::to_string(index) +
                                 " out of range [0," + std::to_string(size) + ")");
    }
    return Status::OK();
  };
  auto reg_operand = [&](uint16_t reg, RegType* seen) -> Status {
    if (reg >= p.num_regs) {
      return Fail(pc, in.op, "operand r" + std::to_string(reg) +
                                 " out of range (num_regs=" +
                                 std::to_string(p.num_regs) + ")");
    }
    if (types[reg] == RegType::kUninit) {
      return Fail(pc, in.op,
                  "operand r" + std::to_string(reg) + " used before definition");
    }
    *seen = types[reg];
    return Status::OK();
  };
  auto interned_operand = [&](uint16_t reg, RegType* seen) -> Status {
    XST_RETURN_NOT_OK(reg_operand(reg, seen));
    if (!IsInterned(*seen)) {
      return Fail(pc, in.op, "operand r" + std::to_string(reg) + " has type " +
                                 RegTypeName(*seen) +
                                 "; a statically interned carrier (handle or "
                                 "materialized) is required");
    }
    return Status::OK();
  };
  // Single assignment: kMaterialize transitions in place (handled in its
  // case); every other opcode must write a fresh register.
  auto fresh_dst = [&](RegType result) -> Status {
    if (types[in.dst] != RegType::kUninit) {
      return Fail(pc, in.op, "dst r" + std::to_string(in.dst) +
                                 " already defined (single-assignment violation)");
    }
    types[in.dst] = result;
    judgment->dst_after = result;
    return Status::OK();
  };

  switch (in.op) {
    case OpCode::kLoadLiteral: {
      XST_RETURN_NOT_OK(table_index(in.a, p.literals.size(), "literal"));
      XST_RETURN_NOT_OK(require_zero(in.b, "b"));
      XST_RETURN_NOT_OK(require_zero(in.spec, "spec"));
      return fresh_dst(RegType::kHandle);
    }
    case OpCode::kLoadBinding: {
      XST_RETURN_NOT_OK(table_index(in.a, p.names.size(), "binding name"));
      XST_RETURN_NOT_OK(require_zero(in.b, "b"));
      XST_RETURN_NOT_OK(require_zero(in.spec, "spec"));
      // A binding may stream in as a raw span or resolve to a whole interned
      // set; span is the sound join of the two.
      return fresh_dst(RegType::kSpan);
    }
    case OpCode::kUnion:
    case OpCode::kIntersect:
    case OpCode::kDifference: {
      XST_RETURN_NOT_OK(require_zero(in.spec, "spec"));
      XST_RETURN_NOT_OK(reg_operand(in.a, &judgment->a_before));
      XST_RETURN_NOT_OK(reg_operand(in.b, &judgment->b_before));
      return fresh_dst(RegType::kSpan);
    }
    case OpCode::kRescope: {
      XST_RETURN_NOT_OK(require_zero(in.b, "b"));
      XST_RETURN_NOT_OK(table_index(in.spec, p.specs.size(), "spec"));
      XST_RETURN_NOT_OK(reg_operand(in.a, &judgment->a_before));
      return fresh_dst(RegType::kSpan);
    }
    case OpCode::kRestrict:
    case OpCode::kImage: {
      XST_RETURN_NOT_OK(table_index(in.spec, p.specs.size(), "spec"));
      XST_RETURN_NOT_OK(reg_operand(in.a, &judgment->a_before));
      XST_RETURN_NOT_OK(reg_operand(in.b, &judgment->b_before));
      return fresh_dst(RegType::kSpan);
    }
    case OpCode::kIndex:
    case OpCode::kRelProduct: {
      XST_RETURN_NOT_OK(table_index(in.spec, p.specs.size(), "spec"));
      XST_RETURN_NOT_OK(interned_operand(in.a, &judgment->a_before));
      XST_RETURN_NOT_OK(interned_operand(in.b, &judgment->b_before));
      return fresh_dst(RegType::kHandle);
    }
    case OpCode::kClosure: {
      XST_RETURN_NOT_OK(require_zero(in.b, "b"));
      XST_RETURN_NOT_OK(require_zero(in.spec, "spec"));
      XST_RETURN_NOT_OK(interned_operand(in.a, &judgment->a_before));
      return fresh_dst(RegType::kHandle);
    }
    case OpCode::kRange: {
      XST_RETURN_NOT_OK(require_zero(in.b, "b"));
      XST_RETURN_NOT_OK(table_index(in.spec, p.specs.size(), "spec"));
      XST_RETURN_NOT_OK(reg_operand(in.a, &judgment->a_before));
      return fresh_dst(RegType::kSpan);
    }
    case OpCode::kLoadRange: {
      XST_RETURN_NOT_OK(table_index(in.a, p.names.size(), "binding name"));
      XST_RETURN_NOT_OK(require_zero(in.b, "b"));
      XST_RETURN_NOT_OK(table_index(in.spec, p.specs.size(), "spec"));
      // Like kLoadBinding: may stream as a span or resolve whole; span is
      // the sound join.
      return fresh_dst(RegType::kSpan);
    }
    case OpCode::kMaterialize: {
      XST_RETURN_NOT_OK(require_zero(in.b, "b"));
      XST_RETURN_NOT_OK(require_zero(in.spec, "spec"));
      if (in.a != in.dst) {
        return Fail(pc, in.op,
                    "materialize must target its own register (a == dst), got a=r" +
                        std::to_string(in.a) + " dst=r" + std::to_string(in.dst));
      }
      if (types[in.dst] == RegType::kUninit) {
        return Fail(pc, in.op, "materialize of undefined register r" +
                                   std::to_string(in.dst));
      }
      judgment->a_before = types[in.dst];
      types[in.dst] = RegType::kMaterialized;
      judgment->dst_after = RegType::kMaterialized;
      return Status::OK();
    }
  }
  // Unreachable: the opcode byte was range-checked above and the switch is
  // exhaustive.
  return Status::Invalid("verify: instr " + std::to_string(pc) +
                         ": unhandled opcode");
}

// The full judgment. `types_out` may be null (VerifyProgram's status-only
// fast path); when non-null it receives one InstrTypes per instruction.
Status Interpret(const Program& p, std::vector<InstrTypes>* types_out) {
  XST_TRACE_SPAN("xsp.verify");
  if (p.code.empty()) {
    return Status::Invalid("verify: empty program");
  }
  if (p.code.size() > kMaxProgramLength) {
    return Status::Invalid("verify: program length " + std::to_string(p.code.size()) +
                           " exceeds limit " + std::to_string(kMaxProgramLength));
  }
  if (p.num_regs == 0) {
    return Status::Invalid("verify: program declares zero registers");
  }

  std::vector<RegType> types(p.num_regs, RegType::kUninit);
  if (types_out != nullptr) {
    types_out->assign(p.code.size(), InstrTypes{});
  }
  const uint16_t root = p.code.back().dst;
  for (size_t pc = 0; pc < p.code.size(); ++pc) {
    InstrTypes scratch;
    InstrTypes* judgment =
        types_out != nullptr ? &(*types_out)[pc] : &scratch;
    XST_RETURN_NOT_OK(Step(p, pc, types, judgment));
    // (d) no instruction after the root materialization: once the result
    // register is pinned by kMaterialize, the program is over.
    if (pc + 1 < p.code.size() && p.code[pc].op == OpCode::kMaterialize &&
        p.code[pc].dst == root) {
      return Fail(pc, p.code[pc].op,
                  "root register r" + std::to_string(root) +
                      " materialized before the final instruction");
    }
  }
  if (p.code.back().op != OpCode::kMaterialize) {
    return Fail(p.code.size() - 1, p.code.back().op,
                "program must end with a kMaterialize of the root register");
  }
  // Structural completeness: the compiler defines every register it
  // allocates, so an undefined register means num_regs (or the code) is
  // corrupt — and the VM would pin an arena buffer for it regardless.
  for (uint16_t r = 0; r < p.num_regs; ++r) {
    if (types[r] == RegType::kUninit) {
      return Status::Invalid("verify: register r" + std::to_string(r) +
                             " allocated but never defined (num_regs=" +
                             std::to_string(p.num_regs) + ")");
    }
  }
  return Status::OK();
}

}  // namespace

const char* RegTypeName(RegType type) {
  switch (type) {
    case RegType::kUninit:
      return "uninit";
    case RegType::kSpan:
      return "span";
    case RegType::kHandle:
      return "handle";
    case RegType::kMaterialized:
      return "materialized";
  }
  return "?";
}

std::string VerifiedProgram::InstrToString(size_t pc) const {
  // The plain disassembly line, annotated with the type judgments.
  std::string out = program_.InstrToString(pc);
  const Instr& in = program_.code[pc];
  const InstrTypes& jt = instr_types_[pc];
  out.append("   ; ");
  bool first = true;
  if (jt.a_before != RegType::kUninit) {
    const uint16_t reg = in.op == OpCode::kMaterialize ? in.dst : in.a;
    out.append("r").append(std::to_string(reg)).append(":");
    out.append(RegTypeName(jt.a_before));
    first = false;
  }
  if (jt.b_before != RegType::kUninit) {
    if (!first) out.append(", ");
    out.append("r").append(std::to_string(in.b)).append(":");
    out.append(RegTypeName(jt.b_before));
    first = false;
  }
  if (!first) out.append(" ");
  out.append("-> r").append(std::to_string(in.dst)).append(":");
  out.append(RegTypeName(jt.dst_after));
  return out;
}

std::string VerifiedProgram::ToString() const {
  std::string out;
  for (size_t pc = 0; pc < instr_types_.size(); ++pc) {
    out.append(InstrToString(pc)).push_back('\n');
  }
  return out;
}

Result<VerifiedProgram> Verify(Program program) {
  VerifiedProgram verified;
  Status st = Interpret(program, &verified.instr_types_);
  CountVerification(st.ok());
  if (!st.ok()) return st;
  verified.root_reg_ = program.code.back().dst;
  verified.program_ = std::move(program);
  return verified;
}

Status VerifyProgram(const Program& program) {
  Status st = Interpret(program, nullptr);
  CountVerification(st.ok());
  return st;
}

bool VmVerifyEnabled() {
#if XST_VALIDATE_LEVEL >= 1
  return true;
#elif !defined(NDEBUG)
  return true;
#else
  // Release at validate level 0: opt-in via the environment, latched once.
  static const bool enabled = [] {
    const char* env = std::getenv("XST_VERIFY_PROGRAMS");
    return env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0;
  }();
  return enabled;
#endif
}

}  // namespace xsp
}  // namespace xst
