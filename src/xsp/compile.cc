#include "src/xsp/compile.h"

#include <limits>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "src/common/macros.h"

namespace xst {
namespace xsp {

namespace {

constexpr size_t kMaxSlots = std::numeric_limits<uint16_t>::max();

// Appends `text` with every control character escaped, so one
// instruction always renders as exactly one line.
void AppendEscaped(std::string_view text, std::string* out) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '\n') {
      out->append("\\n");
    } else if (c == '\t') {
      out->append("\\t");
    } else if (byte < 0x20 || byte == 0x7f) {
      out->append("\\x");
      out->push_back(kHex[byte >> 4]);
      out->push_back(kHex[byte & 0xf]);
    } else {
      out->push_back(c);
    }
  }
}

// Leaf preview for disassembly, truncated so a giant literal cannot flood
// the listing.
void AppendLiteralPreview(const XSet& value, std::string* out) {
  std::string text = value.ToString();
  constexpr size_t kMaxLeaf = 40;
  const bool truncated = text.size() > kMaxLeaf;
  if (truncated) text.resize(kMaxLeaf);
  AppendEscaped(text, out);
  if (truncated) out->append("...");
}

class Compiler {
 public:
  Result<Program> Run(const ExprPtr& expr) {
    XST_ASSIGN_OR_RAISE(uint16_t root, Lower(expr, /*is_root=*/true));
    program_.code.push_back({OpCode::kMaterialize, root, root, 0, 0});
    program_.num_regs = next_reg_;
    return std::move(program_);
  }

 private:
  Result<uint16_t> AllocReg() {
    if (next_reg_ == kMaxSlots) {
      return Status::CapacityError("plan needs more than 65534 registers");
    }
    return next_reg_++;
  }

  Result<uint16_t> AddSpec(Sigma sigma, Sigma omega) {
    if (program_.specs.size() >= kMaxSlots) {
      return Status::CapacityError("plan needs more than 65535 spec entries");
    }
    program_.specs.push_back({std::move(sigma), std::move(omega)});
    return static_cast<uint16_t>(program_.specs.size() - 1);
  }

  // Forces the register to hold an interned handle: kIndex / kRelProduct /
  // kClosure delegate to the set-level kernels, which take XSets. A no-op
  // at runtime when the register is already interned.
  void Materialize(uint16_t reg) {
    program_.code.push_back({OpCode::kMaterialize, reg, reg, 0, 0});
  }

  Result<uint16_t> Lower(const ExprPtr& e, bool is_root) {
    if (e == nullptr) return Status::Invalid("null expression");
    // Shared subtrees (pointer-shared, as optimizer rewrites produce)
    // compile once; re-use is free because registers are never clobbered
    // (kMaterialize replaces a value with its interned equal in place).
    auto memo = reg_of_.find(e.get());
    if (memo != reg_of_.end()) return memo->second;

    uint16_t dst = 0;
    switch (e->kind()) {
      case ExprKind::kLiteral: {
        if (program_.literals.size() >= kMaxSlots) {
          return Status::CapacityError("plan needs more than 65535 literals");
        }
        XST_ASSIGN_OR_RAISE(dst, AllocReg());
        program_.literals.push_back(e->literal());
        program_.code.push_back(
            {OpCode::kLoadLiteral, dst,
             static_cast<uint16_t>(program_.literals.size() - 1), 0, 0});
        break;
      }
      case ExprKind::kNamed: {
        if (program_.names.size() >= kMaxSlots) {
          return Status::CapacityError("plan needs more than 65535 names");
        }
        XST_ASSIGN_OR_RAISE(dst, AllocReg());
        program_.names.push_back(e->name());
        program_.code.push_back(
            {OpCode::kLoadBinding, dst,
             static_cast<uint16_t>(program_.names.size() - 1), 0, 0});
        break;
      }
      case ExprKind::kUnion:
      case ExprKind::kIntersect:
      case ExprKind::kDifference: {
        XST_ASSIGN_OR_RAISE(uint16_t a, Lower(e->child(0), false));
        XST_ASSIGN_OR_RAISE(uint16_t b, Lower(e->child(1), false));
        XST_ASSIGN_OR_RAISE(dst, AllocReg());
        OpCode op = e->kind() == ExprKind::kUnion        ? OpCode::kUnion
                    : e->kind() == ExprKind::kIntersect  ? OpCode::kIntersect
                                                         : OpCode::kDifference;
        program_.code.push_back({op, dst, a, b, 0});
        break;
      }
      case ExprKind::kDomain: {
        XST_ASSIGN_OR_RAISE(uint16_t a, Lower(e->child(0), false));
        XST_ASSIGN_OR_RAISE(uint16_t spec, AddSpec(e->sigma(), Sigma{XSet::Empty(), XSet::Empty()}));
        XST_ASSIGN_OR_RAISE(dst, AllocReg());
        program_.code.push_back({OpCode::kRescope, dst, a, 0, spec});
        break;
      }
      case ExprKind::kRestrict: {
        XST_ASSIGN_OR_RAISE(uint16_t a, Lower(e->child(0), false));
        XST_ASSIGN_OR_RAISE(uint16_t b, Lower(e->child(1), false));
        XST_ASSIGN_OR_RAISE(uint16_t spec, AddSpec(e->sigma(), Sigma{XSet::Empty(), XSet::Empty()}));
        XST_ASSIGN_OR_RAISE(dst, AllocReg());
        program_.code.push_back({OpCode::kRestrict, dst, a, b, spec});
        break;
      }
      case ExprKind::kImage: {
        XST_ASSIGN_OR_RAISE(uint16_t a, Lower(e->child(0), false));
        XST_ASSIGN_OR_RAISE(uint16_t b, Lower(e->child(1), false));
        XST_ASSIGN_OR_RAISE(uint16_t spec, AddSpec(e->sigma(), Sigma{XSet::Empty(), XSet::Empty()}));
        XST_ASSIGN_OR_RAISE(dst, AllocReg());
        // A root image over a stable leaf carrier goes through the cached
        // ImageIndex access path: its result is materialized anyway, and
        // repeated executions (the stored-relation regime index.h exists
        // for) amortize the build across the VmContext. Interior images
        // stay on the fused span loop, which never interns.
        const ExprKind carrier = e->child(0)->kind();
        if (is_root &&
            (carrier == ExprKind::kLiteral || carrier == ExprKind::kNamed)) {
          Materialize(a);
          Materialize(b);
          program_.code.push_back({OpCode::kIndex, dst, a, b, spec});
        } else {
          program_.code.push_back({OpCode::kImage, dst, a, b, spec});
        }
        break;
      }
      case ExprKind::kRelProduct: {
        XST_ASSIGN_OR_RAISE(uint16_t a, Lower(e->child(0), false));
        XST_ASSIGN_OR_RAISE(uint16_t b, Lower(e->child(1), false));
        XST_ASSIGN_OR_RAISE(uint16_t spec, AddSpec(e->sigma(), e->omega()));
        XST_ASSIGN_OR_RAISE(dst, AllocReg());
        Materialize(a);
        Materialize(b);
        program_.code.push_back({OpCode::kRelProduct, dst, a, b, spec});
        break;
      }
      case ExprKind::kClosure: {
        XST_ASSIGN_OR_RAISE(uint16_t a, Lower(e->child(0), false));
        XST_ASSIGN_OR_RAISE(dst, AllocReg());
        Materialize(a);
        program_.code.push_back({OpCode::kClosure, dst, a, 0, 0});
        break;
      }
      case ExprKind::kRange: {
        XST_ASSIGN_OR_RAISE(uint16_t spec,
                            AddSpec(e->sigma(), Sigma{XSet::Empty(), XSet::Empty()}));
        // Access-path selection: a range directly over a named leaf streams
        // through CursorSource::OpenElementRange (kLoadRange), so an
        // ordered-index source seeks the lower edge and reads only in-range
        // leaves — the set is never materialized here. Any other carrier is
        // computed first and sliced in the arena (kRange).
        if (e->child(0)->kind() == ExprKind::kNamed) {
          if (program_.names.size() >= kMaxSlots) {
            return Status::CapacityError("plan needs more than 65535 names");
          }
          XST_ASSIGN_OR_RAISE(dst, AllocReg());
          program_.names.push_back(e->child(0)->name());
          program_.code.push_back(
              {OpCode::kLoadRange, dst,
               static_cast<uint16_t>(program_.names.size() - 1), 0, spec});
        } else {
          XST_ASSIGN_OR_RAISE(uint16_t a, Lower(e->child(0), false));
          XST_ASSIGN_OR_RAISE(dst, AllocReg());
          program_.code.push_back({OpCode::kRange, dst, a, 0, spec});
        }
        break;
      }
    }
    reg_of_.emplace(e.get(), dst);
    return dst;
  }

  Program program_;
  uint16_t next_reg_ = 0;
  std::unordered_map<const Expr*, uint16_t> reg_of_;
};

}  // namespace

const char* OpCodeName(OpCode op) {
  switch (op) {
    case OpCode::kLoadLiteral:
      return "LoadLiteral";
    case OpCode::kLoadBinding:
      return "LoadBinding";
    case OpCode::kUnion:
      return "Union";
    case OpCode::kIntersect:
      return "Intersect";
    case OpCode::kDifference:
      return "Difference";
    case OpCode::kRescope:
      return "Rescope";
    case OpCode::kRestrict:
      return "Restrict";
    case OpCode::kImage:
      return "Image";
    case OpCode::kIndex:
      return "Index";
    case OpCode::kRelProduct:
      return "RelProduct";
    case OpCode::kClosure:
      return "Closure";
    case OpCode::kMaterialize:
      return "Materialize";
    case OpCode::kRange:
      return "Range";
    case OpCode::kLoadRange:
      return "LoadRange";
  }
  return "?";
}

std::string Program::InstrToString(size_t pc) const {
  std::string out;
  const Instr& in = code[pc];
  out.append(std::to_string(pc)).append(": ").append(OpCodeName(in.op));
  switch (in.op) {
    case OpCode::kLoadLiteral:
      out.append(" r").append(std::to_string(in.dst));
      out.append(" <- ");
      AppendLiteralPreview(literals[in.a], &out);
      break;
    case OpCode::kLoadBinding:
      out.append(" r").append(std::to_string(in.dst));
      out.append(" <- @");
      AppendEscaped(names[in.a], &out);
      break;
    case OpCode::kUnion:
    case OpCode::kIntersect:
    case OpCode::kDifference:
      out.append(" r").append(std::to_string(in.dst));
      out.append(" <- r").append(std::to_string(in.a));
      out.append(", r").append(std::to_string(in.b));
      break;
    case OpCode::kRescope:
    case OpCode::kRange:
      out.append(" r").append(std::to_string(in.dst));
      out.append(" <- r").append(std::to_string(in.a));
      out.append(" sigma#").append(std::to_string(in.spec));
      break;
    case OpCode::kLoadRange:
      out.append(" r").append(std::to_string(in.dst));
      out.append(" <- @");
      AppendEscaped(names[in.a], &out);
      out.append(" sigma#").append(std::to_string(in.spec));
      break;
    case OpCode::kRestrict:
    case OpCode::kImage:
    case OpCode::kIndex:
      out.append(" r").append(std::to_string(in.dst));
      out.append(" <- r").append(std::to_string(in.a));
      out.append("[r").append(std::to_string(in.b));
      out.append("] sigma#").append(std::to_string(in.spec));
      break;
    case OpCode::kRelProduct:
      out.append(" r").append(std::to_string(in.dst));
      out.append(" <- r").append(std::to_string(in.a));
      out.append(" /so# r").append(std::to_string(in.b));
      out.append(" spec#").append(std::to_string(in.spec));
      break;
    case OpCode::kClosure:
      out.append(" r").append(std::to_string(in.dst));
      out.append(" <- r").append(std::to_string(in.a)).append("+");
      break;
    case OpCode::kMaterialize:
      out.append(" r").append(std::to_string(in.dst));
      break;
  }
  return out;
}

std::string Program::ToString() const {
  std::string out;
  for (size_t pc = 0; pc < code.size(); ++pc) {
    out.append(InstrToString(pc)).push_back('\n');
  }
  return out;
}

Result<Program> Compile(const ExprPtr& expr) {
  Compiler compiler;
  return compiler.Run(expr);
}

}  // namespace xsp
}  // namespace xst
