#include "src/xsp/script.h"

#include <cctype>

#include "src/common/macros.h"
#include "src/xsp/compile.h"
#include "src/xsp/optimizer.h"
#include "src/xsp/parser.h"
#include "src/xsp/verify.h"
#include "src/xsp/vm.h"

namespace xst {
namespace xsp {

namespace {

std::string Trim(std::string_view s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string_view::npos) return "";
  size_t e = s.find_last_not_of(" \t\r\n");
  return std::string(s.substr(b, e - b + 1));
}

bool IsIdent(const std::string& s) {
  if (s.empty() || std::isdigit(static_cast<unsigned char>(s[0]))) return false;
  for (char c : s) {
    if (c != '_' && !std::isalnum(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

}  // namespace

Result<Script> ParseScript(std::string_view text) {
  Script script;
  size_t pos = 0;
  int line_number = 0;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    std::string_view raw =
        text.substr(pos, eol == std::string_view::npos ? std::string_view::npos
                                                       : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_number;
    std::string line = Trim(raw);
    if (line.empty() || line[0] == '#') continue;

    Statement statement;
    statement.source = line;
    std::string plan_text = line;
    // `name = plan` when the '=' precedes any plan syntax.
    size_t eq = line.find('=');
    size_t syntax = line.find_first_of("([{<@\"");
    if (eq != std::string::npos && (syntax == std::string::npos || eq < syntax)) {
      statement.bind_name = Trim(line.substr(0, eq));
      if (!IsIdent(statement.bind_name)) {
        return Status::ParseError("script line " + std::to_string(line_number) +
                                  ": invalid binding name '" + statement.bind_name + "'");
      }
      plan_text = Trim(line.substr(eq + 1));
    }
    Result<ExprPtr> plan = ParsePlan(plan_text);
    if (!plan.ok()) {
      return plan.status().WithContext("script line " + std::to_string(line_number));
    }
    statement.plan = *plan;
    script.statements.push_back(std::move(statement));
  }
  return script;
}

Result<ScriptOutput> RunScript(const Script& script, Bindings initial, bool optimize) {
  ScriptOutput output;
  output.bindings = std::move(initial);
  VmContext ctx;
  for (const Statement& statement : script.statements) {
    ExprPtr plan = statement.plan;
    if (optimize) {
      XST_ASSIGN_OR_RAISE(plan, Optimize(plan, output.bindings));
    }
    // Verified before it runs: VmEval verifies only at the XST_VM_VALIDATE
    // tier, and the VM's operand checks are DCHECKs that rely on the proof.
    Result<Program> program = Compile(plan);
    Status verified = program.ok() ? VerifyProgram(*program) : program.status();
    Result<XSet> value = verified.ok() ? VmEval(*program, output.bindings, &ctx)
                                       : Result<XSet>(verified);
    if (!value.ok()) {
      return value.status().WithContext("statement '" + statement.source + "'");
    }
    if (statement.bind_name.empty()) {
      output.results.push_back(*value);
    } else {
      output.bindings[statement.bind_name] = *value;
    }
  }
  return output;
}

}  // namespace xsp
}  // namespace xst
