// XSP scripts: multi-statement programs over the surface language.
//
//   # comments and blank lines are ignored
//   friends = {<ann, bob>, <bob, cho>}
//   two_hop = image[<1>, <2>](@friends, image[<1>, <2>](@friends, {<ann>}))
//   @two_hop                      # expression statements produce output
//
// A script is parsed once (all plans validated up front) and can be run
// against different initial bindings. Name statements extend the
// environment for subsequent statements; expression statements append to
// the result list. Each statement is compiled and run on the VM (vm.h).

#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/xsp/expr.h"

namespace xst {
namespace xsp {

struct Statement {
  std::string bind_name;  ///< empty for expression statements
  ExprPtr plan;
  std::string source;  ///< the original line, for error messages
};

struct Script {
  std::vector<Statement> statements;
};

/// \brief Parses a whole script; fails on the first malformed statement
/// with its line number.
Result<Script> ParseScript(std::string_view text);

struct ScriptOutput {
  /// One entry per *expression* statement, in order.
  std::vector<XSet> results;
  /// The environment after the last statement (initial ∪ script bindings).
  Bindings bindings;
};

/// \brief Runs every statement against `initial` (later statements see
/// earlier bindings). Optimization is applied per statement when
/// `optimize` is set. The statements share one VmContext, so a script's
/// later statements run on warm arena buffers.
Result<ScriptOutput> RunScript(const Script& script, Bindings initial,
                               bool optimize = false);

}  // namespace xsp
}  // namespace xst
