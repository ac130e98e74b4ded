#ifndef DISCSEC_SCRIPT_INTERPRETER_H_
#define DISCSEC_SCRIPT_INTERPRETER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "script/ast.h"
#include "script/value.h"

namespace discsec {
namespace script {

/// Execution limits for the embedded player profile (§8: the prototype ran
/// on a CE reference platform; a real engine must bound rogue scripts —
/// the §1 "malicious application" threat).
struct Limits {
  /// Maximum evaluation steps (each node visit counts one). 0 = unlimited.
  uint64_t max_steps = 1'000'000;
  /// Maximum function-call depth.
  size_t max_call_depth = 128;
};

/// A tree-walking interpreter for the ECMAScript subset — the Code part of
/// the Application Manifest (paper §2/§8, script = ECMAScript).
///
/// The host (the Interactive Application Engine) registers native functions
/// and objects as globals before running; scripts call them like ordinary
/// functions. Errors are Status values (no exceptions), including
/// ResourceExhausted when a limit trips.
class Interpreter {
 public:
  explicit Interpreter(Limits limits = Limits());
  /// Empties every scope this interpreter created that is still alive, so
  /// closures and their scopes are freed even when they reference each
  /// other.
  ~Interpreter();

  Interpreter(const Interpreter&) = delete;
  Interpreter& operator=(const Interpreter&) = delete;

  /// Defines a global (host object, constant, native function).
  void DefineGlobal(const std::string& name, Value value);

  /// Shorthand for DefineGlobal(name, Value::Native(fn)).
  void DefineNative(const std::string& name, NativeFn fn);

  /// Parses and runs a source text in the global scope. Returns the value
  /// of the last expression statement (like a REPL), or undefined.
  /// The parsed Program is retained by the interpreter (closures point into
  /// it).
  Result<Value> Run(const std::string& source);

  /// Calls a previously defined global function (e.g. an event handler the
  /// script registered by name).
  Result<Value> CallGlobal(const std::string& name,
                           const std::vector<Value>& args);

  /// Calls any callable value.
  Result<Value> CallValue(const Value& callee, const std::vector<Value>& args);

  /// Reads a global variable (undefined when unbound).
  Value GetGlobal(const std::string& name);

  /// Steps consumed so far (for the embedded-profile benchmarks).
  uint64_t steps_used() const { return steps_used_; }
  void ResetStepBudget() { steps_used_ = 0; }

 private:
  struct Flow;  // control-flow signal (return/break/continue)

  Result<Value> EvalNode(const Node& node, std::shared_ptr<Environment> env,
                         Flow* flow);
  Result<Value> EvalBinary(const Node& node, const Value& lhs,
                           const Value& rhs);
  Status AssignTo(const Node& target, Value value,
                  std::shared_ptr<Environment> env, Flow* flow);
  Status Tick(const Node& node);
  /// Creates a scope and records it for teardown.
  std::shared_ptr<Environment> NewEnvironment(
      std::shared_ptr<Environment> parent);
  const FunctionDef* FindFunction(size_t index) const;

  Limits limits_;
  uint64_t steps_used_ = 0;
  size_t call_depth_ = 0;
  /// EvalNode refuses to recurse below this stack address (StackFloor() of
  /// the thread that entered through Run or CallValue).
  uintptr_t stack_floor_ = 0;
  /// Every scope created so far (expired entries are pruned as the list
  /// grows), emptied by the destructor. Declared before globals_, which is
  /// the first entry.
  std::vector<std::weak_ptr<Environment>> environments_;
  size_t prune_at_ = 64;
  std::shared_ptr<Environment> globals_;
  std::vector<Program> programs_;  ///< all sources run, kept alive
  /// Interpreter-wide function table: each parsed program's functions are
  /// appended here and its AST's indices rebased, so closures from any
  /// earlier Run() keep resolving correctly.
  std::vector<const FunctionDef*> functions_;
};

}  // namespace script
}  // namespace discsec

#endif  // DISCSEC_SCRIPT_INTERPRETER_H_
