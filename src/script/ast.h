#ifndef DISCSEC_SCRIPT_AST_H_
#define DISCSEC_SCRIPT_AST_H_

#include <memory>
#include <string>
#include <vector>

namespace discsec {
namespace script {

/// AST node kinds for the ECMAScript subset. One enum + one node struct
/// keeps the tree compact and the evaluator a single switch.
enum class NodeType {
  // expressions
  kNumberLiteral,    // number_value
  kStringLiteral,    // string_value
  kBooleanLiteral,   // bool_value
  kNullLiteral,
  kUndefinedLiteral,
  kIdentifier,       // string_value = name
  kArrayLiteral,     // children = elements
  kObjectLiteral,    // keys[i] names children[i]
  kBinary,           // string_value = op; children = {lhs, rhs}
  kLogical,          // string_value = "&&" | "||"; children = {lhs, rhs}
  kUnary,            // string_value = "-" | "!" | "+" | "typeof"
  kAssign,           // string_value = "=", "+=", ...; children = {target, value}
  kConditional,      // children = {cond, then, else}
  kCall,             // children = {callee, args...}
  kMember,           // children = {object}; string_value = property name
  kIndex,            // children = {object, index-expr}
  kFunctionExpr,     // function_index into Program::functions
  kPostfix,          // string_value = "++" | "--"; children = {target}

  // statements
  kProgram,          // children = statements
  kVarDecl,          // string_value = name; children = {init?} (may be empty)
  kExprStatement,    // children = {expr}
  kBlock,            // children = statements
  kIf,               // children = {cond, then, else?}
  kWhile,            // children = {cond, body}
  kFor,              // children = {init?, cond?, update?, body} (fixed slots,
                     //             kUndefinedLiteral markers when absent)
  kReturn,           // children = {value?} (may be empty)
  kBreak,
  kContinue,
  kFunctionDecl,     // string_value = name; function_index set
  kSwitch,           // children = {discriminant, case...}; see kCase
  kCase,             // children = {test?, body-statements...}; bool_value
                     // true marks the default clause (no test child)
};

struct Node;
using NodePtr = std::unique_ptr<Node>;

/// One parsed function: parameter names plus body. Stored in the Program so
/// closures can reference them without owning tree fragments.
struct FunctionDef {
  std::string name;  ///< empty for anonymous function expressions
  std::vector<std::string> params;
  NodePtr body;      ///< a kBlock
};

struct Node {
  explicit Node(NodeType t) : type(t) {}
  /// Frees the subtree iteratively: a long operator chain (1+1+…+1) is an
  /// arbitrarily deep tree, and one destructor frame per level would
  /// overflow the stack.
  ~Node() {
    std::vector<NodePtr> pending = std::move(children);
    while (!pending.empty()) {
      NodePtr node = std::move(pending.back());
      pending.pop_back();
      if (node == nullptr) continue;  // a child the parser moved out
      for (NodePtr& child : node->children) pending.push_back(std::move(child));
      node->children.clear();
    }
  }
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeType type;
  double number_value = 0.0;
  bool bool_value = false;
  std::string string_value;
  std::vector<std::string> keys;  ///< object literal keys
  std::vector<NodePtr> children;
  size_t function_index = 0;      ///< for kFunctionExpr / kFunctionDecl
  int line = 0;                   ///< 1-based source line, for diagnostics
};

/// A parsed script: the statement tree plus the function tables it refers
/// to. Owns everything; closures hold raw FunctionDef pointers into it, so
/// a Program must outlive any Interpreter values created from it.
struct Program {
  NodePtr root;  ///< kProgram
  std::vector<std::unique_ptr<FunctionDef>> functions;
};

}  // namespace script
}  // namespace discsec

#endif  // DISCSEC_SCRIPT_AST_H_
