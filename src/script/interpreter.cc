#include "script/interpreter.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <vector>

#include <pthread.h>

#include "script/parser.h"

namespace discsec {
namespace script {

/// Control-flow signal threaded through statement evaluation.
struct Interpreter::Flow {
  enum class Kind { kNormal, kReturn, kBreak, kContinue };
  Kind kind = Kind::kNormal;
  Value return_value;

  bool Interrupted() const { return kind != Kind::kNormal; }
  void Clear() {
    kind = Kind::kNormal;
    return_value = Value();
  }
};

namespace {

/// Stack kept free below the deepest EvalNode frame, for what runs past the
/// last check: one more EvalNode, host natives, the allocator, error
/// formatting. An unoptimized sanitizer build spends about 24 KiB on one
/// EvalNode frame.
constexpr uintptr_t kStackReserveBytes = 256 * 1024;

/// The lowest address EvalNode may recurse down to on the calling thread:
/// the bottom of its stack plus kStackReserveBytes. Computed once per
/// thread (for the main thread pthread_getattr_np reads /proc); 0 when the
/// stack bounds are unknown, which disables the check.
uintptr_t StackFloor() {
  thread_local const uintptr_t floor_address = [] {
    pthread_attr_t attr;
    if (pthread_getattr_np(pthread_self(), &attr) != 0) return uintptr_t{0};
    void* low = nullptr;
    size_t size = 0;
    pthread_attr_getstack(&attr, &low, &size);
    pthread_attr_destroy(&attr);
    return low == nullptr ? uintptr_t{0}
                          : reinterpret_cast<uintptr_t>(low) +
                                kStackReserveBytes;
  }();
  return floor_address;
}

/// The deterministic standard-library subset every interpreter gets:
/// Math (no Math.random — the player profile is deterministic), number
/// parsing and NaN checks, and String.fromCharCode.
void InstallBuiltins(Environment* globals) {
  Value math = Value::MakeObject();
  auto unary = [](double (*fn)(double)) {
    return Value::Native([fn](const std::vector<Value>& args) -> Result<Value> {
      return Value::Number(fn(args.empty() ? std::nan("") : args[0].ToNumber()));
    });
  };
  math.AsObject()["floor"] = unary([](double v) { return std::floor(v); });
  math.AsObject()["ceil"] = unary([](double v) { return std::ceil(v); });
  math.AsObject()["round"] = unary([](double v) { return std::round(v); });
  math.AsObject()["abs"] = unary([](double v) { return std::fabs(v); });
  math.AsObject()["sqrt"] = unary([](double v) { return std::sqrt(v); });
  math.AsObject()["max"] =
      Value::Native([](const std::vector<Value>& args) -> Result<Value> {
        double best = -std::numeric_limits<double>::infinity();
        for (const Value& v : args) best = std::max(best, v.ToNumber());
        return Value::Number(args.empty() ? std::nan("") : best);
      });
  math.AsObject()["min"] =
      Value::Native([](const std::vector<Value>& args) -> Result<Value> {
        double best = std::numeric_limits<double>::infinity();
        for (const Value& v : args) best = std::min(best, v.ToNumber());
        return Value::Number(args.empty() ? std::nan("") : best);
      });
  math.AsObject()["pow"] =
      Value::Native([](const std::vector<Value>& args) -> Result<Value> {
        if (args.size() < 2) return Value::Number(std::nan(""));
        return Value::Number(std::pow(args[0].ToNumber(),
                                      args[1].ToNumber()));
      });
  globals->Define("Math", math);

  globals->Define(
      "parseInt",
      Value::Native([](const std::vector<Value>& args) -> Result<Value> {
        if (args.empty()) return Value::Number(std::nan(""));
        std::string s = args[0].ToDisplayString();
        int base = args.size() > 1
                       ? static_cast<int>(args[1].ToNumber())
                       : 10;
        char* end = nullptr;
        long long v = std::strtoll(s.c_str(), &end, base);
        if (end == s.c_str()) return Value::Number(std::nan(""));
        return Value::Number(static_cast<double>(v));
      }));
  globals->Define(
      "parseFloat",
      Value::Native([](const std::vector<Value>& args) -> Result<Value> {
        if (args.empty()) return Value::Number(std::nan(""));
        std::string s = args[0].ToDisplayString();
        char* end = nullptr;
        double v = std::strtod(s.c_str(), &end);
        if (end == s.c_str()) return Value::Number(std::nan(""));
        return Value::Number(v);
      }));
  globals->Define(
      "isNaN",
      Value::Native([](const std::vector<Value>& args) -> Result<Value> {
        return Value::Boolean(args.empty() ||
                              std::isnan(args[0].ToNumber()));
      }));

  Value string_ns = Value::MakeObject();
  string_ns.AsObject()["fromCharCode"] =
      Value::Native([](const std::vector<Value>& args) -> Result<Value> {
        std::string out;
        for (const Value& v : args) {
          out.push_back(static_cast<char>(
              static_cast<int>(v.ToNumber()) & 0x7f));
        }
        return Value::String(out);
      });
  globals->Define("String", string_ns);
}

}  // namespace

Interpreter::Interpreter(Limits limits)
    : limits_(limits), globals_(NewEnvironment(nullptr)) {
  InstallBuiltins(globals_.get());
}

Interpreter::~Interpreter() {
  for (const std::weak_ptr<Environment>& weak : environments_) {
    if (std::shared_ptr<Environment> env = weak.lock()) env->Clear();
  }
}

std::shared_ptr<Environment> Interpreter::NewEnvironment(
    std::shared_ptr<Environment> parent) {
  if (environments_.size() >= prune_at_) {
    std::erase_if(environments_, [](const std::weak_ptr<Environment>& weak) {
      return weak.expired();
    });
    prune_at_ = std::max<size_t>(64, 2 * environments_.size());
  }
  // A finished call's scope is destroyed at once; only its storage block
  // waits for the next prune.
  auto env = std::make_shared<Environment>(std::move(parent));
  environments_.push_back(env);
  return env;
}

void Interpreter::DefineGlobal(const std::string& name, Value value) {
  globals_->Define(name, std::move(value));
}

void Interpreter::DefineNative(const std::string& name, NativeFn fn) {
  globals_->Define(name, Value::Native(std::move(fn)));
}

Status Interpreter::Tick(const Node& node) {
  ++steps_used_;
  if (limits_.max_steps != 0 && steps_used_ > limits_.max_steps) {
    return Status::ResourceExhausted(
        "script exceeded step budget at line " + std::to_string(node.line));
  }
  return Status::OK();
}

namespace {
/// Rebases every function index in the tree by `offset`. Iterative: a long
/// operator chain (1+1+…+1) parses into an arbitrarily deep tree.
void RebaseFunctionIndices(Node* root, size_t offset) {
  std::vector<Node*> pending = {root};
  while (!pending.empty()) {
    Node* node = pending.back();
    pending.pop_back();
    if (node->type == NodeType::kFunctionExpr ||
        node->type == NodeType::kFunctionDecl) {
      node->function_index += offset;
    }
    for (const NodePtr& child : node->children) pending.push_back(child.get());
  }
}
}  // namespace

Result<Value> Interpreter::Run(const std::string& source) {
  stack_floor_ = StackFloor();
  DISCSEC_ASSIGN_OR_RETURN(Program program, ParseProgram(source));
  size_t offset = functions_.size();
  RebaseFunctionIndices(program.root.get(), offset);
  for (const auto& def : program.functions) {
    RebaseFunctionIndices(def->body.get(), offset);
    functions_.push_back(def.get());
  }
  programs_.push_back(std::move(program));
  const Program& prog = programs_.back();
  Flow flow;
  Value last;
  for (const NodePtr& stmt : prog.root->children) {
    DISCSEC_ASSIGN_OR_RETURN(last, EvalNode(*stmt, globals_, &flow));
    if (flow.Interrupted()) break;  // top-level return ends the script
  }
  return last;
}

Value Interpreter::GetGlobal(const std::string& name) {
  Value* v = globals_->Lookup(name);
  return v != nullptr ? *v : Value();
}

Result<Value> Interpreter::CallGlobal(const std::string& name,
                                      const std::vector<Value>& args) {
  Value* fn = globals_->Lookup(name);
  if (fn == nullptr) {
    return Status::NotFound("no global function '" + name + "'");
  }
  return CallValue(*fn, args);
}

Result<Value> Interpreter::CallValue(const Value& callee,
                                     const std::vector<Value>& args) {
  if (callee.kind() == Value::Kind::kNative) {
    return callee.AsNative()(args);
  }
  if (callee.kind() != Value::Kind::kFunction) {
    return Status::InvalidArgument(std::string("value of type ") +
                                   callee.KindName() + " is not callable");
  }
  if (call_depth_ >= limits_.max_call_depth) {
    return Status::ResourceExhausted("script exceeded call depth");
  }
  stack_floor_ = StackFloor();
  const Value::Closure& closure = callee.AsClosure();
  std::shared_ptr<Environment> env = NewEnvironment(closure.env);
  const FunctionDef& def = *closure.def;
  for (size_t i = 0; i < def.params.size(); ++i) {
    env->Define(def.params[i], i < args.size() ? args[i] : Value());
  }
  // `arguments` array.
  Value arguments = Value::MakeArray();
  arguments.AsArray() = args;
  env->Define("arguments", std::move(arguments));

  ++call_depth_;
  Flow flow;
  auto result = EvalNode(*def.body, env, &flow);
  --call_depth_;
  if (!result.ok()) return result.status();
  if (flow.kind == Flow::Kind::kReturn) return flow.return_value;
  return Value();
}

Status Interpreter::AssignTo(const Node& target, Value value,
                             std::shared_ptr<Environment> env, Flow* flow) {
  switch (target.type) {
    case NodeType::kIdentifier:
      env->Assign(target.string_value, std::move(value));
      return Status::OK();
    case NodeType::kMember: {
      DISCSEC_ASSIGN_OR_RETURN(Value object,
                               EvalNode(*target.children[0], env, flow));
      if (!object.IsObject()) {
        return Status::InvalidArgument("cannot set property '" +
                                       target.string_value + "' on " +
                                       object.KindName());
      }
      object.AsObject()[target.string_value] = std::move(value);
      return Status::OK();
    }
    case NodeType::kIndex: {
      DISCSEC_ASSIGN_OR_RETURN(Value object,
                               EvalNode(*target.children[0], env, flow));
      DISCSEC_ASSIGN_OR_RETURN(Value index,
                               EvalNode(*target.children[1], env, flow));
      if (object.IsArray()) {
        double d = index.ToNumber();
        if (std::isnan(d) || d < 0) {
          return Status::InvalidArgument("bad array index");
        }
        size_t i = static_cast<size_t>(d);
        if (i >= object.AsArray().size()) {
          if (i > 1u << 20) {
            return Status::ResourceExhausted("array index too large");
          }
          object.AsArray().resize(i + 1);
        }
        object.AsArray()[i] = std::move(value);
        return Status::OK();
      }
      if (object.IsObject()) {
        object.AsObject()[index.ToDisplayString()] = std::move(value);
        return Status::OK();
      }
      return Status::InvalidArgument(std::string("cannot index ") +
                                     object.KindName());
    }
    default:
      return Status::InvalidArgument("invalid assignment target");
  }
}

Result<Value> Interpreter::EvalBinary(const Node& node, const Value& lhs,
                                      const Value& rhs) {
  const std::string& op = node.string_value;
  if (op == "+") {
    if (lhs.IsString() || rhs.IsString()) {
      return Value::String(lhs.ToDisplayString() + rhs.ToDisplayString());
    }
    return Value::Number(lhs.ToNumber() + rhs.ToNumber());
  }
  if (op == "-") return Value::Number(lhs.ToNumber() - rhs.ToNumber());
  if (op == "*") return Value::Number(lhs.ToNumber() * rhs.ToNumber());
  if (op == "/") return Value::Number(lhs.ToNumber() / rhs.ToNumber());
  if (op == "%") {
    return Value::Number(std::fmod(lhs.ToNumber(), rhs.ToNumber()));
  }
  if (op == "==" || op == "===") {
    return Value::Boolean(lhs.StrictEquals(rhs));
  }
  if (op == "!=" || op == "!==") {
    return Value::Boolean(!lhs.StrictEquals(rhs));
  }
  if (op == "<" || op == ">" || op == "<=" || op == ">=") {
    // String/string comparisons are lexicographic, otherwise numeric.
    int cmp;
    bool valid = true;
    if (lhs.IsString() && rhs.IsString()) {
      cmp = lhs.AsString().compare(rhs.AsString());
    } else {
      double a = lhs.ToNumber();
      double b = rhs.ToNumber();
      if (std::isnan(a) || std::isnan(b)) valid = false;
      cmp = a < b ? -1 : (a > b ? 1 : 0);
    }
    if (!valid) return Value::Boolean(false);
    if (op == "<") return Value::Boolean(cmp < 0);
    if (op == ">") return Value::Boolean(cmp > 0);
    if (op == "<=") return Value::Boolean(cmp <= 0);
    return Value::Boolean(cmp >= 0);
  }
  return Status::Unsupported("binary operator '" + op + "'");
}

Result<Value> Interpreter::EvalNode(const Node& node,
                                    std::shared_ptr<Environment> env,
                                    Flow* flow) {
  DISCSEC_RETURN_IF_ERROR(Tick(node));
  // Bounds evaluation depth by the stack it actually uses, whatever the
  // frame size of this build: deep operator chains and recursion stop here
  // instead of overflowing the thread's stack.
  if (reinterpret_cast<uintptr_t>(__builtin_frame_address(0)) <
      stack_floor_) {
    return Status::ResourceExhausted(
        "script nests too deeply for the stack at line " +
        std::to_string(node.line));
  }
  switch (node.type) {
    case NodeType::kNumberLiteral:
      return Value::Number(node.number_value);
    case NodeType::kStringLiteral:
      return Value::String(node.string_value);
    case NodeType::kBooleanLiteral:
      return Value::Boolean(node.bool_value);
    case NodeType::kNullLiteral:
      return Value::Null();
    case NodeType::kUndefinedLiteral:
      return Value();
    case NodeType::kIdentifier: {
      Value* v = env->Lookup(node.string_value);
      if (v == nullptr) {
        return Status::NotFound("undefined variable '" + node.string_value +
                                "' at line " + std::to_string(node.line));
      }
      return *v;
    }
    case NodeType::kArrayLiteral: {
      Value array = Value::MakeArray();
      for (const NodePtr& element : node.children) {
        DISCSEC_ASSIGN_OR_RETURN(Value v, EvalNode(*element, env, flow));
        array.AsArray().push_back(std::move(v));
      }
      return array;
    }
    case NodeType::kObjectLiteral: {
      Value object = Value::MakeObject();
      for (size_t i = 0; i < node.children.size(); ++i) {
        DISCSEC_ASSIGN_OR_RETURN(Value v,
                                 EvalNode(*node.children[i], env, flow));
        object.AsObject()[node.keys[i]] = std::move(v);
      }
      return object;
    }
    case NodeType::kBinary: {
      DISCSEC_ASSIGN_OR_RETURN(Value lhs,
                               EvalNode(*node.children[0], env, flow));
      DISCSEC_ASSIGN_OR_RETURN(Value rhs,
                               EvalNode(*node.children[1], env, flow));
      return EvalBinary(node, lhs, rhs);
    }
    case NodeType::kLogical: {
      DISCSEC_ASSIGN_OR_RETURN(Value lhs,
                               EvalNode(*node.children[0], env, flow));
      if (node.string_value == "&&") {
        if (!lhs.Truthy()) return lhs;
        return EvalNode(*node.children[1], env, flow);
      }
      if (lhs.Truthy()) return lhs;
      return EvalNode(*node.children[1], env, flow);
    }
    case NodeType::kUnary: {
      DISCSEC_ASSIGN_OR_RETURN(Value operand,
                               EvalNode(*node.children[0], env, flow));
      if (node.string_value == "-") return Value::Number(-operand.ToNumber());
      if (node.string_value == "+") return Value::Number(operand.ToNumber());
      if (node.string_value == "!") return Value::Boolean(!operand.Truthy());
      if (node.string_value == "typeof") {
        return Value::String(operand.KindName());
      }
      return Status::Unsupported("unary operator " + node.string_value);
    }
    case NodeType::kAssign: {
      const Node& target = *node.children[0];
      DISCSEC_ASSIGN_OR_RETURN(Value rhs,
                               EvalNode(*node.children[1], env, flow));
      if (node.string_value != "=") {
        // Compound assignment: read-modify-write.
        DISCSEC_ASSIGN_OR_RETURN(Value current, EvalNode(target, env, flow));
        Node op_node(NodeType::kBinary);
        op_node.string_value = node.string_value.substr(0, 1);
        op_node.line = node.line;
        DISCSEC_ASSIGN_OR_RETURN(rhs, EvalBinary(op_node, current, rhs));
      }
      DISCSEC_RETURN_IF_ERROR(AssignTo(target, rhs, env, flow));
      return rhs;
    }
    case NodeType::kPostfix: {
      const Node& target = *node.children[0];
      DISCSEC_ASSIGN_OR_RETURN(Value current, EvalNode(target, env, flow));
      double old_value = current.ToNumber();
      double next = node.string_value == "++" ? old_value + 1 : old_value - 1;
      DISCSEC_RETURN_IF_ERROR(
          AssignTo(target, Value::Number(next), env, flow));
      return Value::Number(old_value);
    }
    case NodeType::kConditional: {
      DISCSEC_ASSIGN_OR_RETURN(Value cond,
                               EvalNode(*node.children[0], env, flow));
      return EvalNode(cond.Truthy() ? *node.children[1] : *node.children[2],
                      env, flow);
    }
    case NodeType::kCall: {
      DISCSEC_ASSIGN_OR_RETURN(Value callee,
                               EvalNode(*node.children[0], env, flow));
      std::vector<Value> args;
      for (size_t i = 1; i < node.children.size(); ++i) {
        DISCSEC_ASSIGN_OR_RETURN(Value arg,
                                 EvalNode(*node.children[i], env, flow));
        args.push_back(std::move(arg));
      }
      auto result = CallValue(callee, args);
      if (!result.ok()) {
        return result.status().WithContext("call at line " +
                                           std::to_string(node.line));
      }
      return result;
    }
    case NodeType::kMember: {
      DISCSEC_ASSIGN_OR_RETURN(Value object,
                               EvalNode(*node.children[0], env, flow));
      const std::string& name = node.string_value;
      if (object.IsObject()) {
        auto it = object.AsObject().find(name);
        return it != object.AsObject().end() ? it->second : Value();
      }
      if (object.IsArray() && name == "length") {
        return Value::Number(static_cast<double>(object.AsArray().size()));
      }
      if (object.IsArray() && name == "push") {
        Value array = object;  // shares the underlying storage
        return Value::Native([array](const std::vector<Value>& args) mutable
                                 -> Result<Value> {
          for (const Value& v : args) array.AsArray().push_back(v);
          return Value::Number(static_cast<double>(array.AsArray().size()));
        });
      }
      if (object.IsString() && name == "length") {
        return Value::Number(static_cast<double>(object.AsString().size()));
      }
      if (object.IsString() && (name == "charAt" || name == "substring" ||
                                name == "indexOf" || name == "toUpperCase" ||
                                name == "toLowerCase")) {
        std::string s = object.AsString();
        if (name == "charAt") {
          return Value::Native(
              [s](const std::vector<Value>& args) -> Result<Value> {
                size_t i = args.empty()
                               ? 0
                               : static_cast<size_t>(args[0].ToNumber());
                return Value::String(i < s.size() ? std::string(1, s[i])
                                                  : std::string());
              });
        }
        if (name == "substring") {
          return Value::Native(
              [s](const std::vector<Value>& args) -> Result<Value> {
                size_t b = args.empty()
                               ? 0
                               : static_cast<size_t>(
                                     std::max(0.0, args[0].ToNumber()));
                size_t e = args.size() < 2 ? s.size()
                                           : static_cast<size_t>(std::max(
                                                 0.0, args[1].ToNumber()));
                b = std::min(b, s.size());
                e = std::min(e, s.size());
                if (b > e) std::swap(b, e);
                return Value::String(s.substr(b, e - b));
              });
        }
        if (name == "indexOf") {
          return Value::Native(
              [s](const std::vector<Value>& args) -> Result<Value> {
                if (args.empty()) return Value::Number(-1);
                size_t p = s.find(args[0].ToDisplayString());
                return Value::Number(
                    p == std::string::npos ? -1 : static_cast<double>(p));
              });
        }
        bool upper = name == "toUpperCase";
        return Value::Native(
            [s, upper](const std::vector<Value>&) -> Result<Value> {
              std::string out = s;
              for (char& c : out) {
                c = upper ? static_cast<char>(std::toupper(
                                static_cast<unsigned char>(c)))
                          : static_cast<char>(std::tolower(
                                static_cast<unsigned char>(c)));
              }
              return Value::String(out);
            });
      }
      return Value();  // missing property -> undefined
    }
    case NodeType::kIndex: {
      DISCSEC_ASSIGN_OR_RETURN(Value object,
                               EvalNode(*node.children[0], env, flow));
      DISCSEC_ASSIGN_OR_RETURN(Value index,
                               EvalNode(*node.children[1], env, flow));
      if (object.IsArray()) {
        double d = index.ToNumber();
        if (std::isnan(d) || d < 0 ||
            static_cast<size_t>(d) >= object.AsArray().size()) {
          return Value();
        }
        return object.AsArray()[static_cast<size_t>(d)];
      }
      if (object.IsObject()) {
        auto it = object.AsObject().find(index.ToDisplayString());
        return it != object.AsObject().end() ? it->second : Value();
      }
      if (object.IsString()) {
        double d = index.ToNumber();
        if (std::isnan(d) || d < 0 ||
            static_cast<size_t>(d) >= object.AsString().size()) {
          return Value();
        }
        return Value::String(
            std::string(1, object.AsString()[static_cast<size_t>(d)]));
      }
      return Status::InvalidArgument(std::string("cannot index ") +
                                     object.KindName());
    }
    case NodeType::kFunctionExpr: {
      Value::Closure closure;
      closure.def = FindFunction(node.function_index);
      closure.env = env;
      return Value::Function(std::move(closure));
    }

    // ---- statements ----
    case NodeType::kProgram:
    case NodeType::kBlock: {
      Value last;
      for (const NodePtr& stmt : node.children) {
        DISCSEC_ASSIGN_OR_RETURN(last, EvalNode(*stmt, env, flow));
        if (flow->Interrupted()) break;
      }
      return last;
    }
    case NodeType::kVarDecl: {
      Value init;
      if (!node.children.empty()) {
        DISCSEC_ASSIGN_OR_RETURN(init, EvalNode(*node.children[0], env, flow));
      }
      env->Define(node.string_value, std::move(init));
      return Value();
    }
    case NodeType::kFunctionDecl: {
      Value::Closure closure;
      closure.def = FindFunction(node.function_index);
      closure.env = env;
      env->Define(node.string_value, Value::Function(std::move(closure)));
      return Value();
    }
    case NodeType::kExprStatement:
      return EvalNode(*node.children[0], env, flow);
    case NodeType::kIf: {
      DISCSEC_ASSIGN_OR_RETURN(Value cond,
                               EvalNode(*node.children[0], env, flow));
      if (cond.Truthy()) {
        return EvalNode(*node.children[1], env, flow);
      }
      if (node.children.size() > 2) {
        return EvalNode(*node.children[2], env, flow);
      }
      return Value();
    }
    case NodeType::kWhile: {
      for (;;) {
        DISCSEC_ASSIGN_OR_RETURN(Value cond,
                                 EvalNode(*node.children[0], env, flow));
        if (!cond.Truthy()) break;
        DISCSEC_ASSIGN_OR_RETURN(Value ignored,
                                 EvalNode(*node.children[1], env, flow));
        (void)ignored;
        if (flow->kind == Flow::Kind::kBreak) {
          flow->Clear();
          break;
        }
        if (flow->kind == Flow::Kind::kContinue) flow->Clear();
        if (flow->kind == Flow::Kind::kReturn) break;
      }
      return Value();
    }
    case NodeType::kFor: {
      std::shared_ptr<Environment> loop_env = NewEnvironment(env);
      if (node.children[0]->type != NodeType::kUndefinedLiteral) {
        DISCSEC_ASSIGN_OR_RETURN(Value ignored,
                                 EvalNode(*node.children[0], loop_env, flow));
        (void)ignored;
      }
      for (;;) {
        if (node.children[1]->type != NodeType::kUndefinedLiteral) {
          DISCSEC_ASSIGN_OR_RETURN(
              Value cond, EvalNode(*node.children[1], loop_env, flow));
          if (!cond.Truthy()) break;
        }
        DISCSEC_ASSIGN_OR_RETURN(Value ignored,
                                 EvalNode(*node.children[3], loop_env, flow));
        (void)ignored;
        if (flow->kind == Flow::Kind::kBreak) {
          flow->Clear();
          break;
        }
        if (flow->kind == Flow::Kind::kContinue) flow->Clear();
        if (flow->kind == Flow::Kind::kReturn) break;
        if (node.children[2]->type != NodeType::kUndefinedLiteral) {
          DISCSEC_ASSIGN_OR_RETURN(
              Value ignored2, EvalNode(*node.children[2], loop_env, flow));
          (void)ignored2;
        }
      }
      return Value();
    }
    case NodeType::kSwitch: {
      DISCSEC_ASSIGN_OR_RETURN(Value discriminant,
                               EvalNode(*node.children[0], env, flow));
      // First pass: find the matching case (strict equality); fall back to
      // the default clause.
      size_t start = node.children.size();
      size_t default_index = node.children.size();
      for (size_t i = 1; i < node.children.size(); ++i) {
        const Node& clause = *node.children[i];
        if (clause.bool_value) {
          default_index = i;
          continue;
        }
        DISCSEC_ASSIGN_OR_RETURN(Value test,
                                 EvalNode(*clause.children[0], env, flow));
        if (discriminant.StrictEquals(test)) {
          start = i;
          break;
        }
      }
      if (start == node.children.size()) start = default_index;
      // Second pass: execute from the matched clause onward (fallthrough),
      // honoring break.
      for (size_t i = start; i < node.children.size(); ++i) {
        const Node& clause = *node.children[i];
        size_t body_from = clause.bool_value ? 0 : 1;
        for (size_t s = body_from; s < clause.children.size(); ++s) {
          DISCSEC_ASSIGN_OR_RETURN(Value ignored,
                                   EvalNode(*clause.children[s], env, flow));
          (void)ignored;
          if (flow->Interrupted()) break;
        }
        if (flow->kind == Flow::Kind::kBreak) {
          flow->Clear();
          return Value();
        }
        if (flow->Interrupted()) return Value();  // return/continue escape
      }
      return Value();
    }
    case NodeType::kCase:
      return Status::Unsupported("case outside switch");
    case NodeType::kReturn: {
      Value value;
      if (!node.children.empty()) {
        DISCSEC_ASSIGN_OR_RETURN(value,
                                 EvalNode(*node.children[0], env, flow));
      }
      flow->kind = Flow::Kind::kReturn;
      flow->return_value = std::move(value);
      return Value();
    }
    case NodeType::kBreak:
      flow->kind = Flow::Kind::kBreak;
      return Value();
    case NodeType::kContinue:
      flow->kind = Flow::Kind::kContinue;
      return Value();
  }
  return Status::Unsupported("AST node type");
}

const FunctionDef* Interpreter::FindFunction(size_t index) const {
  return functions_[index];
}

}  // namespace script
}  // namespace discsec
