#include "script/parser.h"

#include "script/lexer.h"
#include "script/value.h"

namespace discsec {
namespace script {

namespace {

/// How deeply the parser may recurse: each statement, assignment-level
/// expression and prefix operator open on the stack counts one level (a
/// parenthesised subexpression costs two). Script sources are untrusted
/// (disc and network content), so nesting is bounded before it can exhaust
/// the stack.
constexpr int kMaxNesting = 256;

/// Recursive descent over tokens pulled from the lexer on demand: the
/// parser only ever looks at the current token, so a program it rejects
/// early (a nesting bomb) is never lexed past the point of rejection.
class ParserImpl {
 public:
  ParserImpl(std::string_view source, Program* program)
      : lexer_(source), program_(program) {}

  /// The first lex error, if parsing read that far; the parser sees it as
  /// the end of input, so it outranks whatever parse error that caused.
  const Status& lex_error() const { return lex_error_; }

  Result<NodePtr> Run() {
    Advance();  // load the first token
    auto root = std::make_unique<Node>(NodeType::kProgram);
    while (!AtEnd()) {
      DISCSEC_ASSIGN_OR_RETURN(NodePtr stmt, ParseStatement());
      root->children.push_back(std::move(stmt));
    }
    return root;
  }

 private:
  const Token& Peek() const { return current_; }
  /// Consumes the current token and returns it (valid until the next
  /// Advance).
  const Token& Advance() {
    previous_ = std::move(current_);
    Result<Token> next = lexer_.Next();
    if (next.ok()) {
      current_ = std::move(next).value();
    } else {
      if (lex_error_.ok()) lex_error_ = next.status();
      current_ = Token{TokenType::kEnd, "", 0.0, "", previous_.line};
    }
    return previous_;
  }
  bool AtEnd() const { return Peek().type == TokenType::kEnd; }

  bool CheckPunct(std::string_view p) const {
    return Peek().type == TokenType::kPunctuator && Peek().text == p;
  }
  bool CheckKeyword(std::string_view k) const {
    return Peek().type == TokenType::kKeyword && Peek().text == k;
  }
  bool MatchPunct(std::string_view p) {
    if (CheckPunct(p)) {
      Advance();
      return true;
    }
    return false;
  }
  bool MatchKeyword(std::string_view k) {
    if (CheckKeyword(k)) {
      Advance();
      return true;
    }
    return false;
  }
  Status Error(const std::string& what) const {
    return Status::ParseError(what + " at line " +
                              std::to_string(Peek().line));
  }
  Status ExpectPunct(std::string_view p) {
    if (!MatchPunct(p)) {
      return Error("expected '" + std::string(p) + "', got '" + Peek().text +
                   "'");
    }
    return Status::OK();
  }

  /// One level of recursive descent, held while a parse function runs.
  struct Nesting {
    explicit Nesting(int* d) : depth(d) { ++*depth; }
    ~Nesting() { --*depth; }
    int* depth;
  };
  Status CheckNesting() const {
    if (depth_ <= kMaxNesting) return Status::OK();
    return Status::ResourceExhausted("script nests deeper than " +
                                     std::to_string(kMaxNesting) +
                                     " levels at line " +
                                     std::to_string(Peek().line));
  }

  NodePtr MakeNode(NodeType type) {
    auto node = std::make_unique<Node>(type);
    node->line = Peek().line;
    return node;
  }

  // ---- statements ----

  Result<NodePtr> ParseStatement() {
    Nesting nesting(&depth_);
    DISCSEC_RETURN_IF_ERROR(CheckNesting());
    if (CheckPunct("{")) return ParseBlock();
    if (CheckKeyword("var")) return ParseVarStatement();
    if (CheckKeyword("function")) return ParseFunctionDecl();
    if (CheckKeyword("if")) return ParseIf();
    if (CheckKeyword("switch")) return ParseSwitch();
    if (CheckKeyword("while")) return ParseWhile();
    if (CheckKeyword("do")) return ParseDoWhile();
    if (CheckKeyword("for")) return ParseFor();
    if (CheckKeyword("return")) {
      auto node = MakeNode(NodeType::kReturn);
      Advance();
      if (!CheckPunct(";") && !CheckPunct("}") && !AtEnd()) {
        DISCSEC_ASSIGN_OR_RETURN(NodePtr value, ParseExpression());
        node->children.push_back(std::move(value));
      }
      MatchPunct(";");
      return node;
    }
    if (MatchKeyword("break")) {
      MatchPunct(";");
      return MakeNode(NodeType::kBreak);
    }
    if (MatchKeyword("continue")) {
      MatchPunct(";");
      return MakeNode(NodeType::kContinue);
    }
    if (MatchPunct(";")) {
      // Empty statement.
      auto node = MakeNode(NodeType::kBlock);
      return node;
    }
    auto node = MakeNode(NodeType::kExprStatement);
    DISCSEC_ASSIGN_OR_RETURN(NodePtr expr, ParseExpression());
    node->children.push_back(std::move(expr));
    MatchPunct(";");
    return node;
  }

  Result<NodePtr> ParseBlock() {
    auto node = MakeNode(NodeType::kBlock);
    DISCSEC_RETURN_IF_ERROR(ExpectPunct("{"));
    while (!CheckPunct("}") && !AtEnd()) {
      DISCSEC_ASSIGN_OR_RETURN(NodePtr stmt, ParseStatement());
      node->children.push_back(std::move(stmt));
    }
    DISCSEC_RETURN_IF_ERROR(ExpectPunct("}"));
    return node;
  }

  Result<NodePtr> ParseVarStatement() {
    Advance();  // var
    // Support comma lists by wrapping in a block of declarations.
    auto block = MakeNode(NodeType::kBlock);
    for (;;) {
      DISCSEC_ASSIGN_OR_RETURN(NodePtr decl, ParseSingleVarDecl());
      block->children.push_back(std::move(decl));
      if (!MatchPunct(",")) break;
    }
    MatchPunct(";");
    if (block->children.size() == 1) {
      return std::move(block->children[0]);
    }
    return block;
  }

  Result<NodePtr> ParseSingleVarDecl() {
    if (Peek().type != TokenType::kIdentifier) {
      return Error("expected variable name");
    }
    auto node = MakeNode(NodeType::kVarDecl);
    node->string_value = Advance().text;
    if (MatchPunct("=")) {
      DISCSEC_ASSIGN_OR_RETURN(NodePtr init, ParseAssignment());
      node->children.push_back(std::move(init));
    }
    return node;
  }

  Result<NodePtr> ParseFunctionDecl() {
    Advance();  // function
    if (Peek().type != TokenType::kIdentifier) {
      return Error("expected function name");
    }
    auto node = MakeNode(NodeType::kFunctionDecl);
    node->string_value = Advance().text;
    DISCSEC_ASSIGN_OR_RETURN(size_t index,
                             ParseFunctionRest(node->string_value));
    node->function_index = index;
    return node;
  }

  /// Parses "(params) { body }" and registers the FunctionDef.
  Result<size_t> ParseFunctionRest(const std::string& name) {
    auto def = std::make_unique<FunctionDef>();
    def->name = name;
    DISCSEC_RETURN_IF_ERROR(ExpectPunct("("));
    if (!CheckPunct(")")) {
      for (;;) {
        if (Peek().type != TokenType::kIdentifier) {
          return Error("expected parameter name");
        }
        def->params.push_back(Advance().text);
        if (!MatchPunct(",")) break;
      }
    }
    DISCSEC_RETURN_IF_ERROR(ExpectPunct(")"));
    DISCSEC_ASSIGN_OR_RETURN(def->body, ParseBlock());
    program_->functions.push_back(std::move(def));
    return program_->functions.size() - 1;
  }

  Result<NodePtr> ParseIf() {
    auto node = MakeNode(NodeType::kIf);
    Advance();  // if
    DISCSEC_RETURN_IF_ERROR(ExpectPunct("("));
    DISCSEC_ASSIGN_OR_RETURN(NodePtr cond, ParseExpression());
    node->children.push_back(std::move(cond));
    DISCSEC_RETURN_IF_ERROR(ExpectPunct(")"));
    DISCSEC_ASSIGN_OR_RETURN(NodePtr then, ParseStatement());
    node->children.push_back(std::move(then));
    if (MatchKeyword("else")) {
      DISCSEC_ASSIGN_OR_RETURN(NodePtr else_branch, ParseStatement());
      node->children.push_back(std::move(else_branch));
    }
    return node;
  }

  Result<NodePtr> ParseSwitch() {
    auto node = MakeNode(NodeType::kSwitch);
    Advance();  // switch
    DISCSEC_RETURN_IF_ERROR(ExpectPunct("("));
    DISCSEC_ASSIGN_OR_RETURN(NodePtr discriminant, ParseExpression());
    node->children.push_back(std::move(discriminant));
    DISCSEC_RETURN_IF_ERROR(ExpectPunct(")"));
    DISCSEC_RETURN_IF_ERROR(ExpectPunct("{"));
    bool seen_default = false;
    while (!CheckPunct("}") && !AtEnd()) {
      auto clause = MakeNode(NodeType::kCase);
      if (MatchKeyword("case")) {
        DISCSEC_ASSIGN_OR_RETURN(NodePtr test, ParseExpression());
        clause->children.push_back(std::move(test));
      } else if (MatchKeyword("default")) {
        if (seen_default) return Error("multiple default clauses");
        seen_default = true;
        clause->bool_value = true;
      } else {
        return Error("expected 'case' or 'default' in switch body");
      }
      DISCSEC_RETURN_IF_ERROR(ExpectPunct(":"));
      while (!CheckPunct("}") && !CheckKeyword("case") &&
             !CheckKeyword("default") && !AtEnd()) {
        DISCSEC_ASSIGN_OR_RETURN(NodePtr stmt, ParseStatement());
        clause->children.push_back(std::move(stmt));
      }
      node->children.push_back(std::move(clause));
    }
    DISCSEC_RETURN_IF_ERROR(ExpectPunct("}"));
    return node;
  }

  Result<NodePtr> ParseWhile() {
    auto node = MakeNode(NodeType::kWhile);
    Advance();  // while
    DISCSEC_RETURN_IF_ERROR(ExpectPunct("("));
    DISCSEC_ASSIGN_OR_RETURN(NodePtr cond, ParseExpression());
    node->children.push_back(std::move(cond));
    DISCSEC_RETURN_IF_ERROR(ExpectPunct(")"));
    DISCSEC_ASSIGN_OR_RETURN(NodePtr body, ParseStatement());
    node->children.push_back(std::move(body));
    return node;
  }

  Result<NodePtr> ParseDoWhile() {
    // Desugar: do S while (C);  =>  S; while (C) S;  -- not identical when S
    // contains break/continue on first run, so keep a real loop: implement
    // as for(;;){ S; if(!C) break; }.
    Advance();  // do
    DISCSEC_ASSIGN_OR_RETURN(NodePtr body, ParseStatement());
    if (!MatchKeyword("while")) return Error("expected 'while' after do body");
    DISCSEC_RETURN_IF_ERROR(ExpectPunct("("));
    DISCSEC_ASSIGN_OR_RETURN(NodePtr cond, ParseExpression());
    DISCSEC_RETURN_IF_ERROR(ExpectPunct(")"));
    MatchPunct(";");
    // Build: for(;;){ body; if (!cond) break; }
    auto loop = MakeNode(NodeType::kFor);
    loop->children.push_back(MakeNode(NodeType::kUndefinedLiteral));
    loop->children.push_back(MakeNode(NodeType::kUndefinedLiteral));
    loop->children.push_back(MakeNode(NodeType::kUndefinedLiteral));
    auto block = MakeNode(NodeType::kBlock);
    block->children.push_back(std::move(body));
    auto brk_if = MakeNode(NodeType::kIf);
    auto negate = MakeNode(NodeType::kUnary);
    negate->string_value = "!";
    negate->children.push_back(std::move(cond));
    brk_if->children.push_back(std::move(negate));
    brk_if->children.push_back(MakeNode(NodeType::kBreak));
    block->children.push_back(std::move(brk_if));
    loop->children.push_back(std::move(block));
    return loop;
  }

  Result<NodePtr> ParseFor() {
    auto node = MakeNode(NodeType::kFor);
    Advance();  // for
    DISCSEC_RETURN_IF_ERROR(ExpectPunct("("));
    // init
    if (MatchPunct(";")) {
      node->children.push_back(MakeNode(NodeType::kUndefinedLiteral));
    } else if (CheckKeyword("var")) {
      DISCSEC_ASSIGN_OR_RETURN(NodePtr init, ParseVarStatement());
      node->children.push_back(std::move(init));
      // ParseVarStatement consumed the ';' if present; require it.
    } else {
      auto stmt = MakeNode(NodeType::kExprStatement);
      DISCSEC_ASSIGN_OR_RETURN(NodePtr expr, ParseExpression());
      stmt->children.push_back(std::move(expr));
      node->children.push_back(std::move(stmt));
      DISCSEC_RETURN_IF_ERROR(ExpectPunct(";"));
    }
    // condition
    if (CheckPunct(";")) {
      node->children.push_back(MakeNode(NodeType::kUndefinedLiteral));
    } else {
      DISCSEC_ASSIGN_OR_RETURN(NodePtr cond, ParseExpression());
      node->children.push_back(std::move(cond));
    }
    DISCSEC_RETURN_IF_ERROR(ExpectPunct(";"));
    // update
    if (CheckPunct(")")) {
      node->children.push_back(MakeNode(NodeType::kUndefinedLiteral));
    } else {
      DISCSEC_ASSIGN_OR_RETURN(NodePtr update, ParseExpression());
      node->children.push_back(std::move(update));
    }
    DISCSEC_RETURN_IF_ERROR(ExpectPunct(")"));
    DISCSEC_ASSIGN_OR_RETURN(NodePtr body, ParseStatement());
    node->children.push_back(std::move(body));
    return node;
  }

  // ---- expressions (precedence climbing) ----

  Result<NodePtr> ParseExpression() { return ParseAssignment(); }

  Result<NodePtr> ParseAssignment() {
    Nesting nesting(&depth_);
    DISCSEC_RETURN_IF_ERROR(CheckNesting());
    DISCSEC_ASSIGN_OR_RETURN(NodePtr lhs, ParseConditional());
    static const char* kAssignOps[] = {"=", "+=", "-=", "*=", "/=", "%="};
    for (const char* op : kAssignOps) {
      if (CheckPunct(op)) {
        if (lhs->type != NodeType::kIdentifier &&
            lhs->type != NodeType::kMember &&
            lhs->type != NodeType::kIndex) {
          return Error("invalid assignment target");
        }
        auto node = MakeNode(NodeType::kAssign);
        node->string_value = Advance().text;
        DISCSEC_ASSIGN_OR_RETURN(NodePtr rhs, ParseAssignment());
        node->children.push_back(std::move(lhs));
        node->children.push_back(std::move(rhs));
        return node;
      }
    }
    return lhs;
  }

  Result<NodePtr> ParseConditional() {
    DISCSEC_ASSIGN_OR_RETURN(NodePtr cond, ParseLogicalOr());
    if (!MatchPunct("?")) return cond;
    auto node = MakeNode(NodeType::kConditional);
    node->children.push_back(std::move(cond));
    DISCSEC_ASSIGN_OR_RETURN(NodePtr then, ParseAssignment());
    node->children.push_back(std::move(then));
    DISCSEC_RETURN_IF_ERROR(ExpectPunct(":"));
    DISCSEC_ASSIGN_OR_RETURN(NodePtr else_value, ParseAssignment());
    node->children.push_back(std::move(else_value));
    return node;
  }

  Result<NodePtr> ParseLogicalOr() {
    DISCSEC_ASSIGN_OR_RETURN(NodePtr lhs, ParseLogicalAnd());
    while (CheckPunct("||")) {
      auto node = MakeNode(NodeType::kLogical);
      node->string_value = Advance().text;
      DISCSEC_ASSIGN_OR_RETURN(NodePtr rhs, ParseLogicalAnd());
      node->children.push_back(std::move(lhs));
      node->children.push_back(std::move(rhs));
      lhs = std::move(node);
    }
    return lhs;
  }

  Result<NodePtr> ParseLogicalAnd() {
    DISCSEC_ASSIGN_OR_RETURN(NodePtr lhs, ParseEquality());
    while (CheckPunct("&&")) {
      auto node = MakeNode(NodeType::kLogical);
      node->string_value = Advance().text;
      DISCSEC_ASSIGN_OR_RETURN(NodePtr rhs, ParseEquality());
      node->children.push_back(std::move(lhs));
      node->children.push_back(std::move(rhs));
      lhs = std::move(node);
    }
    return lhs;
  }

  Result<NodePtr> ParseBinaryLevel(
      const std::vector<std::string>& ops,
      Result<NodePtr> (ParserImpl::*next)()) {
    DISCSEC_ASSIGN_OR_RETURN(NodePtr lhs, (this->*next)());
    for (;;) {
      bool matched = false;
      for (const std::string& op : ops) {
        if (CheckPunct(op)) {
          auto node = MakeNode(NodeType::kBinary);
          node->string_value = Advance().text;
          DISCSEC_ASSIGN_OR_RETURN(NodePtr rhs, (this->*next)());
          node->children.push_back(std::move(lhs));
          node->children.push_back(std::move(rhs));
          lhs = std::move(node);
          matched = true;
          break;
        }
      }
      if (!matched) return lhs;
    }
  }

  Result<NodePtr> ParseEquality() {
    return ParseBinaryLevel({"===", "!==", "==", "!="},
                            &ParserImpl::ParseRelational);
  }

  Result<NodePtr> ParseRelational() {
    return ParseBinaryLevel({"<=", ">=", "<", ">"},
                            &ParserImpl::ParseAdditive);
  }

  Result<NodePtr> ParseAdditive() {
    return ParseBinaryLevel({"+", "-"}, &ParserImpl::ParseMultiplicative);
  }

  Result<NodePtr> ParseMultiplicative() {
    return ParseBinaryLevel({"*", "/", "%"}, &ParserImpl::ParseUnary);
  }

  Result<NodePtr> ParseUnary() {
    Nesting nesting(&depth_);
    DISCSEC_RETURN_IF_ERROR(CheckNesting());
    if (CheckPunct("-") || CheckPunct("+") || CheckPunct("!")) {
      auto node = MakeNode(NodeType::kUnary);
      node->string_value = Advance().text;
      DISCSEC_ASSIGN_OR_RETURN(NodePtr operand, ParseUnary());
      node->children.push_back(std::move(operand));
      return node;
    }
    if (CheckKeyword("typeof")) {
      auto node = MakeNode(NodeType::kUnary);
      node->string_value = Advance().text;
      DISCSEC_ASSIGN_OR_RETURN(NodePtr operand, ParseUnary());
      node->children.push_back(std::move(operand));
      return node;
    }
    if (CheckPunct("++") || CheckPunct("--")) {
      // Prefix inc/dec desugars to compound assignment: ++x -> x += 1.
      std::string op = Advance().text;
      DISCSEC_ASSIGN_OR_RETURN(NodePtr target, ParseUnary());
      auto node = MakeNode(NodeType::kAssign);
      node->string_value = op == "++" ? "+=" : "-=";
      auto one = MakeNode(NodeType::kNumberLiteral);
      one->number_value = 1.0;
      node->children.push_back(std::move(target));
      node->children.push_back(std::move(one));
      return node;
    }
    return ParsePostfix();
  }

  Result<NodePtr> ParsePostfix() {
    DISCSEC_ASSIGN_OR_RETURN(NodePtr expr, ParseCallOrMember());
    if (CheckPunct("++") || CheckPunct("--")) {
      auto node = MakeNode(NodeType::kPostfix);
      node->string_value = Advance().text;
      node->children.push_back(std::move(expr));
      return node;
    }
    return expr;
  }

  Result<NodePtr> ParseCallOrMember() {
    DISCSEC_ASSIGN_OR_RETURN(NodePtr expr, ParsePrimary());
    for (;;) {
      if (MatchPunct(".")) {
        if (Peek().type != TokenType::kIdentifier &&
            Peek().type != TokenType::kKeyword) {
          return Error("expected property name after '.'");
        }
        auto node = MakeNode(NodeType::kMember);
        node->string_value = Advance().text;
        node->children.push_back(std::move(expr));
        expr = std::move(node);
      } else if (CheckPunct("[")) {
        Advance();
        auto node = MakeNode(NodeType::kIndex);
        node->children.push_back(std::move(expr));
        DISCSEC_ASSIGN_OR_RETURN(NodePtr index, ParseExpression());
        node->children.push_back(std::move(index));
        DISCSEC_RETURN_IF_ERROR(ExpectPunct("]"));
        expr = std::move(node);
      } else if (CheckPunct("(")) {
        Advance();
        auto node = MakeNode(NodeType::kCall);
        node->children.push_back(std::move(expr));
        if (!CheckPunct(")")) {
          for (;;) {
            DISCSEC_ASSIGN_OR_RETURN(NodePtr arg, ParseAssignment());
            node->children.push_back(std::move(arg));
            if (!MatchPunct(",")) break;
          }
        }
        DISCSEC_RETURN_IF_ERROR(ExpectPunct(")"));
        expr = std::move(node);
      } else {
        return expr;
      }
    }
  }

  Result<NodePtr> ParsePrimary() {
    const Token& token = Peek();
    switch (token.type) {
      case TokenType::kNumber: {
        auto node = MakeNode(NodeType::kNumberLiteral);
        node->number_value = Advance().number;
        return node;
      }
      case TokenType::kString: {
        auto node = MakeNode(NodeType::kStringLiteral);
        node->string_value = Advance().string;
        return node;
      }
      case TokenType::kIdentifier: {
        auto node = MakeNode(NodeType::kIdentifier);
        node->string_value = Advance().text;
        return node;
      }
      case TokenType::kKeyword: {
        if (token.text == "true" || token.text == "false") {
          auto node = MakeNode(NodeType::kBooleanLiteral);
          node->bool_value = Advance().text == "true";
          return node;
        }
        if (token.text == "null") {
          Advance();
          return MakeNode(NodeType::kNullLiteral);
        }
        if (token.text == "undefined") {
          Advance();
          return MakeNode(NodeType::kUndefinedLiteral);
        }
        if (token.text == "function") {
          Advance();
          std::string name;
          if (Peek().type == TokenType::kIdentifier) name = Advance().text;
          auto node = MakeNode(NodeType::kFunctionExpr);
          DISCSEC_ASSIGN_OR_RETURN(size_t index, ParseFunctionRest(name));
          node->function_index = index;
          return node;
        }
        return Error("unexpected keyword '" + token.text + "'");
      }
      case TokenType::kPunctuator: {
        if (token.text == "(") {
          Advance();
          DISCSEC_ASSIGN_OR_RETURN(NodePtr expr, ParseExpression());
          DISCSEC_RETURN_IF_ERROR(ExpectPunct(")"));
          return expr;
        }
        if (token.text == "[") {
          Advance();
          auto node = MakeNode(NodeType::kArrayLiteral);
          if (!CheckPunct("]")) {
            for (;;) {
              DISCSEC_ASSIGN_OR_RETURN(NodePtr element, ParseAssignment());
              node->children.push_back(std::move(element));
              if (!MatchPunct(",")) break;
            }
          }
          DISCSEC_RETURN_IF_ERROR(ExpectPunct("]"));
          return node;
        }
        if (token.text == "{") {
          Advance();
          auto node = MakeNode(NodeType::kObjectLiteral);
          if (!CheckPunct("}")) {
            for (;;) {
              std::string key;
              if (Peek().type == TokenType::kIdentifier ||
                  Peek().type == TokenType::kKeyword) {
                key = Advance().text;
              } else if (Peek().type == TokenType::kString) {
                key = Advance().string;
              } else if (Peek().type == TokenType::kNumber) {
                key = Value::Number(Advance().number).ToDisplayString();
              } else {
                return Error("expected property key");
              }
              DISCSEC_RETURN_IF_ERROR(ExpectPunct(":"));
              DISCSEC_ASSIGN_OR_RETURN(NodePtr value, ParseAssignment());
              node->keys.push_back(std::move(key));
              node->children.push_back(std::move(value));
              if (!MatchPunct(",")) break;
            }
          }
          DISCSEC_RETURN_IF_ERROR(ExpectPunct("}"));
          return node;
        }
        return Error("unexpected token '" + token.text + "'");
      }
      case TokenType::kEnd:
        return Error("unexpected end of input");
    }
    return Error("unexpected token");
  }

  Lexer lexer_;
  Token current_;
  Token previous_;
  Status lex_error_;
  Program* program_;
  int depth_ = 0;  ///< current recursive-descent nesting, see Nesting
};

}  // namespace

Result<Program> ParseProgram(std::string_view source) {
  Program program;
  ParserImpl parser(source, &program);
  Result<NodePtr> root = parser.Run();
  DISCSEC_RETURN_IF_ERROR(parser.lex_error());
  if (!root.ok()) return root.status();
  program.root = std::move(root).value();
  return program;
}

}  // namespace script
}  // namespace discsec
