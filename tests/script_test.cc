#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "script/interpreter.h"
#include "script/lexer.h"
#include "script/parser.h"

namespace discsec {
namespace script {
namespace {

/// Runs `source` and returns the final expression value's display string.
std::string Eval(const std::string& source) {
  Interpreter interp;
  auto result = interp.Run(source);
  if (!result.ok()) return "ERROR: " + result.status().ToString();
  return result->ToDisplayString();
}

// ---------------------------------------------------------------- lexer

/// Every token of `source` through the kEnd token, or the first lex error.
Result<std::vector<Token>> Tokenize(std::string_view source) {
  Lexer lexer(source);
  std::vector<Token> tokens;
  do {
    DISCSEC_ASSIGN_OR_RETURN(Token token, lexer.Next());
    tokens.push_back(std::move(token));
  } while (tokens.back().type != TokenType::kEnd);
  return tokens;
}

TEST(LexerTest, TokenKinds) {
  auto tokens = Tokenize("var x = 42; // comment\n'str' 1.5e2 0xff === !");
  ASSERT_TRUE(tokens.ok());
  const auto& t = tokens.value();
  EXPECT_EQ(t[0].type, TokenType::kKeyword);
  EXPECT_EQ(t[1].type, TokenType::kIdentifier);
  EXPECT_EQ(t[2].text, "=");
  EXPECT_EQ(t[3].number, 42.0);
  EXPECT_EQ(t[5].string, "str");
  EXPECT_EQ(t[6].number, 150.0);
  EXPECT_EQ(t[7].number, 255.0);
  EXPECT_EQ(t[8].text, "===");
}

TEST(LexerTest, BlockCommentsAndEscapes) {
  auto tokens = Tokenize("/* multi\nline */ \"a\\n\\t\\\"b\"");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value()[0].string, "a\n\t\"b");
}

TEST(LexerTest, Rejections) {
  EXPECT_FALSE(Tokenize("\"unterminated").ok());
  EXPECT_FALSE(Tokenize("/* open").ok());
  EXPECT_FALSE(Tokenize("var x = @").ok());
  EXPECT_FALSE(Tokenize("\"new\nline\"").ok());
}

// ---------------------------------------------------------------- parser

TEST(ParserTest, RejectsMalformed) {
  EXPECT_FALSE(ParseProgram("var = 3;").ok());
  EXPECT_FALSE(ParseProgram("if (x {}").ok());
  EXPECT_FALSE(ParseProgram("function () {}").ok());  // decl needs a name
  EXPECT_FALSE(ParseProgram("1 +").ok());
  EXPECT_FALSE(ParseProgram("{ unclosed").ok());
  EXPECT_FALSE(ParseProgram("3 = x;").ok());  // bad assignment target
}

TEST(ParserTest, FunctionExpressionIsFine) {
  EXPECT_TRUE(ParseProgram("var f = function () { return 1; };").ok());
}

// ---------------------------------------------------------------- eval

struct EvalCase {
  const char* name;
  const char* source;
  const char* expected;
};

class EvalTest : public ::testing::TestWithParam<EvalCase> {};

TEST_P(EvalTest, Evaluates) {
  EXPECT_EQ(Eval(GetParam().source), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Arithmetic, EvalTest,
    ::testing::Values(
        EvalCase{"add", "1 + 2;", "3"},
        EvalCase{"precedence", "2 + 3 * 4;", "14"},
        EvalCase{"parens", "(2 + 3) * 4;", "20"},
        EvalCase{"modulo", "17 % 5;", "2"},
        EvalCase{"division", "7 / 2;", "3.5"},
        EvalCase{"unary_minus", "-(3 + 4);", "-7"},
        EvalCase{"string_concat", "'high' + 'score';", "highscore"},
        EvalCase{"num_string_concat", "'score: ' + 42;", "score: 42"},
        EvalCase{"compound", "var x = 10; x += 5; x *= 2; x;", "30"},
        EvalCase{"postfix", "var i = 5; var j = i++; j + ',' + i;", "5,6"},
        EvalCase{"prefix", "var i = 5; var j = ++i; j + ',' + i;", "6,6"}),
    [](const ::testing::TestParamInfo<EvalCase>& info) {
      return info.param.name;
    });

INSTANTIATE_TEST_SUITE_P(
    Logic, EvalTest,
    ::testing::Values(
        EvalCase{"eq", "1 === 1;", "true"},
        EvalCase{"neq_types", "1 == '1';", "false"},  // strict by design
        EvalCase{"lt", "3 < 4;", "true"},
        EvalCase{"string_compare", "'abc' < 'abd';", "true"},
        EvalCase{"and_shortcircuit", "false && missing();", "false"},
        EvalCase{"or_shortcircuit", "true || missing();", "true"},
        EvalCase{"or_value", "null || 'fallback';", "fallback"},
        EvalCase{"not", "!0;", "true"},
        EvalCase{"ternary", "5 > 3 ? 'yes' : 'no';", "yes"},
        EvalCase{"typeof", "typeof 'x' + ',' + typeof 1 + ',' + typeof {};",
                 "string,number,object"}),
    [](const ::testing::TestParamInfo<EvalCase>& info) {
      return info.param.name;
    });

INSTANTIATE_TEST_SUITE_P(
    ControlFlow, EvalTest,
    ::testing::Values(
        EvalCase{"if_else", "var x; if (2 > 1) { x = 'a'; } else { x = 'b'; }"
                            " x;",
                 "a"},
        EvalCase{"while_loop",
                 "var s = 0; var i = 1; while (i <= 10) { s += i; i++; } s;",
                 "55"},
        EvalCase{"for_loop",
                 "var s = 0; for (var i = 0; i < 5; i++) { s += i; } s;",
                 "10"},
        EvalCase{"break_stmt",
                 "var i = 0; while (true) { i++; if (i === 7) break; } i;",
                 "7"},
        EvalCase{"continue_stmt",
                 "var s = 0; for (var i = 0; i < 10; i++) { "
                 "if (i % 2 === 0) continue; s += i; } s;",
                 "25"},
        EvalCase{"do_while",
                 "var i = 0; do { i++; } while (i < 3); i;", "3"},
        EvalCase{"nested_loops",
                 "var c = 0; for (var i = 0; i < 3; i++) "
                 "for (var j = 0; j < 4; j++) c++; c;",
                 "12"},
        EvalCase{"switch_match",
                 "var r; switch (2) { case 1: r = 'a'; break; "
                 "case 2: r = 'b'; break; default: r = 'c'; } r;",
                 "b"},
        EvalCase{"switch_default",
                 "var r; switch (9) { case 1: r = 'a'; break; "
                 "default: r = 'd'; } r;",
                 "d"},
        EvalCase{"switch_fallthrough",
                 "var r = ''; switch (1) { case 1: r += 'a'; "
                 "case 2: r += 'b'; break; case 3: r += 'c'; } r;",
                 "ab"},
        EvalCase{"switch_strings",
                 "var r; switch ('Down') { case 'Up': r = -1; break; "
                 "case 'Down': r = 1; break; default: r = 0; } r;",
                 "1"},
        EvalCase{"switch_no_match_no_default",
                 "var r = 'untouched'; switch (7) { case 1: r = 'x'; } r;",
                 "untouched"},
        EvalCase{"switch_return_inside_function",
                 "function f(k) { switch (k) { case 1: return 'one'; "
                 "default: return 'many'; } } f(1) + f(5);",
                 "onemany"}),
    [](const ::testing::TestParamInfo<EvalCase>& info) {
      return info.param.name;
    });

INSTANTIATE_TEST_SUITE_P(
    Functions, EvalTest,
    ::testing::Values(
        EvalCase{"simple_call",
                 "function add(a, b) { return a + b; } add(2, 3);", "5"},
        EvalCase{"recursion",
                 "function fib(n) { if (n < 2) return n; "
                 "return fib(n-1) + fib(n-2); } fib(10);",
                 "55"},
        EvalCase{"closure",
                 "function counter() { var n = 0; "
                 "return function () { n += 1; return n; }; } "
                 "var c = counter(); c(); c(); c();",
                 "3"},
        EvalCase{"function_expr",
                 "var square = function (x) { return x * x; }; square(9);",
                 "81"},
        EvalCase{"higher_order",
                 "function apply(f, x) { return f(x); } "
                 "apply(function (v) { return v * 10; }, 4);",
                 "40"},
        EvalCase{"arguments_object",
                 "function count() { return arguments.length; } "
                 "count(1, 2, 3);",
                 "3"},
        EvalCase{"missing_args_undefined",
                 "function f(a, b) { return typeof b; } f(1);", "undefined"},
        EvalCase{"early_return",
                 "function f() { for (var i = 0; i < 100; i++) "
                 "{ if (i === 3) return i; } return -1; } f();",
                 "3"}),
    [](const ::testing::TestParamInfo<EvalCase>& info) {
      return info.param.name;
    });

INSTANTIATE_TEST_SUITE_P(
    ObjectsArrays, EvalTest,
    ::testing::Values(
        EvalCase{"object_literal",
                 "var o = { title: 'Movie', year: 2005 }; "
                 "o.title + ' ' + o.year;",
                 "Movie 2005"},
        EvalCase{"object_assign", "var o = {}; o.x = 1; o['y'] = 2; o.x + o.y;",
                 "3"},
        EvalCase{"nested_object",
                 "var o = { a: { b: { c: 42 } } }; o.a.b.c;", "42"},
        EvalCase{"array_literal", "var a = [1, 2, 3]; a[0] + a[2];", "4"},
        EvalCase{"array_length", "[1, 2, 3, 4].length;", "4"},
        EvalCase{"array_push",
                 "var a = []; a.push(10); a.push(20, 30); a.length;", "3"},
        EvalCase{"array_grow", "var a = []; a[4] = 'x'; a.length;", "5"},
        EvalCase{"array_oob_undefined", "typeof [1][5];", "undefined"},
        EvalCase{"missing_prop_undefined", "typeof ({}).nope;", "undefined"},
        EvalCase{"string_methods",
                 "'Blu-ray'.toUpperCase() + '/' + 'Blu-ray'.indexOf('ray') + "
                 "'/' + 'Blu-ray'.substring(0, 3);",
                 "BLU-RAY/4/Blu"},
        EvalCase{"string_index", "'abc'[1];", "b"},
        EvalCase{"reference_semantics",
                 "var a = { n: 1 }; var b = a; b.n = 2; a.n;", "2"}),
    [](const ::testing::TestParamInfo<EvalCase>& info) {
      return info.param.name;
    });

INSTANTIATE_TEST_SUITE_P(
    Builtins, EvalTest,
    ::testing::Values(
        EvalCase{"math_floor", "Math.floor(3.7);", "3"},
        EvalCase{"math_ceil", "Math.ceil(3.2);", "4"},
        EvalCase{"math_abs", "Math.abs(-5);", "5"},
        EvalCase{"math_sqrt", "Math.sqrt(144);", "12"},
        EvalCase{"math_max_min", "Math.max(1, 9, 4) + Math.min(2, -3);",
                 "6"},
        EvalCase{"math_pow", "Math.pow(2, 10);", "1024"},
        EvalCase{"parse_int", "parseInt('42abc');", "42"},
        EvalCase{"parse_int_hex", "parseInt('ff', 16);", "255"},
        EvalCase{"parse_float", "parseFloat('3.5x');", "3.5"},
        EvalCase{"parse_garbage_nan", "isNaN(parseInt('xyz'));", "true"},
        EvalCase{"is_nan", "isNaN(1) + ',' + isNaN('nope');",
                 "false,true"},
        EvalCase{"from_char_code", "String.fromCharCode(72, 105);", "Hi"}),
    [](const ::testing::TestParamInfo<EvalCase>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------- errors

TEST(InterpreterErrorTest, UndefinedVariable) {
  Interpreter interp;
  auto result = interp.Run("missing + 1;");
  EXPECT_TRUE(result.status().IsNotFound());
}

TEST(InterpreterErrorTest, CallingNonFunction) {
  Interpreter interp;
  auto result = interp.Run("var x = 3; x();");
  EXPECT_FALSE(result.ok());
}

TEST(InterpreterErrorTest, StepBudgetEnforced) {
  Limits limits;
  limits.max_steps = 1000;
  Interpreter interp(limits);
  auto result = interp.Run("while (true) {}");
  EXPECT_TRUE(result.status().IsResourceExhausted());
}

TEST(InterpreterErrorTest, CallDepthEnforced) {
  Limits limits;
  limits.max_call_depth = 32;
  Interpreter interp(limits);
  auto result = interp.Run("function f() { return f(); } f();");
  EXPECT_TRUE(result.status().IsResourceExhausted());
}

TEST(ParserTest, DeepNestingIsResourceExhaustedNotACrash) {
  // Script sources are untrusted; 10^5 nested parentheses used to recurse
  // the parser off the end of the stack.
  constexpr int kDepth = 100000;
  std::string source =
      "var x = " + std::string(kDepth, '(') + "1" + std::string(kDepth, ')') +
      ";";
  auto program = ParseProgram(source);
  ASSERT_FALSE(program.ok());
  EXPECT_TRUE(program.status().IsResourceExhausted())
      << program.status().ToString();
  // Statements nest the same way.
  auto blocks =
      ParseProgram(std::string(kDepth, '{') + std::string(kDepth, '}'));
  EXPECT_TRUE(blocks.status().IsResourceExhausted())
      << blocks.status().ToString();
  // Ordinary nesting still parses.
  EXPECT_TRUE(ParseProgram("var y = " + std::string(50, '(') + "1" +
                           std::string(50, ')') + ";")
                  .ok());
}

TEST(ParserTest, NestingBombIsRejectedBeforeTheTailIsLexed) {
  // Tokens are pulled on demand, so the nesting bound trips about 128
  // tokens in and the rest of the source is never lexed: the unterminated
  // string literal at the end would be a lex error if it were.
  std::string source = "var x = " + std::string(100000, '(') + "1 + \"open";
  auto program = ParseProgram(source);
  ASSERT_FALSE(program.ok());
  EXPECT_TRUE(program.status().IsResourceExhausted())
      << program.status().ToString();
  // A lex error the parser does reach is still reported as such, ahead of
  // the parse error its early end of input causes.
  auto lexed = ParseProgram("var y = (1 + \"open");
  ASSERT_FALSE(lexed.ok());
  EXPECT_NE(lexed.status().message().find("unterminated string literal"),
            std::string::npos)
      << lexed.status().ToString();
}

TEST(InterpreterErrorTest, DeepExpressionTreeIsResourceExhaustedNotACrash) {
  // A long operator chain parses iteratively into a left-deep tree of
  // 10^5 levels; evaluating (and freeing) it must not overflow the stack.
  std::string source = "var x = 1";
  for (int i = 0; i < 100000; ++i) source += "+1";
  source += ";";
  Interpreter interp;
  auto result = interp.Run(source);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted())
      << result.status().ToString();
  // A short chain still evaluates.
  EXPECT_EQ(interp.Run("1+1+1+1").value().AsNumber(), 4.0);
}

TEST(InterpreterErrorTest, HugeArrayIndexRejected) {
  Interpreter interp;
  auto result = interp.Run("var a = []; a[99999999] = 1;");
  EXPECT_TRUE(result.status().IsResourceExhausted());
}

// ---------------------------------------------------------------- host API

TEST(HostBindingTest, NativeFunctionCall) {
  Interpreter interp;
  std::vector<std::string> log;
  interp.DefineNative("print",
                      [&log](const std::vector<Value>& args) -> Result<Value> {
                        std::string line;
                        for (const Value& v : args) {
                          line += v.ToDisplayString();
                        }
                        log.push_back(line);
                        return Value();
                      });
  ASSERT_TRUE(interp.Run("print('hello ', 42);").ok());
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], "hello 42");
}

TEST(HostBindingTest, HostObjectWithMethods) {
  Interpreter interp;
  double stored = 0;
  Value storage = Value::MakeObject();
  storage.AsObject()["write"] = Value::Native(
      [&stored](const std::vector<Value>& args) -> Result<Value> {
        stored = args.empty() ? 0 : args[0].ToNumber();
        return Value::Boolean(true);
      });
  storage.AsObject()["read"] = Value::Native(
      [&stored](const std::vector<Value>&) -> Result<Value> {
        return Value::Number(stored);
      });
  interp.DefineGlobal("storage", storage);
  auto result = interp.Run("storage.write(9000); storage.read() + 1;");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->ToDisplayString(), "9001");
}

TEST(HostBindingTest, NativeErrorPropagates) {
  Interpreter interp;
  interp.DefineNative("denied", [](const std::vector<Value>&) -> Result<Value> {
    return Status::PermissionDenied("storage access denied by policy");
  });
  auto result = interp.Run("denied();");
  EXPECT_TRUE(result.status().IsPermissionDenied());
}

TEST(HostBindingTest, CallGlobalEventHandler) {
  Interpreter interp;
  ASSERT_TRUE(
      interp.Run("var clicks = 0; function onClick(n) { clicks += n; "
                 "return clicks; }")
          .ok());
  auto r1 = interp.CallGlobal("onClick", {Value::Number(2)});
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->ToDisplayString(), "2");
  auto r2 = interp.CallGlobal("onClick", {Value::Number(3)});
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->ToDisplayString(), "5");
  EXPECT_TRUE(interp.CallGlobal("nope", {}).status().IsNotFound());
}

TEST(HostBindingTest, MultipleRunsShareGlobals) {
  Interpreter interp;
  ASSERT_TRUE(interp.Run("var x = 10; function get() { return x; }").ok());
  ASSERT_TRUE(interp.Run("x = 20;").ok());
  auto result = interp.CallGlobal("get", {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ToDisplayString(), "20");
}

TEST(HostBindingTest, ClosuresFromEarlierRunSurviveLaterRuns) {
  // Regression guard for the function-table rebasing across Run() calls.
  Interpreter interp;
  ASSERT_TRUE(interp.Run("function mk() { return function () { return 'first'; }; }"
                         "var f = mk();")
                  .ok());
  ASSERT_TRUE(interp.Run("function g() { return 'second'; }").ok());
  auto first = interp.CallGlobal("f", {});
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->ToDisplayString(), "first");
  auto second = interp.CallGlobal("g", {});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->ToDisplayString(), "second");
}

TEST(HostBindingTest, DestroyedInterpreterFreesClosureScopes) {
  // Closures hold their defining scope and the scope holds the closure:
  // the global scope through `outer`, and outer's call scope through
  // `self`. Destroying the interpreter must free both.
  std::weak_ptr<Environment> global_scope;
  std::weak_ptr<Environment> call_scope;
  {
    Interpreter interp;
    ASSERT_TRUE(interp
                    .Run("function outer() {"
                         "  var self = function () { return self; };"
                         "  return self;"
                         "}"
                         "var g = outer();")
                    .ok());
    global_scope = interp.GetGlobal("outer").AsClosure().env;
    call_scope = interp.GetGlobal("g").AsClosure().env;
    ASSERT_FALSE(global_scope.expired());
    ASSERT_FALSE(call_scope.expired());
    ASSERT_NE(global_scope.lock(), call_scope.lock());
  }
  EXPECT_TRUE(global_scope.expired());
  EXPECT_TRUE(call_scope.expired());
}

TEST(StepAccountingTest, StepsAccumulate) {
  Interpreter interp;
  ASSERT_TRUE(interp.Run("var s = 0; for (var i = 0; i < 100; i++) s += i;")
                  .ok());
  EXPECT_GT(interp.steps_used(), 100u);
  uint64_t before = interp.steps_used();
  interp.ResetStepBudget();
  EXPECT_EQ(interp.steps_used(), 0u);
  EXPECT_GT(before, 0u);
}

}  // namespace
}  // namespace script
}  // namespace discsec
