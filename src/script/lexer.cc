#include "script/lexer.h"

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <set>

namespace discsec {
namespace script {

bool IsKeyword(std::string_view word) {
  static const std::set<std::string, std::less<>> kKeywords = {
      "var",    "function", "if",       "else",  "while",  "for",
      "return", "break",    "continue", "true",  "false",  "null",
      "undefined", "typeof", "new",     "this",  "in",     "do",
      "switch", "case",     "default"};
  return kKeywords.count(word) > 0;
}

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '$';
}

bool IsIdentPart(char c) {
  return IsIdentStart(c) || std::isdigit(static_cast<unsigned char>(c));
}

// Longest-match-first punctuator table.
const char* kPunctuators3[] = {"===", "!=="};
const char* kPunctuators2[] = {"==", "!=", "<=", ">=", "&&", "||", "+=",
                               "-=", "*=", "/=", "%=", "++", "--"};
const char kPunctuators1[] = "+-*/%=<>!(){}[];,.?:";

}  // namespace

Result<Token> Lexer::Next() {
  // Short names for the cursor; advancing them advances the lexer.
  std::string_view source = source_;
  size_t& pos = pos_;
  int& line = line_;
  auto error = [&](const std::string& what) {
    return Status::ParseError(what + " at line " + std::to_string(line));
  };

  while (pos < source.size()) {
    char c = source[pos];
    if (c == '\n') {
      ++line;
      ++pos;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r') {
      ++pos;
      continue;
    }
    // Comments.
    if (c == '/' && pos + 1 < source.size()) {
      if (source[pos + 1] == '/') {
        while (pos < source.size() && source[pos] != '\n') ++pos;
        continue;
      }
      if (source[pos + 1] == '*') {
        pos += 2;
        while (pos + 1 < source.size() &&
               !(source[pos] == '*' && source[pos + 1] == '/')) {
          if (source[pos] == '\n') ++line;
          ++pos;
        }
        if (pos + 1 >= source.size()) return error("unterminated comment");
        pos += 2;
        continue;
      }
    }
    // Numbers.
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && pos + 1 < source.size() &&
         std::isdigit(static_cast<unsigned char>(source[pos + 1])))) {
      Token token;
      token.type = TokenType::kNumber;
      token.line = line;
      size_t start = pos;
      if (c == '0' && pos + 1 < source.size() &&
          (source[pos + 1] == 'x' || source[pos + 1] == 'X')) {
        pos += 2;
        while (pos < source.size() &&
               std::isxdigit(static_cast<unsigned char>(source[pos]))) {
          ++pos;
        }
        token.number = static_cast<double>(
            std::strtoull(std::string(source.substr(start + 2, pos - start - 2))
                              .c_str(),
                          nullptr, 16));
      } else {
        while (pos < source.size() &&
               (std::isdigit(static_cast<unsigned char>(source[pos])) ||
                source[pos] == '.' || source[pos] == 'e' ||
                source[pos] == 'E' ||
                ((source[pos] == '+' || source[pos] == '-') && pos > start &&
                 (source[pos - 1] == 'e' || source[pos - 1] == 'E')))) {
          ++pos;
        }
        token.number =
            std::strtod(std::string(source.substr(start, pos - start)).c_str(),
                        nullptr);
      }
      return token;
    }
    // Strings.
    if (c == '"' || c == '\'') {
      char quote = c;
      ++pos;
      Token token;
      token.type = TokenType::kString;
      token.line = line;
      std::string value;
      while (pos < source.size() && source[pos] != quote) {
        char ch = source[pos];
        if (ch == '\n') return error("newline in string literal");
        if (ch == '\\') {
          ++pos;
          if (pos >= source.size()) return error("unterminated escape");
          char esc = source[pos];
          switch (esc) {
            case 'n':
              value.push_back('\n');
              break;
            case 't':
              value.push_back('\t');
              break;
            case 'r':
              value.push_back('\r');
              break;
            case '\\':
            case '"':
            case '\'':
              value.push_back(esc);
              break;
            case '0':
              value.push_back('\0');
              break;
            default:
              value.push_back(esc);  // lenient: unknown escapes pass through
          }
          ++pos;
        } else {
          value.push_back(ch);
          ++pos;
        }
      }
      if (pos >= source.size()) return error("unterminated string literal");
      ++pos;  // closing quote
      token.string = std::move(value);
      return token;
    }
    // Identifiers and keywords.
    if (IsIdentStart(c)) {
      size_t start = pos;
      while (pos < source.size() && IsIdentPart(source[pos])) ++pos;
      Token token;
      token.line = line;
      token.text = std::string(source.substr(start, pos - start));
      token.type =
          IsKeyword(token.text) ? TokenType::kKeyword : TokenType::kIdentifier;
      return token;
    }
    // Punctuators (longest match).
    for (const char* p : kPunctuators3) {
      if (source.compare(pos, 3, p) == 0) {
        pos += 3;
        return Token{TokenType::kPunctuator, p, 0.0, "", line};
      }
    }
    for (const char* p : kPunctuators2) {
      if (source.compare(pos, 2, p) == 0) {
        pos += 2;
        return Token{TokenType::kPunctuator, p, 0.0, "", line};
      }
    }
    if (std::strchr(kPunctuators1, c) != nullptr && c != '\0') {
      ++pos;
      return Token{TokenType::kPunctuator, std::string(1, c), 0.0, "", line};
    }
    return error(std::string("unexpected character '") + c + "'");
  }
  return Token{TokenType::kEnd, "", 0.0, "", line};
}

}  // namespace script
}  // namespace discsec
