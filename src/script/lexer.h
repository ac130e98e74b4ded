#ifndef DISCSEC_SCRIPT_LEXER_H_
#define DISCSEC_SCRIPT_LEXER_H_

#include <string>
#include <string_view>

#include "common/result.h"

namespace discsec {
namespace script {

/// Token kinds for the ECMAScript subset.
enum class TokenType {
  kNumber,
  kString,
  kIdentifier,
  kKeyword,
  kPunctuator,
  kEnd,
};

struct Token {
  TokenType type = TokenType::kEnd;
  std::string text;       ///< identifier/keyword name, punctuator spelling
  double number = 0.0;    ///< for kNumber
  std::string string;     ///< decoded value for kString
  int line = 1;
};

/// Pulls tokens from ECMAScript source one at a time, so a parser that
/// stops early never lexes the rest. Handles // and /* */ comments, decimal
/// and hex numbers, single/double-quoted strings with the common escapes,
/// and multi-character punctuators (===, !==, &&, ||, +=, ++, ...).
class Lexer {
 public:
  /// `source` must outlive the lexer.
  explicit Lexer(std::string_view source) : source_(source) {}

  /// The next token; kEnd once the source is exhausted, and again on every
  /// later call.
  Result<Token> Next();

 private:
  std::string_view source_;
  size_t pos_ = 0;
  int line_ = 1;
};

/// True when `word` is a reserved keyword of the subset.
bool IsKeyword(std::string_view word);

}  // namespace script
}  // namespace discsec

#endif  // DISCSEC_SCRIPT_LEXER_H_
