// Token vocabulary for the XPath lexer.

#ifndef XAOS_XPATH_TOKEN_H_
#define XAOS_XPATH_TOKEN_H_

#include <string>
#include <string_view>

namespace xaos::xpath {

enum class TokenKind {
  kSlash,         // /
  kDoubleSlash,   // //
  kLeftBracket,   // [
  kRightBracket,  // ]
  kLeftParen,     // (
  kRightParen,    // )
  kDoubleColon,   // ::
  kStar,          // *
  kAt,            // @
  kDollar,        // $   (output marker extension, paper Section 5.3)
  kDot,           // .
  kDotDot,        // ..
  kPipe,          // |   (union extension)
  kEquals,        // =   (value comparison extension)
  kName,          // NCName (axis names and and/or are contextual)
  kLiteral,       // 'string' or "string"
  kEnd,
};

struct Token {
  TokenKind kind;
  // Name or literal body (punctuation tokens: their spelling), a view into
  // the tokenized expression, which must outlive the token.
  std::string_view text;
  int position = 0;  // byte offset in the expression, for error messages
};

// Human-readable token description for diagnostics.
std::string TokenKindToString(TokenKind kind);

}  // namespace xaos::xpath

#endif  // XAOS_XPATH_TOKEN_H_
