#include "xpath/lexer.h"

namespace xaos::xpath {
namespace {

bool IsNameStartChar(unsigned char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c >= 0x80;
}

bool IsNameChar(unsigned char c) {
  return IsNameStartChar(c) || (c >= '0' && c <= '9') || c == '-' || c == '.';
}

}  // namespace

std::string TokenKindToString(TokenKind kind) {
  switch (kind) {
    case TokenKind::kSlash:
      return "'/'";
    case TokenKind::kDoubleSlash:
      return "'//'";
    case TokenKind::kLeftBracket:
      return "'['";
    case TokenKind::kRightBracket:
      return "']'";
    case TokenKind::kLeftParen:
      return "'('";
    case TokenKind::kRightParen:
      return "')'";
    case TokenKind::kDoubleColon:
      return "'::'";
    case TokenKind::kStar:
      return "'*'";
    case TokenKind::kAt:
      return "'@'";
    case TokenKind::kDollar:
      return "'$'";
    case TokenKind::kDot:
      return "'.'";
    case TokenKind::kDotDot:
      return "'..'";
    case TokenKind::kPipe:
      return "'|'";
    case TokenKind::kEquals:
      return "'='";
    case TokenKind::kName:
      return "name";
    case TokenKind::kLiteral:
      return "literal";
    case TokenKind::kEnd:
      return "end of expression";
  }
  return "?";
}

StatusOr<std::vector<Token>> Tokenize(std::string_view expression) {
  std::vector<Token> tokens;
  // Every token but kEnd spans at least one byte: one allocation.
  tokens.reserve(expression.size() + 1);
  size_t i = 0;
  auto push = [&](TokenKind kind, std::string_view text, size_t pos) {
    tokens.push_back({kind, text, static_cast<int>(pos)});
  };
  while (i < expression.size()) {
    char c = expression[i];
    size_t start = i;
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      ++i;
      continue;
    }
    switch (c) {
      case '/':
        if (i + 1 < expression.size() && expression[i + 1] == '/') {
          push(TokenKind::kDoubleSlash, "//", start);
          i += 2;
        } else {
          push(TokenKind::kSlash, "/", start);
          ++i;
        }
        continue;
      case '[':
        push(TokenKind::kLeftBracket, "[", start);
        ++i;
        continue;
      case ']':
        push(TokenKind::kRightBracket, "]", start);
        ++i;
        continue;
      case '(':
        push(TokenKind::kLeftParen, "(", start);
        ++i;
        continue;
      case ')':
        push(TokenKind::kRightParen, ")", start);
        ++i;
        continue;
      case ':':
        if (i + 1 < expression.size() && expression[i + 1] == ':') {
          push(TokenKind::kDoubleColon, "::", start);
          i += 2;
          continue;
        }
        return ParseError("single ':' in XPath at offset " +
                          std::to_string(start));
      case '*':
        push(TokenKind::kStar, "*", start);
        ++i;
        continue;
      case '@':
        push(TokenKind::kAt, "@", start);
        ++i;
        continue;
      case '$':
        push(TokenKind::kDollar, "$", start);
        ++i;
        continue;
      case '|':
        push(TokenKind::kPipe, "|", start);
        ++i;
        continue;
      case '=':
        push(TokenKind::kEquals, "=", start);
        ++i;
        continue;
      case '.':
        if (i + 1 < expression.size() && expression[i + 1] == '.') {
          push(TokenKind::kDotDot, "..", start);
          i += 2;
        } else {
          push(TokenKind::kDot, ".", start);
          ++i;
        }
        continue;
      case '\'':
      case '"': {
        size_t end = expression.find(c, i + 1);
        if (end == std::string_view::npos) {
          return ParseError("unterminated literal at offset " +
                            std::to_string(start));
        }
        push(TokenKind::kLiteral, expression.substr(i + 1, end - i - 1),
             start);
        i = end + 1;
        continue;
      }
      default:
        break;
    }
    if (IsNameStartChar(static_cast<unsigned char>(c))) {
      size_t n = 1;
      while (i + n < expression.size() &&
             IsNameChar(static_cast<unsigned char>(expression[i + n]))) {
        ++n;
      }
      push(TokenKind::kName, expression.substr(i, n), start);
      i += n;
      continue;
    }
    return ParseError("unexpected character '" + std::string(1, c) +
                      "' in XPath at offset " + std::to_string(start));
  }
  push(TokenKind::kEnd, "", expression.size());
  return tokens;
}

}  // namespace xaos::xpath
