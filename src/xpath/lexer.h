// Tokenizer for XPath expressions.

#ifndef XAOS_XPATH_LEXER_H_
#define XAOS_XPATH_LEXER_H_

#include <string_view>
#include <vector>

#include "util/statusor.h"
#include "xpath/token.h"

namespace xaos::xpath {

// Tokenizes `expression`. The returned vector always ends with a kEnd token;
// token texts are views into `expression`.
StatusOr<std::vector<Token>> Tokenize(std::string_view expression);

}  // namespace xaos::xpath

#endif  // XAOS_XPATH_LEXER_H_
