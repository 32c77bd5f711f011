#include "xpath/parser.h"

#include <utility>

#include "xpath/lexer.h"

namespace xaos::xpath {
namespace {

// Maps an axis-name token to an Axis; returns false for unknown names.
bool LookupAxis(std::string_view name, Axis* axis) {
  if (name == "child") {
    *axis = Axis::kChild;
  } else if (name == "descendant") {
    *axis = Axis::kDescendant;
  } else if (name == "parent") {
    *axis = Axis::kParent;
  } else if (name == "ancestor") {
    *axis = Axis::kAncestor;
  } else if (name == "self") {
    *axis = Axis::kSelf;
  } else if (name == "descendant-or-self") {
    *axis = Axis::kDescendantOrSelf;
  } else if (name == "ancestor-or-self") {
    *axis = Axis::kAncestorOrSelf;
  } else if (name == "attribute") {
    *axis = Axis::kAttribute;
  } else if (name == "following-sibling") {
    *axis = Axis::kFollowingSibling;
  } else if (name == "preceding-sibling") {
    *axis = Axis::kPrecedingSibling;
  } else if (name == "following") {
    *axis = Axis::kFollowing;
  } else if (name == "preceding") {
    *axis = Axis::kPreceding;
  } else {
    return false;
  }
  return true;
}

// Parses into the caller's AST nodes in place: each node is built where it
// ends up, so no step or path is moved between the parsing functions.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  StatusOr<Expression> ParseFull() {
    Expression expression;
    XAOS_RETURN_IF_ERROR(ParsePath(&expression.union_branches.emplace_back()));
    while (Peek().kind == TokenKind::kPipe) {
      Advance();
      XAOS_RETURN_IF_ERROR(
          ParsePath(&expression.union_branches.emplace_back()));
    }
    if (Peek().kind != TokenKind::kEnd) {
      return Error("unexpected trailing tokens");
    }
    return expression;
  }

 private:
  const Token& Peek(int ahead = 0) const {
    size_t i = index_ + static_cast<size_t>(ahead);
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[index_++]; }
  bool Match(TokenKind kind) {
    if (Peek().kind != kind) return false;
    Advance();
    return true;
  }
  // True when the next token is the name `keyword` (`and`, `or`).
  bool PeekKeyword(std::string_view keyword) const {
    return Peek().kind == TokenKind::kName && Peek().text == keyword;
  }

  Status Error(std::string message) const {
    return ParseError(message + " at offset " +
                      std::to_string(Peek().position) + " (found " +
                      TokenKindToString(Peek().kind) +
                      (Peek().text.empty()
                           ? ""
                           : " '" + std::string(Peek().text) + "'") +
                      ")");
  }

  // Path := ('/' | '//')? Step (('/' | '//') Step)*
  // A leading '/' or '//' makes the path absolute; '//' inserts a
  // descendant axis (the paper treats '//' as descendant, Section 2.3).
  Status ParsePath(LocationPath* path) {
    bool next_is_descendant = false;
    if (Match(TokenKind::kSlash)) {
      path->absolute = true;
    } else if (Match(TokenKind::kDoubleSlash)) {
      path->absolute = true;
      next_is_descendant = true;
    }
    while (true) {
      XAOS_RETURN_IF_ERROR(
          ParseStep(next_is_descendant, &path->steps.emplace_back()));
      if (Match(TokenKind::kSlash)) {
        next_is_descendant = false;
      } else if (Match(TokenKind::kDoubleSlash)) {
        next_is_descendant = true;
      } else {
        break;
      }
    }
    return Status::Ok();
  }

  // Step := '.' | '..'
  //       | '$'? ('@' | AxisName '::')? '$'? NodeTestCore Predicate*
  // `force_descendant` overrides the default child axis (set after '//').
  Status ParseStep(bool force_descendant, Step* step) {
    if (Match(TokenKind::kDot)) {
      step->axis = Axis::kSelf;
      step->test.kind = NodeTestKind::kWildcard;
      if (force_descendant) step->axis = Axis::kDescendantOrSelf;
      return ParsePredicates(step);
    }
    if (Match(TokenKind::kDotDot)) {
      step->axis = Axis::kParent;
      step->test.kind = NodeTestKind::kWildcard;
      if (force_descendant) {
        return Error("'..' cannot follow '//' in the supported subset");
      }
      return ParsePredicates(step);
    }

    if (Match(TokenKind::kDollar)) step->output_marked = true;

    bool axis_explicit = false;
    if (Match(TokenKind::kAt)) {
      step->axis = Axis::kAttribute;
      axis_explicit = true;
    } else if (Peek().kind == TokenKind::kName &&
               Peek(1).kind == TokenKind::kDoubleColon) {
      Axis axis;
      if (!LookupAxis(Peek().text, &axis)) {
        return Error("unknown axis '" + std::string(Peek().text) + "'");
      }
      step->axis = axis;
      Advance();  // axis name
      Advance();  // ::
      axis_explicit = true;
    }
    if (!axis_explicit) {
      step->axis = force_descendant ? Axis::kDescendant : Axis::kChild;
    } else if (force_descendant) {
      // `//axis::t` means descendant with the named axis applied after; the
      // paper's subset has no such composition, so reject it explicitly.
      return Error("explicit axis cannot follow '//' in the supported "
                   "subset; write the descendant step explicitly");
    }

    if (Match(TokenKind::kDollar)) {
      if (step->output_marked) return Error("duplicate '$'");
      step->output_marked = true;
    }

    // NodeTestCore := Name | '*' | 'text' '(' ')'
    if (Match(TokenKind::kStar)) {
      step->test.kind = NodeTestKind::kWildcard;
    } else if (Peek().kind == TokenKind::kName) {
      if (Peek().text == "text" && Peek(1).kind == TokenKind::kLeftParen) {
        Advance();
        Advance();
        if (!Match(TokenKind::kRightParen)) {
          return Error("expected ')' after 'text('");
        }
        if (step->axis == Axis::kAttribute) {
          return Error("text() is not valid on the attribute axis");
        }
        step->test.kind = NodeTestKind::kText;
      } else {
        step->test.kind = NodeTestKind::kName;
        step->test.name = Advance().text;
      }
    } else {
      return Error("expected a node test");
    }
    return ParsePredicates(step);
  }

  // Attaches predicates and an optional value comparison to `step`.
  Status ParsePredicates(Step* step) {
    while (Match(TokenKind::kLeftBracket)) {
      XAOS_RETURN_IF_ERROR(ParsePredExpr(&step->predicates.emplace_back()));
      if (!Match(TokenKind::kRightBracket)) {
        return Error("expected ']'");
      }
    }
    if (Peek().kind == TokenKind::kEquals) {
      if (step->axis != Axis::kAttribute &&
          step->test.kind != NodeTestKind::kText) {
        return UnsupportedError(
            "value comparison is only supported on attribute and text() "
            "steps");
      }
      Advance();
      if (Peek().kind != TokenKind::kLiteral) {
        return Error("expected a string literal after '='");
      }
      step->compare_literal.emplace(Advance().text);
    }
    return Status::Ok();
  }

  // PredExpr := AndExpr ('or' AndExpr)*
  Status ParsePredExpr(PredExpr* pred) {
    XAOS_RETURN_IF_ERROR(ParseAndExpr(pred));
    if (PeekKeyword("or")) {
      XAOS_RETURN_IF_ERROR(ParseOperands(pred, PredExpr::Kind::kOr, "or",
                                         &Parser::ParseAndExpr));
    }
    return Status::Ok();
  }

  // AndExpr := Primary ('and' Primary)*
  Status ParseAndExpr(PredExpr* pred) {
    XAOS_RETURN_IF_ERROR(ParsePrimary(pred));
    if (PeekKeyword("and")) {
      XAOS_RETURN_IF_ERROR(ParseOperands(pred, PredExpr::Kind::kAnd, "and",
                                         &Parser::ParsePrimary));
    }
    return Status::Ok();
  }

  // Turns the operand already parsed into `pred` into the first child of a
  // `kind` node, then parses the `keyword`-separated operands that follow.
  Status ParseOperands(PredExpr* pred, PredExpr::Kind kind,
                       std::string_view keyword,
                       Status (Parser::*operand)(PredExpr*)) {
    PredExpr first = std::move(*pred);
    *pred = PredExpr();
    pred->kind = kind;
    pred->children.push_back(std::move(first));
    while (PeekKeyword(keyword)) {
      Advance();
      XAOS_RETURN_IF_ERROR((this->*operand)(&pred->children.emplace_back()));
    }
    return Status::Ok();
  }

  // Primary := '(' PredExpr ')' | LocationPath
  Status ParsePrimary(PredExpr* pred) {
    if (Match(TokenKind::kLeftParen)) {
      XAOS_RETURN_IF_ERROR(ParsePredExpr(pred));
      if (!Match(TokenKind::kRightParen)) {
        return Error("expected ')'");
      }
      return Status::Ok();
    }
    pred->kind = PredExpr::Kind::kPath;
    return ParsePath(&pred->path);
  }

  std::vector<Token> tokens_;
  size_t index_ = 0;
};

}  // namespace

StatusOr<Expression> ParseExpression(std::string_view expression) {
  XAOS_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(expression));
  Parser parser(std::move(tokens));
  return parser.ParseFull();
}

StatusOr<LocationPath> ParseSinglePath(std::string_view expression) {
  XAOS_ASSIGN_OR_RETURN(Expression parsed, ParseExpression(expression));
  if (parsed.union_branches.size() != 1) {
    return InvalidArgumentError(
        "expected a single location path, found a union of " +
        std::to_string(parsed.union_branches.size()));
  }
  return std::move(parsed.union_branches[0]);
}

}  // namespace xaos::xpath
