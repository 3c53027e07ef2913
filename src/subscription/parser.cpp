#include "subscription/parser.h"

#include <cctype>
#include <charconv>
#include <optional>

#include "common/contracts.h"

namespace ncps {

namespace {

using parser_detail::RawNode;
using parser_detail::RawNodePtr;

enum class TokenKind : std::uint8_t {
  Identifier,  // attribute names and keywords
  Integer,
  Float,
  String,
  CompareOp,  // == != < <= > >=
  LParen,
  RParen,
  End,
};

struct Token {
  TokenKind kind = TokenKind::End;
  std::string_view text;
  std::size_t position = 0;
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  Token next() {
    skip_whitespace();
    const std::size_t start = pos_;
    if (pos_ >= text_.size()) return {TokenKind::End, {}, start};
    const char c = text_[pos_];
    if (c == '(') { ++pos_; return {TokenKind::LParen, slice(start), start}; }
    if (c == ')') { ++pos_; return {TokenKind::RParen, slice(start), start}; }
    if (c == '"') return lex_string(start);
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '-' || c == '+') {
      return lex_number(start);
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      return lex_identifier(start);
    }
    if (c == '=' || c == '!' || c == '<' || c == '>') return lex_operator(start);
    throw ParseError("unexpected character '" + std::string(1, c) + "'", pos_);
  }

 private:
  void skip_whitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  std::string_view slice(std::size_t start) const {
    return text_.substr(start, pos_ - start);
  }

  Token lex_string(std::size_t start) {
    ++pos_;  // opening quote
    while (pos_ < text_.size() && text_[pos_] != '"') ++pos_;
    if (pos_ >= text_.size()) throw ParseError("unterminated string", start);
    ++pos_;  // closing quote
    // text includes quotes; parser strips them
    return {TokenKind::String, slice(start), start};
  }

  Token lex_number(std::size_t start) {
    if (text_[pos_] == '-' || text_[pos_] == '+') ++pos_;
    bool is_float = false;
    bool any_digit = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        any_digit = true;
        ++pos_;
      } else if (c == '.' && !is_float) {
        is_float = true;
        ++pos_;
      } else if ((c == 'e' || c == 'E') && any_digit) {
        is_float = true;
        ++pos_;
        if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
          ++pos_;
        }
      } else {
        break;
      }
    }
    if (!any_digit) throw ParseError("malformed number", start);
    return {is_float ? TokenKind::Float : TokenKind::Integer, slice(start),
            start};
  }

  Token lex_identifier(std::size_t start) {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.') {
        ++pos_;
      } else {
        break;
      }
    }
    return {TokenKind::Identifier, slice(start), start};
  }

  Token lex_operator(std::size_t start) {
    const char c = text_[pos_++];
    const bool has_eq = pos_ < text_.size() && text_[pos_] == '=';
    if (c == '=' || c == '!') {
      if (!has_eq) throw ParseError("expected '=' after comparison", start);
      ++pos_;
    } else if (has_eq) {
      ++pos_;  // <= or >=
    }
    return {TokenKind::CompareOp, slice(start), start};
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

class Parser {
 public:
  Parser(std::string_view text, AttributeRegistry& attrs)
      : lexer_(text), attrs_(&attrs) {
    advance();
  }

  RawNodePtr parse() {
    RawNodePtr expr = parse_or();
    expect(TokenKind::End, "trailing input after expression");
    return expr;
  }

 private:
  void advance() { current_ = lexer_.next(); }

  [[nodiscard]] bool at_keyword(std::string_view kw) const {
    return current_.kind == TokenKind::Identifier && current_.text == kw;
  }

  void expect(TokenKind kind, const char* message) {
    if (current_.kind != kind) throw ParseError(message, current_.position);
  }

  RawNodePtr parse_or() {
    RawNodePtr left = parse_and();
    if (!at_keyword("or")) return left;
    auto node = std::make_unique<RawNode>();
    node->kind = ast::NodeKind::Or;
    node->children.push_back(std::move(left));
    while (at_keyword("or")) {
      advance();
      node->children.push_back(parse_and());
    }
    return node;
  }

  RawNodePtr parse_and() {
    RawNodePtr left = parse_unary();
    if (!at_keyword("and")) return left;
    auto node = std::make_unique<RawNode>();
    node->kind = ast::NodeKind::And;
    node->children.push_back(std::move(left));
    while (at_keyword("and")) {
      advance();
      node->children.push_back(parse_unary());
    }
    return node;
  }

  RawNodePtr parse_unary() {
    if (at_keyword("not")) {
      advance();
      auto node = std::make_unique<RawNode>();
      node->kind = ast::NodeKind::Not;
      node->children.push_back(parse_unary());
      return node;
    }
    if (current_.kind == TokenKind::LParen) {
      advance();
      RawNodePtr inner = parse_or();
      expect(TokenKind::RParen, "expected ')'");
      advance();
      return inner;
    }
    return parse_predicate();
  }

  RawNodePtr parse_predicate() {
    expect(TokenKind::Identifier, "expected attribute name");
    if (at_keyword("and") || at_keyword("or") || at_keyword("not") ||
        at_keyword("true") || at_keyword("false")) {
      throw ParseError("keyword used as attribute name", current_.position);
    }
    const AttributeId attr = attrs_->intern(current_.text);
    advance();

    Predicate p;
    p.attribute = attr;
    if (current_.kind == TokenKind::CompareOp) {
      p.op = compare_op(current_.text);
      advance();
      p.lo = parse_value();
    } else if (at_keyword("between")) {
      advance();
      p.op = Operator::Between;
      p.lo = parse_value();
      if (!at_keyword("and")) {
        throw ParseError("expected 'and' in between-predicate",
                         current_.position);
      }
      advance();
      p.hi = parse_value();
    } else if (at_keyword("prefix") || at_keyword("suffix") ||
               at_keyword("contains")) {
      p.op = at_keyword("prefix")   ? Operator::Prefix
             : at_keyword("suffix") ? Operator::Suffix
                                    : Operator::Contains;
      advance();
      if (current_.kind != TokenKind::String) {
        throw ParseError("string operators require a quoted operand",
                         current_.position);
      }
      p.lo = parse_value();
    } else if (at_keyword("exists")) {
      advance();
      p.op = Operator::Exists;
    } else {
      throw ParseError("expected operator after attribute name",
                       current_.position);
    }

    auto node = std::make_unique<RawNode>();
    node->kind = ast::NodeKind::Leaf;
    node->predicate = std::move(p);
    return node;
  }

  static Operator compare_op(std::string_view text) {
    if (text == "==") return Operator::Eq;
    if (text == "!=") return Operator::Ne;
    if (text == "<") return Operator::Lt;
    if (text == "<=") return Operator::Le;
    if (text == ">") return Operator::Gt;
    NCPS_ASSERT(text == ">=");
    return Operator::Ge;
  }

  Value parse_value() {
    const Token token = current_;
    switch (token.kind) {
      case TokenKind::Integer: {
        std::int64_t v = 0;
        const auto [ptr, ec] = std::from_chars(
            token.text.data(), token.text.data() + token.text.size(), v);
        if (ec != std::errc{} || ptr != token.text.data() + token.text.size()) {
          throw ParseError("malformed integer literal", token.position);
        }
        advance();
        return Value(v);
      }
      case TokenKind::Float: {
        double v = 0;
        const auto [ptr, ec] = std::from_chars(
            token.text.data(), token.text.data() + token.text.size(), v);
        if (ec != std::errc{} || ptr != token.text.data() + token.text.size()) {
          throw ParseError("malformed float literal", token.position);
        }
        advance();
        return Value(v);
      }
      case TokenKind::String: {
        std::string_view body = token.text;
        body.remove_prefix(1);
        body.remove_suffix(1);
        advance();
        return Value(body);
      }
      case TokenKind::Identifier:
        if (token.text == "true" || token.text == "false") {
          advance();
          return Value(token.text == "true");
        }
        [[fallthrough]];
      default:
        throw ParseError("expected value literal", token.position);
    }
  }

  Lexer lexer_;
  AttributeRegistry* attrs_;
  Token current_;
};

ast::NodePtr intern_node(const RawNode& raw, PredicateTable& table) {
  if (raw.kind == ast::NodeKind::Leaf) {
    return ast::leaf(table.intern(raw.predicate).id);
  }
  std::vector<ast::NodePtr> children;
  children.reserve(raw.children.size());
  for (const auto& c : raw.children) {
    children.push_back(intern_node(*c, table));
  }
  switch (raw.kind) {
    case ast::NodeKind::And: return ast::make_and(std::move(children));
    case ast::NodeKind::Or: return ast::make_or(std::move(children));
    case ast::NodeKind::Not: return ast::make_not(std::move(children.front()));
    default: break;
  }
  ::ncps::contract_fail("Invariant", "unreachable", __FILE__, __LINE__);
}

}  // namespace

parser_detail::RawNodePtr parse_raw(std::string_view text,
                                    AttributeRegistry& attrs) {
  Parser parser(text, attrs);
  return parser.parse();
}

ast::Expr intern_tree(const parser_detail::RawNode& raw,
                      PredicateTable& table) {
  // intern_node takes one table reference per leaf via intern(); the Expr
  // adopts those references.
  ast::NodePtr root = intern_node(raw, table);
  return ast::Expr(std::move(root), table, ast::Expr::AdoptRefs{});
}

ast::Expr parse_subscription(std::string_view text, AttributeRegistry& attrs,
                             PredicateTable& table) {
  const parser_detail::RawNodePtr raw = parse_raw(text, attrs);
  ast::Expr expr = intern_tree(*raw, table);
  // Compact binary chains into n-ary nodes, as the paper's trees do. The
  // flatten mutates the tree shape only; leaf multiset (and thus reference
  // counts) is unchanged.
  ast::flatten(expr.mutable_root());
  return expr;
}

}  // namespace ncps
