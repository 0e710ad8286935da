// Text parsers for scalar expressions and selection predicates, so SMAs and
// queries can be written the way the paper writes them:
//
//     l_extendedprice * (1.00 - l_discount)
//     l_shipdate <= date '1998-09-02' and l_quantity < 24
//
// Literals: integers (42), decimals (0.06 — two-digit fixed point),
// date 'YYYY-MM-DD' (the keyword is optional: '1998-09-02' also parses as a
// date). Operators: + - * for expressions; = != < <= > >= composed with
// `and` / `or` (and parentheses) for predicates. Keywords and column names
// are case-insensitive; columns resolve against the given schema.

#ifndef SMADB_EXPR_PARSER_H_
#define SMADB_EXPR_PARSER_H_

#include <string_view>
#include <vector>

#include "expr/expr.h"
#include "expr/predicate.h"

namespace smadb::expr {

/// Parses a scalar expression over `schema`.
util::Result<ExprPtr> ParseExpr(const storage::Schema* schema,
                                std::string_view text);

/// Parses a boolean selection predicate over `schema`.
util::Result<PredicatePtr> ParsePredicate(const storage::Schema* schema,
                                          std::string_view text);

namespace internal {

/// Token kinds exposed for the SMA-definition parser built on top.
enum class TokKind {
  kEnd,
  kIdent,    // column names and keywords (lower-cased)
  kInt,      // 42
  kDecimal,  // 0.06  (cents payload)
  kDate,     // '1998-09-02' or date '1998-09-02' (days payload)
  kString,   // 'BUILDING' (any quoted literal that is not a date)
  kLParen,
  kRParen,
  kComma,
  kStar,
  kPlus,
  kMinus,
  kCmp,      // = != < <= > >=
};

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;   // identifier (lower-cased) or comparison symbol
  int64_t value = 0;  // numeric/date payload
  size_t pos = 0;     // byte offset of the token in the tokenized text
};

/// Splits `text` into tokens. Fails on unknown characters or malformed
/// literals, including numeric literals that overflow int64.
util::Result<std::vector<Token>> Tokenize(std::string_view text);

/// Reconstructs parsable source text for the token span [begin, end).
std::string TokensToText(const std::vector<Token>& tokens, size_t begin,
                         size_t end);

}  // namespace internal

}  // namespace smadb::expr

#endif  // SMADB_EXPR_PARSER_H_
