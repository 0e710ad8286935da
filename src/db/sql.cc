#include "db/sql.h"

#include <algorithm>

#include "expr/parser.h"
#include "util/string_util.h"

namespace smadb::db {

using exec::AggKind;
using exec::AggSpec;
using expr::internal::Token;
using expr::internal::TokensToText;
using expr::internal::TokKind;
using storage::Schema;
using util::Result;
using util::Status;

namespace {

bool IsIdent(const Token& t, std::string_view kw) {
  return t.kind == TokKind::kIdent && t.text == kw;
}

Result<AggKind> ParseAggKind(std::string_view name) {
  if (name == "sum") return AggKind::kSum;
  if (name == "avg") return AggKind::kAvg;
  if (name == "min") return AggKind::kMin;
  if (name == "max") return AggKind::kMax;
  if (name == "count") return AggKind::kCount;
  return Status::InvalidArgument("unknown aggregate function '" +
                                 std::string(name) + "'");
}

// Index of the matching ')' for the '(' at tokens[open].
Result<size_t> MatchParen(const std::vector<Token>& tokens, size_t open) {
  size_t depth = 0;
  for (size_t i = open; i < tokens.size(); ++i) {
    if (tokens[i].kind == TokKind::kLParen) ++depth;
    if (tokens[i].kind == TokKind::kRParen) {
      if (--depth == 0) return i;
    }
    if (tokens[i].kind == TokKind::kEnd) break;
  }
  return Status::InvalidArgument("unbalanced parentheses");
}

}  // namespace

Result<size_t> FindFrom(const std::vector<Token>& tokens) {
  size_t depth = 0;
  for (size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (tokens[i].kind == TokKind::kLParen) ++depth;
    if (tokens[i].kind == TokKind::kRParen) --depth;
    if (depth == 0 && IsIdent(tokens[i], "from")) {
      if (tokens[i + 1].kind != TokKind::kIdent) {
        return Status::InvalidArgument("expected table name after 'from'");
      }
      return i;
    }
  }
  return Status::InvalidArgument("query has no from clause");
}

Result<std::string> ExtractTableName(std::string_view sql) {
  SMADB_ASSIGN_OR_RETURN(std::vector<Token> tokens,
                         expr::internal::Tokenize(sql));
  SMADB_ASSIGN_OR_RETURN(const size_t from, FindFrom(tokens));
  return tokens[from + 1].text;
}

Result<ParsedQuery> ParseQuery(const Schema* schema, std::string_view sql) {
  SMADB_ASSIGN_OR_RETURN(std::vector<Token> tokens,
                         expr::internal::Tokenize(sql));
  ParsedQuery q;
  q.pred = expr::Predicate::True();

  size_t pos = 0;
  if (!IsIdent(tokens[pos], "select")) {
    return Status::InvalidArgument("query must start with 'select'");
  }
  ++pos;

  // The depth-0 'from' bounds the select list.
  SMADB_ASSIGN_OR_RETURN(const size_t from_pos, FindFrom(tokens));

  // --- select list ---------------------------------------------------------
  if (pos < from_pos && tokens[pos].kind == TokKind::kStar &&
      pos + 1 == from_pos) {
    q.select_star = true;
    pos = from_pos;
  }
  size_t agg_ordinal = 0;
  while (pos < from_pos) {
    // One item: up to a depth-0 comma or from_pos.
    size_t item_end = pos;
    size_t depth = 0;
    while (item_end < from_pos) {
      if (tokens[item_end].kind == TokKind::kLParen) ++depth;
      if (tokens[item_end].kind == TokKind::kRParen) --depth;
      if (depth == 0 && tokens[item_end].kind == TokKind::kComma) break;
      ++item_end;
    }
    if (item_end == pos) {
      return Status::InvalidArgument("empty select item");
    }

    // Optional trailing "as alias".
    std::string alias;
    size_t expr_end = item_end;
    if (expr_end - pos >= 2 && IsIdent(tokens[expr_end - 2], "as") &&
        tokens[expr_end - 1].kind == TokKind::kIdent) {
      alias = tokens[expr_end - 1].text;
      expr_end -= 2;
    }

    const Token& first = tokens[pos];
    const bool is_agg =
        first.kind == TokKind::kIdent && expr_end > pos + 1 &&
        tokens[pos + 1].kind == TokKind::kLParen &&
        ParseAggKind(first.text).ok();
    if (is_agg) {
      SMADB_ASSIGN_OR_RETURN(AggKind kind, ParseAggKind(first.text));
      SMADB_ASSIGN_OR_RETURN(size_t close, MatchParen(tokens, pos + 1));
      if (close + 1 != expr_end) {
        return Status::InvalidArgument(
            "unexpected tokens after aggregate in select item");
      }
      AggSpec spec;
      spec.kind = kind;
      if (kind == AggKind::kCount) {
        if (close != pos + 3 || tokens[pos + 2].kind != TokKind::kStar) {
          return Status::NotSupported("count takes '*' only");
        }
        spec.arg = nullptr;
      } else {
        if (close == pos + 2) {
          return Status::InvalidArgument("aggregate needs an argument");
        }
        SMADB_ASSIGN_OR_RETURN(
            spec.arg, expr::ParseExpr(
                          schema, TokensToText(tokens, pos + 2, close)));
      }
      spec.name = !alias.empty()
                      ? alias
                      : util::Format(
                            "%s_%zu",
                            std::string(AggKindToString(kind)).c_str(),
                            ++agg_ordinal);
      q.aggs.push_back(std::move(spec));
    } else {
      // A bare column: must be a group-by column (checked below).
      if (expr_end != pos + 1 || first.kind != TokKind::kIdent) {
        return Status::NotSupported(
            "select items must be aggregates or plain group-by columns");
      }
      SMADB_ASSIGN_OR_RETURN(size_t col, schema->FieldIndex(first.text));
      q.selected_columns.push_back(col);
    }
    pos = item_end < from_pos ? item_end + 1 : from_pos;
  }

  if (!q.select_star && q.aggs.empty()) {
    return Status::NotSupported(
        "non-aggregate projections are select * only");
  }

  // --- from ----------------------------------------------------------------
  pos = from_pos + 1;
  q.table = tokens[pos].text;
  ++pos;
  if (tokens[pos].kind == TokKind::kComma) {
    return Status::NotSupported(
        "joins are not supported: a query reads one table");
  }

  // --- where ---------------------------------------------------------------
  if (IsIdent(tokens[pos], "where")) {
    ++pos;
    size_t end = pos;
    size_t depth = 0;
    while (tokens[end].kind != TokKind::kEnd) {
      if (tokens[end].kind == TokKind::kLParen) ++depth;
      if (tokens[end].kind == TokKind::kRParen) --depth;
      if (depth == 0 && IsIdent(tokens[end], "group")) break;
      ++end;
    }
    if (end == pos) return Status::InvalidArgument("empty where clause");
    SMADB_ASSIGN_OR_RETURN(
        q.pred,
        expr::ParsePredicate(schema, TokensToText(tokens, pos, end)));
    pos = end;
  }

  // --- group by ------------------------------------------------------------
  if (IsIdent(tokens[pos], "group")) {
    ++pos;
    if (!IsIdent(tokens[pos], "by")) {
      return Status::InvalidArgument("expected 'by' after 'group'");
    }
    ++pos;
    while (true) {
      if (tokens[pos].kind != TokKind::kIdent) {
        return Status::InvalidArgument("expected column in group by");
      }
      SMADB_ASSIGN_OR_RETURN(size_t col,
                             schema->FieldIndex(tokens[pos].text));
      q.group_by.push_back(col);
      ++pos;
      if (tokens[pos].kind != TokKind::kComma) break;
      ++pos;
    }
  }

  if (tokens[pos].kind != TokKind::kEnd) {
    return Status::InvalidArgument("trailing tokens after query");
  }

  if (q.select_star && !q.group_by.empty()) {
    return Status::InvalidArgument("select * cannot be grouped");
  }
  // Every selected bare column must be a group-by column.
  for (size_t col : q.selected_columns) {
    if (std::find(q.group_by.begin(), q.group_by.end(), col) ==
        q.group_by.end()) {
      return Status::InvalidArgument(
          "column '" + schema->field(col).name +
          "' appears in select but not in group by");
    }
  }
  return q;
}

}  // namespace smadb::db
