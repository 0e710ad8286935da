#include "sma/parser.h"

#include "expr/parser.h"
#include "util/string_util.h"

namespace smadb::sma {

using expr::internal::Token;
using expr::internal::TokKind;
using storage::Schema;
using util::Result;
using util::Status;

namespace {

// Cursor over the token stream with keyword helpers.
struct Cursor {
  const std::vector<Token>* tokens;
  size_t pos = 0;

  const Token& Peek() const { return (*tokens)[pos]; }
  Token Take() { return (*tokens)[pos++]; }

  Status ExpectKeyword(std::string_view kw) {
    if (Peek().kind != TokKind::kIdent || Peek().text != kw) {
      return Status::InvalidArgument("expected keyword '" + std::string(kw) +
                                     "'");
    }
    ++pos;
    return Status::OK();
  }

  bool TryKeyword(std::string_view kw) {
    if (Peek().kind == TokKind::kIdent && Peek().text == kw) {
      ++pos;
      return true;
    }
    return false;
  }
};

Result<AggFunc> ParseAggFunc(std::string_view name) {
  if (name == "min") return AggFunc::kMin;
  if (name == "max") return AggFunc::kMax;
  if (name == "sum") return AggFunc::kSum;
  if (name == "count") return AggFunc::kCount;
  return Status::InvalidArgument(
      "aggregate must be min, max, sum, or count; got '" + std::string(name) +
      "'");
}

}  // namespace

Result<ParsedSmaDefinition> ParseSmaDefinition(const Schema* schema,
                                               std::string_view text) {
  SMADB_ASSIGN_OR_RETURN(std::vector<Token> tokens,
                         expr::internal::Tokenize(text));
  Cursor cur{&tokens};

  // define sma <name>
  SMADB_RETURN_NOT_OK(cur.ExpectKeyword("define"));
  SMADB_RETURN_NOT_OK(cur.ExpectKeyword("sma"));
  if (cur.Peek().kind != TokKind::kIdent) {
    return Status::InvalidArgument("expected SMA name after 'define sma'");
  }
  ParsedSmaDefinition def;
  def.spec.name = cur.Take().text;

  // select <func> ( <arg> | * )
  SMADB_RETURN_NOT_OK(cur.ExpectKeyword("select"));
  if (cur.Peek().kind != TokKind::kIdent) {
    return Status::InvalidArgument("expected aggregate function");
  }
  SMADB_ASSIGN_OR_RETURN(def.spec.func, ParseAggFunc(cur.Take().text));
  if (cur.Peek().kind != TokKind::kLParen) {
    return Status::InvalidArgument("expected '(' after aggregate function");
  }
  cur.Take();
  if (def.spec.func == AggFunc::kCount) {
    if (cur.Peek().kind != TokKind::kStar) {
      return Status::InvalidArgument("count SMA must be count(*)");
    }
    cur.Take();
    if (cur.Peek().kind != TokKind::kRParen) {
      return Status::InvalidArgument("expected ')' after count(*)");
    }
    cur.Take();
  } else {
    // Find the matching close paren; everything between is the argument.
    const size_t begin = cur.pos;
    size_t depth = 1;
    size_t end = begin;
    while (depth > 0) {
      const TokKind k = tokens[end].kind;
      if (k == TokKind::kEnd) {
        return Status::InvalidArgument("unbalanced parentheses in aggregate");
      }
      if (k == TokKind::kLParen) ++depth;
      if (k == TokKind::kRParen) --depth;
      if (depth > 0) ++end;
    }
    const std::string arg_text =
        expr::internal::TokensToText(tokens, begin, end);
    // The paper forbids a second select entry; a top-level comma would
    // indicate one.
    for (size_t i = begin, d = 0; i < end; ++i) {
      if (tokens[i].kind == TokKind::kLParen) ++d;
      if (tokens[i].kind == TokKind::kRParen) --d;
      if (d == 0 && tokens[i].kind == TokKind::kComma) {
        return Status::NotSupported(
            "the select clause may contain only a single entry (§2.1)");
      }
    }
    SMADB_ASSIGN_OR_RETURN(def.spec.arg,
                           expr::ParseExpr(schema, arg_text));
    cur.pos = end + 1;  // past the ')'
  }

  // from <table>
  SMADB_RETURN_NOT_OK(cur.ExpectKeyword("from"));
  if (cur.Peek().kind != TokKind::kIdent) {
    return Status::InvalidArgument("expected table name after 'from'");
  }
  def.table = cur.Take().text;
  if (cur.Peek().kind == TokKind::kComma) {
    return Status::NotSupported(
        "joins are not allowed in SMA definitions: a SMA summarizes one "
        "table (§2.1)");
  }

  // [group by col (, col)*]
  if (cur.TryKeyword("group")) {
    SMADB_RETURN_NOT_OK(cur.ExpectKeyword("by"));
    while (true) {
      if (cur.Peek().kind != TokKind::kIdent) {
        return Status::InvalidArgument("expected column in group by");
      }
      SMADB_ASSIGN_OR_RETURN(size_t col,
                             schema->FieldIndex(cur.Take().text));
      def.spec.group_by.push_back(col);
      if (cur.Peek().kind != TokKind::kComma) break;
      cur.Take();
    }
  }

  if (cur.TryKeyword("order")) {
    return Status::NotSupported(
        "SMA definitions do not allow an order specification (§2.1)");
  }
  if (cur.Peek().kind != TokKind::kEnd) {
    return Status::InvalidArgument("trailing tokens after SMA definition");
  }
  SMADB_RETURN_NOT_OK(def.spec.Validate(*schema));
  return def;
}

}  // namespace smadb::sma
