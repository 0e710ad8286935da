#include "db/statement.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <vector>

#include "db/sql.h"

namespace smadb::db {

using expr::internal::Token;
using expr::internal::TokKind;
using util::Result;
using util::Status;

Result<Statement> ParseStatement(std::string_view text) {
  SMADB_ASSIGN_OR_RETURN(const std::vector<Token> tokens,
                         expr::internal::Tokenize(text));
  size_t first = 0;  // the statement's first token, past any trace prefix
  // Past the end, every index reads the kEnd sentinel.
  const auto at = [&](size_t i) -> const Token& {
    return tokens[std::min(first + i, tokens.size() - 1)];
  };
  const auto is = [&](size_t i, std::string_view keyword) {
    return at(i).kind == TokKind::kIdent && at(i).text == keyword;
  };
  const auto ends_at = [&](size_t i) { return at(i).kind == TokKind::kEnd; };
  Statement stmt;
  // The from-clause table of a select or an SMA definition.
  const auto find_table = [&]() -> Status {
    SMADB_ASSIGN_OR_RETURN(const size_t from, FindFrom(tokens));
    stmt.table = tokens[from + 1].text;
    return Status::OK();
  };

  if (is(0, "trace") && !ends_at(1)) {
    // The hex id is read from the raw text, since Tokenize splits `12ab`
    // into a number and a name; the statement starts past it.
    const char* end = text.data() + text.size();
    const auto [past, ec] = std::from_chars(text.data() + at(1).pos, end,
                                            stmt.trace_id, 16);
    if (ec != std::errc() || past == end ||
        std::isspace(static_cast<unsigned char>(*past)) == 0) {
      return Status::InvalidArgument(
          "malformed trace prefix; expected 'trace <hex id> <statement>'");
    }
    while (text.data() + at(0).pos < past) ++first;
  }
  size_t text_at = 0;  // the token stmt.text starts at

  if (ends_at(0)) return Status::InvalidArgument("empty statement");
  if (is(0, "select")) {
    stmt.kind = Statement::Kind::kSelect;
    SMADB_RETURN_NOT_OK(find_table());
  } else if (is(0, "explain")) {
    stmt.kind = Statement::Kind::kExplain;
    stmt.analyze = is(1, "analyze");
    text_at = stmt.analyze ? 2 : 1;  // explain records the select it runs
    if (!is(text_at, "select")) {
      return Status::InvalidArgument(
          "malformed explain statement; expected 'explain [analyze] select "
          "...'");
    }
    SMADB_RETURN_NOT_OK(find_table());
  } else if (is(0, "show")) {
    if (at(1).kind != TokKind::kIdent || !ends_at(2)) {
      return Status::InvalidArgument(
          "malformed show statement; expected 'show <what>'");
    }
    stmt.kind = Statement::Kind::kShow;
    stmt.name = at(1).text;
  } else if (is(0, "scrub")) {
    if (!ends_at(1)) return Status::InvalidArgument("scrub takes no arguments");
    stmt.kind = Statement::Kind::kScrub;
  } else if (is(0, "set")) {
    if (at(1).kind != TokKind::kIdent || at(2).kind != TokKind::kCmp ||
        at(2).text != "=" || ends_at(3) || !ends_at(4)) {
      return Status::InvalidArgument(
          "malformed set statement; expected 'set <knob> = <value>'");
    }
    stmt.kind = Statement::Kind::kSet;
    stmt.name = at(1).text;
    stmt.value = at(3);
  } else if (is(0, "define") && is(1, "sma")) {
    stmt.kind = Statement::Kind::kDefineSma;
    SMADB_RETURN_NOT_OK(find_table());
  } else if (is(0, "kill")) {
    if (!is(1, "query") || at(2).kind != TokKind::kInt || !ends_at(3)) {
      return Status::InvalidArgument(
          "malformed kill statement; expected 'kill query <id>'");
    }
    stmt.kind = Statement::Kind::kKill;
    stmt.query_id = static_cast<uint64_t>(at(2).value);
  } else {
    return Status::NotSupported(
        "unknown statement; supported: select, explain [analyze], show, "
        "scrub, set, define sma, kill query");
  }
  const std::string_view rest = text.substr(at(text_at).pos);
  stmt.text = rest.substr(0, rest.find_last_not_of(" \t\r\n\v\f") + 1);
  return stmt;
}

}  // namespace smadb::db
