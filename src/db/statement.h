// The statement grammar of db::Database and net::Server (DESIGN.md §15):
//
//   [trace <hex>] select ...                       (db/sql.h)
//               | explain [analyze] select ...
//               | show metrics|profile|trace|queries|storage
//               | scrub
//               | set <knob> = <value>
//               | define sma ...                   (sma/parser.h)
//               | kill query <id>
//
// ParseStatement is the one place that reads statement keywords: it
// tokenizes the text once with the expression tokenizer, so keywords are
// case-insensitive and surrounding whitespace is ignored. Binding a select
// and parsing an SMA definition need the table's schema, so the handlers
// do that.

#ifndef SMADB_DB_STATEMENT_H_
#define SMADB_DB_STATEMENT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "expr/parser.h"
#include "util/status.h"

namespace smadb::db {

struct Statement {
  enum class Kind { kSelect, kExplain, kShow, kScrub, kSet, kDefineSma, kKill };
  Kind kind = Kind::kSelect;
  /// From a `trace <hex>` prefix (DESIGN.md §16); 0 = untraced.
  /// net::Server sets a minted one when the client gave none.
  uint64_t trace_id = 0;
  /// The statement without its trace prefix, as the query registry, the
  /// logs and the WAL record it. For explain: the select it runs.
  std::string text;
  std::string table;           ///< select, explain, define sma: from-table
  bool analyze = false;        ///< explain analyze
  std::string name;            ///< show: what to show; set: the knob
  expr::internal::Token value; ///< set: an integer, name or quoted string
  uint64_t query_id = 0;       ///< kill
};

/// Parses one statement. kInvalidArgument for a malformed statement,
/// kNotSupported for an unknown verb.
util::Result<Statement> ParseStatement(std::string_view text);

}  // namespace smadb::db

#endif  // SMADB_DB_STATEMENT_H_
