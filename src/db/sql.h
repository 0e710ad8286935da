// Parser for the query dialect of db::Database:
//
//   select sum(l_quantity) as sum_qty, count(*), l_returnflag
//   from lineitem
//   where l_shipdate <= date '1998-09-02'
//   group by l_returnflag, l_linestatus
//
// and the pure-selection form `select * from t [where ...]`.

#ifndef SMADB_DB_SQL_H_
#define SMADB_DB_SQL_H_

#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "expr/parser.h"
#include "planner/planner.h"
#include "storage/schema.h"

namespace smadb::db {

/// A parsed query: either an aggregation block or a pure selection. The
/// table is identified by name; predicates/expressions are bound against
/// the schema supplied by the caller.
struct ParsedQuery {
  std::string table;
  bool select_star = false;
  expr::PredicatePtr pred;              // never null (Predicate::True())
  std::vector<size_t> group_by;         // empty for global aggregates
  std::vector<exec::AggSpec> aggs;      // empty iff select_star
  /// Group-by columns that appear in the select list, in select order
  /// (checked to be ⊆ group_by).
  std::vector<size_t> selected_columns;
};

/// Parses `sql` against `schema`. The from-clause table name is returned in
/// the result; callers resolve it first with ExtractTableName (Database
/// takes it from the parsed db::Statement).
util::Result<ParsedQuery> ParseQuery(const storage::Schema* schema,
                                     std::string_view sql);

/// Extracts just the from-clause table name (first pass, schema-free).
util::Result<std::string> ExtractTableName(std::string_view sql);

/// The from-clause finder behind ParseQuery, ExtractTableName and
/// db::ParseStatement: the index of the first `from` outside parentheses,
/// checked to be followed by a table name.
util::Result<size_t> FindFrom(
    const std::vector<expr::internal::Token>& tokens);

}  // namespace smadb::db

#endif  // SMADB_DB_SQL_H_
