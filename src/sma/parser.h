// Parser for the paper's SMA definition language (§2.1/§2.3):
//
//     define sma qty
//     select   sum(l_quantity)
//     from     lineitem
//     group by l_returnflag, l_linestatus
//
// Restrictions enforced exactly as in the paper: the select clause contains
// a single aggregate (min/max/sum/count), a single relation in the from
// clause (no joins), no order specification.

#ifndef SMADB_SMA_PARSER_H_
#define SMADB_SMA_PARSER_H_

#include <string>
#include <string_view>

#include "sma/sma_def.h"
#include "storage/schema.h"

namespace smadb::sma {

/// A parsed definition: the spec plus the target table name.
struct ParsedSmaDefinition {
  std::string table;
  SmaSpec spec;
};

/// Parses a `define sma` statement against `schema`, the schema of the
/// table the statement's from-clause names (the caller resolves the name;
/// db::ParseStatement finds it). Build the result with BuildSma.
util::Result<ParsedSmaDefinition> ParseSmaDefinition(
    const storage::Schema* schema, std::string_view text);

}  // namespace smadb::sma

#endif  // SMADB_SMA_PARSER_H_
