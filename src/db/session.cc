#include "db/session.h"

#include "expr/parser.h"

namespace smadb::db {

using util::Result;
using util::Status;

Session::~Session() {
  db_->sessions_active_.fetch_sub(1, std::memory_order_acq_rel);
}

Result<plan::QueryResult> Session::Query(std::string_view sql) {
  return db_->QueryWithKnobs(sql, nullptr, knobs_, id_);
}

Result<plan::QueryResult> Session::Query(
    std::string_view sql, std::shared_ptr<util::CancelToken> cancel) {
  return db_->QueryWithKnobs(sql, std::move(cancel), knobs_, id_);
}

Status Session::Execute(std::string_view statement) {
  // Intercept exactly the session-scoped knobs; every other statement —
  // including malformed `set`s, which the Database rejects with its full
  // knob list — forwards unchanged.
  SMADB_ASSIGN_OR_RETURN(auto tokens, expr::internal::Tokenize(statement));
  const bool is_set_int =
      tokens.size() == 5 &&  // set <knob> = <value> + kEnd sentinel
      tokens[0].kind == expr::internal::TokKind::kIdent &&
      tokens[0].text == "set" &&
      tokens[1].kind == expr::internal::TokKind::kIdent &&
      tokens[2].kind == expr::internal::TokKind::kCmp &&
      tokens[2].text == "=" &&
      tokens[3].kind == expr::internal::TokKind::kInt && tokens[3].value >= 0;
  if (is_set_int) {
    const int64_t n = tokens[3].value;
    if (tokens[1].text == "dop") {
      set_degree_of_parallelism(static_cast<size_t>(n));
      return Status::OK();
    }
    if (tokens[1].text == "timeout_ms") {
      set_timeout_ms(n);
      return Status::OK();
    }
    if (tokens[1].text == "memory_limit") {
      set_query_memory_limit(static_cast<size_t>(n));
      return Status::OK();
    }
    if (tokens[1].text == "allow_degraded") {
      set_allow_degraded(n != 0);
      return Status::OK();
    }
  }
  return db_->Execute(statement);
}

Status Session::Insert(std::string_view table,
                       const storage::TupleBuffer& tuple, storage::Rid* rid) {
  return db_->Insert(table, tuple, rid);
}

Status Session::Update(std::string_view table, storage::Rid rid, size_t col,
                       const util::Value& v) {
  return db_->Update(table, rid, col, v);
}

Status Session::Delete(std::string_view table, storage::Rid rid) {
  return db_->Delete(table, rid);
}

}  // namespace smadb::db
