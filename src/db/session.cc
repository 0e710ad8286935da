#include "db/session.h"

namespace smadb::db {

using util::Result;
using util::Status;

Session::~Session() {
  db_->sessions_active_.fetch_sub(1, std::memory_order_acq_rel);
}

Result<plan::QueryResult> Session::Run(
    const Statement& stmt, std::shared_ptr<util::CancelToken> cancel) {
  return db_->Dispatch(stmt, std::move(cancel), this);
}

Result<plan::QueryResult> Session::Query(
    std::string_view text, std::shared_ptr<util::CancelToken> cancel) {
  SMADB_ASSIGN_OR_RETURN(const Statement stmt, ParseStatement(text));
  return Run(stmt, std::move(cancel));
}

Status Session::Execute(std::string_view text) {
  return Query(text).status();
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
