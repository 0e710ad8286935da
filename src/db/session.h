// Session: a per-client handle over one Database (DESIGN.md §14).
//
// A Database is one shared engine; a Session is what a client thread holds.
// Each session carries its own copy of the execution knobs (dop,
// timeout_ms, memory_limit, allow_degraded), so `set` statements issued
// through a session change only that session — two clients tuning dop
// never race each other or in-flight queries. Global
// knobs (max_concurrent_queries, wal_sync_interval, storage selectors)
// forward to the Database and stay database-scoped.
//
// Sessions are also the admission unit: Session::Run passes the session
// id to the AdmissionController, so a session already running a query is
// re-entrantly admitted instead of queueing behind its own slot.
//
// Thread model: a Session object is NOT itself thread-safe — open one per
// client thread (they are cheap). Any number of sessions may use the same
// Database concurrently; the engine underneath is bucket-latched and
// snapshot-consistent. The Database must outlive every Session.

#ifndef SMADB_DB_SESSION_H_
#define SMADB_DB_SESSION_H_

#include <memory>
#include <string_view>

#include "db/database.h"

namespace smadb::db {

class Session {
 public:
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  uint64_t id() const { return id_; }
  Database* database() { return db_; }

  /// This session's knob copy (snapshot of the database defaults at
  /// CreateSession time, then changed only by this session's `set`s).
  const SessionKnobs& knobs() const { return knobs_; }

  /// Runs a parsed statement (db/statement.h) under this session's knobs
  /// and session-aware admission. `set` on a session knob (dop,
  /// timeout_ms, memory_limit, allow_degraded) changes only this session;
  /// every other statement acts on the Database. net::Server calls this.
  util::Result<plan::QueryResult> Run(
      const Statement& stmt, std::shared_ptr<util::CancelToken> cancel);

  /// ParseStatement(text) plus Run(); same grammar as Database::Query.
  util::Result<plan::QueryResult> Query(
      std::string_view text,
      std::shared_ptr<util::CancelToken> cancel = nullptr);

  /// Query(text).status(), for statements whose result is not wanted.
  util::Status Execute(std::string_view text);

  /// Mutations forward to the Database's single-writer path (serialized on
  /// its writer lock; readers overlap via bucket latches).
  util::Status Insert(std::string_view table,
                      const storage::TupleBuffer& tuple,
                      storage::Rid* rid = nullptr);
  util::Status Update(std::string_view table, storage::Rid rid, size_t col,
                      const util::Value& v);
  util::Status Delete(std::string_view table, storage::Rid rid);

 private:
  friend class Database;
  Session(Database* db, uint64_t id, SessionKnobs knobs)
      : db_(db), id_(id), knobs_(knobs) {}

  Database* db_;
  uint64_t id_;
  SessionKnobs knobs_;
};

}  // namespace smadb::db

#endif  // SMADB_DB_SESSION_H_
