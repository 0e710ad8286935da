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
// Sessions are also the admission unit: Session::Query passes the session
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
  /// CreateSession time, then mutated only by this session's setters).
  const SessionKnobs& knobs() const { return knobs_; }
  void set_degree_of_parallelism(size_t dop) { knobs_.dop = dop; }
  void set_timeout_ms(int64_t ms) { knobs_.timeout_ms = ms; }
  void set_query_memory_limit(size_t bytes) {
    knobs_.query_memory_limit = bytes;
  }
  void set_allow_degraded(bool allow) { knobs_.allow_degraded = allow; }

  /// Runs a query under this session's knobs and session-aware admission.
  /// Same dialect as Database::Query.
  util::Result<plan::QueryResult> Query(std::string_view sql);
  util::Result<plan::QueryResult> Query(
      std::string_view sql, std::shared_ptr<util::CancelToken> cancel);

  /// Executes a statement. `set` statements on the session knobs (dop,
  /// timeout_ms, memory_limit, allow_degraded) scope to this session;
  /// everything else — define sma, global governor/durability knobs,
  /// storage selectors — forwards to the Database.
  util::Status Execute(std::string_view statement);

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
