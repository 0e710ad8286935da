// Live query introspection (DESIGN.md §16): a registry of in-flight
// queries, the backing store for `show queries`, `/debug/queries`, and
// `kill query <id>`.
//
// Each query registers on entry to Database::RunSelect (RAII Guard,
// declared after the profile so it unregisters first) and carries:
//   * identity — query id, request trace id, session id, the SQL text;
//   * liveness — the lifecycle phase ("admission"/"parse"/"execute"),
//     elapsed wall time, rows produced so far (summed from the profile's
//     root operators when the query is profiled; 0 otherwise);
//   * control — a shared_ptr to the query's CancelToken, which is what
//     makes `kill query` safe: the token outlives the registry entry even
//     if the query finishes while the killer holds the snapshot.
//
// The registry is a single small mutex-guarded map. Queries touch it twice
// (register/unregister) plus once per phase change — a handful of
// acquisitions per query, invisible next to parse + execute.

#ifndef SMADB_OBS_QUERY_REGISTRY_H_
#define SMADB_OBS_QUERY_REGISTRY_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/query_context.h"

namespace smadb::obs {

class QueryProfile;

/// One in-flight query's externally visible state at snapshot time.
struct QueryInfo {
  uint64_t query_id = 0;
  uint64_t trace_id = 0;
  uint64_t session_id = 0;
  std::string sql;
  std::string phase;
  uint64_t elapsed_us = 0;
  uint64_t rows = 0;             // rows so far (profiled queries only)
  bool cancel_requested = false; // killed / deadline-tripped already
};

class QueryRegistry {
 public:
  QueryRegistry() = default;
  QueryRegistry(const QueryRegistry&) = delete;
  QueryRegistry& operator=(const QueryRegistry&) = delete;

  /// Registers a query. `cancel` must be the query's live token (shared so
  /// Kill can trip it after the query drains). `profile` may be null and
  /// must outlive the registration (the Guard's declaration order in
  /// RunSelect guarantees it).
  void Register(uint64_t query_id, uint64_t trace_id, uint64_t session_id,
                std::string sql, std::shared_ptr<util::CancelToken> cancel,
                const QueryProfile* profile);
  void SetPhase(uint64_t query_id, std::string phase);
  void Unregister(uint64_t query_id);

  /// Trips the query's CancelToken. False when no such query is in flight.
  bool Kill(uint64_t query_id);

  /// All in-flight queries, ordered by query id.
  std::vector<QueryInfo> Snapshot() const;

  /// JSON array, schema pinned by observability_test and DESIGN.md §16:
  ///   [{"query": <u64>, "trace": "<hex>", "session": <u64>,
  ///     "sql": "<text>", "phase": "<name>", "elapsed_us": <u64>,
  ///     "rows": <u64>, "cancel_requested": <bool>}, ...]
  std::string DumpJson() const;

  size_t size() const;

  /// RAII registration for Database::RunSelect.
  class Guard {
   public:
    /// Null registry → no-op guard (metrics disabled).
    Guard(QueryRegistry* registry, uint64_t query_id, uint64_t trace_id,
          uint64_t session_id, std::string sql,
          std::shared_ptr<util::CancelToken> cancel,
          const QueryProfile* profile)
        : registry_(registry), query_id_(query_id) {
      if (registry_ != nullptr) {
        registry_->Register(query_id, trace_id, session_id, std::move(sql),
                            std::move(cancel), profile);
      }
    }
    ~Guard() {
      if (registry_ != nullptr) registry_->Unregister(query_id_);
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

    void SetPhase(std::string phase) {
      if (registry_ != nullptr) {
        registry_->SetPhase(query_id_, std::move(phase));
      }
    }

   private:
    QueryRegistry* registry_;
    uint64_t query_id_;
  };

 private:
  struct Entry {
    uint64_t trace_id = 0;
    uint64_t session_id = 0;
    std::string sql;
    std::string phase;
    std::chrono::steady_clock::time_point start;
    std::shared_ptr<util::CancelToken> cancel;
    const QueryProfile* profile = nullptr;
  };

  mutable std::mutex mu_;
  std::map<uint64_t, Entry> entries_;
};

}  // namespace smadb::obs

#endif  // SMADB_OBS_QUERY_REGISTRY_H_
