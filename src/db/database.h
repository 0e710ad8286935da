// Database: the top-level facade a downstream user works with — one object
// owning the storage backend (simulated or durable files + WAL), buffer
// pool, catalog, the SMA sets of every table, and a planner per query.
// Accepts the paper's textual SMA definitions and a SQL-ish query dialect:
//
//   Database db;
//   db.CreateTable("shipments", schema);
//   ... load ...
//   db.Execute("define sma min select min(shipdate) from shipments");
//   db.Execute("define sma max select max(shipdate) from shipments");
//   auto result = db.Query(
//       "select count(*) from shipments where shipdate <= '1997-04-30'");
//
// Queries are planned against the table's SMAs with the Fig. 5 break-even
// cost model; result.plan reports which plan ran.

#ifndef SMADB_DB_DATABASE_H_
#define SMADB_DB_DATABASE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/admission.h"
#include "db/manifest.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/query_registry.h"
#include "obs/trace.h"
#include "planner/planner.h"
#include "sma/maintenance.h"
#include "sma/sma_set.h"
#include "storage/catalog.h"
#include "storage/disk.h"
#include "storage/wal.h"
#include "util/query_context.h"

namespace smadb::db {

class Session;

/// Per-session execution/governor knobs — the subset of `set` statements
/// that scope to one session instead of the whole database. A Session gets
/// a copy of the database defaults at creation; its `set` statements mutate
/// only the copy.
struct SessionKnobs {
  size_t dop = 0;               ///< 0 = auto (hardware concurrency)
  int64_t timeout_ms = 0;       ///< 0 = no deadline
  size_t query_memory_limit = 0;  ///< 0 = bounded only by the global budget
  bool allow_degraded = true;
};

struct DatabaseOptions {
  /// Buffer pool capacity in 4 KiB frames (default 8 MB — the paper's).
  size_t pool_pages = 2048;
  /// Verify page checksums on every buffer-pool miss (see BufferPoolOptions;
  /// off only for overhead experiments, EXPERIMENTS.md X7).
  bool verify_checksums = true;
  plan::PlannerOptions planner;

  // --- durable storage (DESIGN.md §12) -------------------------------------
  /// Where pages live: kSimulated (in-memory, the paper's measurement rig)
  /// or kFile (real files + WAL + checkpoints). The plain constructor always
  /// builds the simulated backend; the file backend needs the fallible
  /// Database::Open() path, which also runs crash recovery.
  storage::BackendKind storage_backend = storage::BackendKind::kSimulated;
  /// Directory of the file backend (segments, wal.smadb, manifest.smadb).
  /// Required when storage_backend == kFile; ignored otherwise.
  std::string storage_path;
  /// WAL group-commit knob: Sync (fdatasync) the log every N logged
  /// mutations. 1 = per-commit durability (default), N > 1 = group commit
  /// (a crash can lose up to N-1 trailing un-synced mutations), 0 = manual
  /// (SyncWal / Checkpoint / page write-back only).
  size_t wal_sync_interval = 1;

  // --- resource governance (DESIGN.md §10) ---------------------------------
  /// Global memory budget in bytes shared by all queries (and buffer-pool
  /// pins, which are charged against it when set). 0 = unlimited, and the
  /// hot paths skip the tracker entirely.
  size_t global_memory_limit = 0;
  /// Per-query memory budget in bytes (child of the global tracker).
  /// 0 = bounded only by the global budget.
  size_t query_memory_limit = 0;
  /// Deadline applied to every query, in milliseconds. 0 = none.
  int64_t timeout_ms = 0;
  /// Queries allowed to run at once; 0 disables admission control.
  size_t max_concurrent_queries = 0;
  /// Admission FIFO depth and wait budget (see AdmissionController).
  size_t admission_max_queued = 16;
  int64_t admission_max_wait_ms = 1000;

  // --- observability (DESIGN.md §11) ---------------------------------------
  /// Feed the metrics registry and trace ring on every query (counters,
  /// latency histogram, lifecycle spans). Off = the query path touches no
  /// registry state at all.
  bool enable_metrics = true;
  /// Registry to feed. Null = a private per-Database registry, so embedded
  /// uses and tests stay isolated; pass obs::MetricsRegistry::Default() to
  /// share one process-wide. A caller-supplied registry holds callback
  /// gauges that read this Database — it must not be snapshotted after the
  /// Database is destroyed.
  obs::MetricsRegistry* metrics_registry = nullptr;
  /// Query-lifecycle trace ring capacity, in spans (overwrite-oldest).
  size_t trace_capacity = 256;

  // --- telemetry plane (DESIGN.md §16) -------------------------------------
  /// Structured-log configuration (level, logfmt/JSON, rate limit, sink).
  /// Set log.sink = nullptr to mute the stream (the in-memory ring still
  /// fills — tests read it back via logger()->Tail()).
  obs::Logger::Options log;
  /// Queries slower than this (milliseconds, end to end) are logged at WARN
  /// with their full profile attached. 0 = off. Also settable at runtime
  /// via `set slow_query_ms = <n>`.
  int64_t slow_query_ms = 0;
};

class Database {
 public:
  /// Constructs an in-memory database over the simulated backend (the
  /// storage_backend option is ignored here — backend selection is fallible,
  /// so the file backend goes through Open()).
  explicit Database(DatabaseOptions options = {});

  /// Opens a database honoring options.storage_backend. For kFile this
  /// attaches the storage directory (creating it when new), replays the WAL
  /// against the last checkpoint manifest, and flags SMAs whose built-epoch
  /// the replay left behind — the crash-recovery entry point (DESIGN.md §12).
  static util::Result<std::unique_ptr<Database>> Open(DatabaseOptions options);

  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // --- durability lifecycle ------------------------------------------------
  /// Flushes dirty pages, syncs the backend, writes the checkpoint manifest,
  /// and truncates the WAL (file backend; on the simulated backend just a
  /// flush + sync). After a clean Checkpoint, recovery replays nothing.
  util::Status Checkpoint();

  /// Checkpoint + mark closed (idempotent). The destructor calls this as a
  /// best-effort for the file backend, so a scoped Database is cleanly
  /// durable; call explicitly to observe failures.
  util::Status Close();

  /// Makes everything logged so far durable (fdatasync). No-op without a
  /// WAL. Group-commit tails call this; the buffer pool's WAL-before-data
  /// barrier calls it before any dirty page write-back.
  util::Status SyncWal();

  /// Simulates kill-9: staged-but-unsynced WAL bytes and every dirty page
  /// still in the pool are dropped, exactly the state a power loss leaves on
  /// disk. The instance is dead afterwards (Close/destructor write nothing);
  /// reopen the directory with Open() to exercise recovery.
  util::Status CrashForTesting();

  // --- degraded mode -------------------------------------------------------
  /// True once a durable-write failure (EIO/ENOSPC on a WAL fsync, segment
  /// write-back, or checkpoint step) flipped the database into sticky
  /// read-only mode: reads keep serving, mutations return kUnavailable, and
  /// the failed fsync is never retried as if it had succeeded (the
  /// "fsyncgate" rule — the kernel may have dropped the dirty pages the
  /// failure covered). The only way out is reopening the directory, which
  /// recovers exactly the acknowledged prefix.
  bool read_only() const { return read_only_.load(std::memory_order_acquire); }
  /// Why the database is read-only (empty while writable).
  std::string read_only_reason() const {
    std::lock_guard<std::mutex> lock(read_only_mu_);
    return read_only_reason_;
  }

  // --- scrubbing -----------------------------------------------------------
  /// What one Database::Scrub() pass found (also rendered by the `scrub`
  /// statement and mirrored into the metrics registry).
  struct ScrubReport {
    uint64_t files_scanned = 0;
    uint64_t pages_scanned = 0;
    uint64_t corrupt_pages = 0;
    uint64_t smas_verified = 0;
    uint64_t smas_distrusted = 0;  ///< distrusted/stale after verification
    uint64_t smas_repaired = 0;    ///< rebuilt by the repair pass
    /// Repairs need writes; in read-only mode findings are reported only.
    bool repairs_skipped_read_only = false;
    /// (file name, corrupt page count) for every file with findings.
    std::vector<std::pair<std::string, uint64_t>> corrupt_files;
    /// Non-fatal anomalies hit along the way (unreadable pages, failed
    /// verifies/rebuilds) — the scrub itself keeps going.
    std::vector<std::string> notes;
  };

  /// Online scrubber: re-reads every page of every backend file and checks
  /// its CRC-32C against the out-of-band sidecar, distrusts SMAs whose files
  /// hold corrupt pages, runs SmaMaintainer::VerifyAll, and (unless
  /// read-only) repairs distrusted/stale SMAs via Rebuild. Reads the at-rest
  /// bytes straight from the backend, so dirty pool pages cause no false
  /// positives (the sidecar always covers the stored bytes).
  util::Result<ScrubReport> Scrub();

  // --- schema & data -------------------------------------------------------
  util::Result<storage::Table*> CreateTable(
      std::string name, storage::Schema schema,
      storage::TableOptions options = {});

  util::Result<storage::Table*> GetTable(std::string_view name) const {
    return catalog_->GetTable(name);
  }

  /// Appends a tuple, keeping the table's SMAs maintained.
  util::Status Insert(std::string_view table,
                      const storage::TupleBuffer& tuple,
                      storage::Rid* rid = nullptr);

  /// Updates / deletes through the maintainer.
  util::Status Update(std::string_view table, storage::Rid rid, size_t col,
                      const util::Value& v);
  util::Status Delete(std::string_view table, storage::Rid rid);

  // --- SMAs ----------------------------------------------------------------
  /// The SMA set of a table (created lazily, initially empty).
  util::Result<sma::SmaSet*> Smas(std::string_view table);

  /// The maintainer of a table, for the fault-repair hooks: VerifyAll()
  /// self-checks the SMAs, Rebuild() re-materializes distrusted/stale ones.
  util::Result<sma::SmaMaintainer*> Maintainer(std::string_view table);

  // --- statements ----------------------------------------------------------
  /// Executes a DDL-ish statement. Currently: `define sma ...` (§2.1), the
  /// session settings `set <knob> = <n>` for the knobs dop, timeout_ms,
  /// memory_limit, max_concurrent_queries, allow_degraded, and
  /// wal_sync_interval, plus the storage selectors `set storage = sim|file`
  /// (only while no tables exist) and `set storage_path = '<dir>'`.
  util::Status Execute(std::string_view statement);

  /// Default degree of parallelism for subsequent queries; equivalent to
  /// `set dop = <n>` at database scope. 0 = auto (hardware concurrency),
  /// 1 = serial. Sessions copy this default at creation.
  void set_degree_of_parallelism(size_t dop) {
    std::lock_guard<std::mutex> lock(knobs_mu_);
    options_.planner.degree_of_parallelism = dop;
  }
  size_t degree_of_parallelism() const {
    std::lock_guard<std::mutex> lock(knobs_mu_);
    return options_.planner.degree_of_parallelism;
  }

  /// Default query deadline; equivalent to `set timeout_ms = <n>`. 0 = none.
  void set_timeout_ms(int64_t ms) {
    std::lock_guard<std::mutex> lock(knobs_mu_);
    options_.timeout_ms = ms;
  }
  int64_t timeout_ms() const {
    std::lock_guard<std::mutex> lock(knobs_mu_);
    return options_.timeout_ms;
  }

  /// Default per-query memory budget; equivalent to
  /// `set memory_limit = <bytes>`. 0 = bounded only by the global budget.
  void set_query_memory_limit(size_t bytes) {
    std::lock_guard<std::mutex> lock(knobs_mu_);
    options_.query_memory_limit = bytes;
  }
  size_t query_memory_limit() const {
    std::lock_guard<std::mutex> lock(knobs_mu_);
    return options_.query_memory_limit;
  }

  /// Concurrency cap; equivalent to `set max_concurrent_queries = <n>`.
  /// 0 = admission control off.
  void set_max_concurrent_queries(size_t n);
  size_t max_concurrent_queries() const { return admission_.max_concurrent(); }

  /// The global memory tracker (budget from global_memory_limit; unlimited
  /// when that is 0). Per-query trackers are children of this one.
  util::MemoryTracker* global_memory() { return &global_memory_; }
  AdmissionController* admission() { return &admission_; }

  /// Runs a query:
  ///   select <aggregates and group columns> from <table>
  ///     [where <predicate>] [group by <columns>]
  /// or a pure selection:
  ///   select * from <table> [where <predicate>]
  /// Aggregates: sum/avg/min/max(expr), count(*); `as alias` supported.
  /// `explain select ...` runs the (governed) query and returns one text
  /// column describing the plan, governor state, and any degradation —
  /// instead of the query's own rows.
  ///
  /// Every query runs under a QueryContext built from the session governor
  /// knobs: an optional caller-supplied cancel token, the session deadline,
  /// the per-query memory budget (child of the global tracker), and the
  /// admission controller. Typed failures (kCancelled, kDeadlineExceeded,
  /// kResourceExhausted) surface unless the planner's degradation ladder
  /// absorbs them (DESIGN.md §10).
  ///
  /// `explain analyze select ...` additionally profiles the run (per-
  /// operator wall time, row/batch/bucket/page tallies, phase timings,
  /// degradation events) and returns the report as one text column.
  /// `show metrics`, `show profile`, and `show trace` return the registry
  /// snapshot, the most recent `explain analyze` report, and the trace
  /// ring, each as one text column.
  util::Result<plan::QueryResult> Query(std::string_view sql);
  util::Result<plan::QueryResult> Query(
      std::string_view sql, std::shared_ptr<util::CancelToken> cancel);

  // --- sessions ------------------------------------------------------------
  /// Opens a client session: a lightweight handle with its own copy of the
  /// execution knobs (dop, timeout_ms, memory_limit, allow_degraded) whose
  /// `set` statements scope to the session, and whose queries are admitted
  /// session-aware (a session already running a query is never starved
  /// behind — or deadlocked on — its own admission slot).
  /// Sessions are cheap; open one per client thread. The Database must
  /// outlive every Session it created.
  std::unique_ptr<Session> CreateSession();

  /// Sessions currently open (the smadb_sessions_active gauge).
  size_t sessions_active() const {
    return sessions_active_.load(std::memory_order_acquire);
  }

  // --- observability -------------------------------------------------------
  /// The metrics registry this database feeds (the private one unless
  /// DatabaseOptions.metrics_registry was supplied).
  obs::MetricsRegistry* metrics() { return registry_; }

  /// Prometheus text exposition of every registered metric.
  std::string ExportMetrics() const { return registry_->RenderPrometheus(); }

  /// The query-lifecycle trace ring and its JSON dump.
  obs::TraceSink* trace() { return &trace_; }
  std::string DumpTrace() const { return trace_.DumpJson(); }

  /// The structured logger (DESIGN.md §16). net::Server logs through this
  /// instance so wire-level request lines and query-level lines land in one
  /// stream.
  obs::Logger* logger() { return &logger_; }

  /// In-flight queries: the registry behind `show queries`, `kill query`,
  /// and `/debug/queries`. DumpQueries() is the endpoint's JSON body.
  obs::QueryRegistry* query_registry() { return &query_registry_; }
  std::string DumpQueries() const { return query_registry_.DumpJson(); }

  /// Trips the CancelToken of an in-flight query (the `kill query <id>`
  /// statement funnels here). kNotFound when no such query is running.
  /// Deliberately lock-free with respect to write_mu_: a wedged writer must
  /// still be killable.
  util::Status KillQuery(uint64_t query_id);

  /// Microseconds since this Database was constructed (statusz uptime).
  uint64_t uptime_us() const;

  /// The slow-query threshold (`set slow_query_ms = <n>`); 0 = off.
  int64_t slow_query_ms() const {
    std::lock_guard<std::mutex> lock(knobs_mu_);
    return options_.slow_query_ms;
  }

  /// The report of the most recent `explain analyze` query (empty before
  /// the first one). Also surfaced by `show profile`.
  std::vector<std::string> LastProfile() const;

  /// The structured profile behind LastProfile(), for programmatic
  /// inspection (nullptr before the first `explain analyze`). Valid until
  /// the next `explain analyze` replaces it.
  const obs::QueryProfile* last_profile() const {
    std::lock_guard<std::mutex> lock(profile_mu_);
    return last_profile_.get();
  }

  // --- plumbing ------------------------------------------------------------
  storage::DiskBackend* disk() { return disk_.get(); }
  /// The write-ahead log (null on the simulated backend).
  storage::Wal* wal() { return wal_.get(); }
  storage::BufferPool* pool() { return pool_.get(); }
  storage::Catalog* catalog() { return catalog_.get(); }
  const DatabaseOptions& options() const { return options_; }

  /// Recovery/checkpoint counters for `show storage` and the registry.
  struct DurabilityStats {
    uint64_t checkpoints = 0;
    uint64_t recovered_tables = 0;
    uint64_t replayed_records = 0;
    uint64_t stale_smas = 0;  ///< SMAs left behind by replay (need Rebuild)
    uint64_t orphan_sma_files = 0;  ///< unmanifested SMA-files swept at open
    uint64_t recovery_us = 0;
  };
  const DurabilityStats& durability() const { return durability_; }

 private:
  friend class Session;

  struct TableState {
    std::unique_ptr<sma::SmaSet> smas;
    std::unique_ptr<sma::SmaMaintainer> maintainer;
  };

  Database(DatabaseOptions options,
           std::unique_ptr<storage::DiskBackend> disk,
           std::unique_ptr<storage::Wal> wal);

  util::Result<TableState*> StateFor(std::string_view table);

  /// Snapshot of the database-default session knobs (knobs_mu_).
  SessionKnobs DefaultKnobs() const;

  /// The full governed query path: admission (session-aware via
  /// `session_id`; 0 = anonymous), context built from `knobs`, metrics,
  /// tracing. Both Query() overloads and Session::Query funnel here.
  util::Result<plan::QueryResult> QueryWithKnobs(
      std::string_view sql, std::shared_ptr<util::CancelToken> cancel,
      const SessionKnobs& knobs, uint64_t session_id);

  /// Checkpoint body; caller holds write_mu_.
  util::Status CheckpointLocked();

  /// Hooks a freshly created/attached table's latch table up to the
  /// latch-wait histogram (no-op with metrics off).
  void AttachLatchMetrics(storage::Table* table);

  // --- durability internals ------------------------------------------------
  std::string ManifestPath() const;
  /// Group-commit tail: counts one logged mutation and syncs per the
  /// wal_sync_interval policy.
  util::Status MaybeSyncWal();
  /// Snapshot of catalog + SMA registries for the checkpoint manifest.
  Manifest BuildManifest(uint64_t checkpoint_lsn) const;
  /// Rebuilds tables/SMAs from the manifest, replays the WAL, and flags
  /// SMAs the replay left stale. Called once by Open() on the file backend.
  util::Status Recover();
  util::Status ApplyWalRecord(storage::WalRecordType type,
                              std::string_view payload);
  /// Unwinds the record staged at `mark` after its in-memory apply failed:
  /// unstages it when still buffered, otherwise (it escaped to the file via
  /// an eviction barrier inside the apply) logs and syncs a kAbort record so
  /// recovery never redoes a mutation this instance reported as failed.
  /// Returns `cause` so call sites can `return RollbackWalRecord(mark, st)`.
  util::Status RollbackWalRecord(const storage::Wal::AppendMark& mark,
                                 util::Status cause);
  /// `set storage = sim|file`: tears down the (empty) storage stack and
  /// rebuilds it over the requested backend, recovering from storage_path
  /// when switching to kFile. Refused when tables exist.
  util::Status SetStorageBackend(storage::BackendKind kind);
  /// Handles `show storage`.
  util::Result<plan::QueryResult> ShowStorage() const;

  // --- degraded-mode internals ---------------------------------------------
  /// kUnavailable (with the degradation reason) while read-only; OK
  /// otherwise. Every mutating entry point checks this first.
  util::Status CheckWritable() const;
  /// Flips the database into sticky read-only mode.
  void EnterReadOnly(std::string reason);
  /// Routes a durability-barrier result: environmental failures (kIOError /
  /// kDiskFull) enter read-only mode; the status passes through unchanged.
  util::Status NoteDurableFailure(util::Status st);
  /// Same, but only for the typed kDiskFull failures that can surface from
  /// a mutation's apply path (eviction write-back hitting ENOSPC) — plain
  /// kIOError there may be a transient read fault and must not degrade.
  util::Status NoteDiskFull(util::Status st);

  /// The governed body of Query(): parse, run under `ctx` with the given
  /// per-query planner options (a stable copy — session knobs must not read
  /// the mutable defaults mid-flight); `query_id` keys the trace spans
  /// (sink may be null = tracing off).
  util::Result<plan::QueryResult> RunQuery(std::string_view sql,
                                           util::QueryContext* ctx,
                                           const plan::PlannerOptions& popts,
                                           uint64_t query_id,
                                           obs::TraceSink* sink,
                                           uint64_t trace_id,
                                           obs::QueryRegistry::Guard* live);

  /// Registers the per-query instruments and the callback gauges folding
  /// PoolStats / IoStats / MemoryTracker into the registry.
  void InitMetrics();

  /// Handles `show metrics` / `show profile` / `show trace`.
  util::Result<plan::QueryResult> RunShow(std::string_view what);

  DatabaseOptions options_;
  util::MemoryTracker global_memory_;
  AdmissionController admission_;
  std::unique_ptr<storage::DiskBackend> disk_;
  std::unique_ptr<storage::Wal> wal_;  // file backend only
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<storage::Catalog> catalog_;
  std::unordered_map<std::string, TableState> states_;
  DurabilityStats durability_;

  // --- concurrency (DESIGN.md §14) -----------------------------------------
  /// Serializes every mutating entry point (Insert/Update/Delete/
  /// CreateTable/define sma/Checkpoint/Close/Scrub/backend swap): smadb is
  /// single-writer by design — concurrency comes from readers overlapping
  /// the writer via bucket latches, not from concurrent writers. First in
  /// the lock order: write_mu_ -> bucket latch -> pool mutex -> WAL mutex.
  mutable std::mutex write_mu_;
  /// Guards the mutable session-default knobs inside options_ (planner
  /// dop/allow_degraded, timeout_ms, query_memory_limit,
  /// wal_sync_interval, max_concurrent_queries). Leaf lock.
  mutable std::mutex knobs_mu_;
  /// Guards the states_ map itself (find/emplace). Values are stable across
  /// rehash (unordered_map), so TableState pointers outlive the lock.
  mutable std::mutex states_mu_;
  /// Logged mutations since the last WAL sync (group-commit window). Atomic:
  /// the pool's pre-writeback barrier resets it from reader threads.
  std::atomic<size_t> ops_since_sync_{0};
  /// Set by CrashForTesting: Close/destructor must not write anything.
  bool crashed_ = false;
  bool closed_ = false;
  /// Sticky degraded mode (see read_only()). The flag is checked lock-free
  /// on every mutation and durable barrier; the reason string has its own
  /// mutex (written once, on the failing thread).
  std::atomic<bool> read_only_{false};
  mutable std::mutex read_only_mu_;
  std::string read_only_reason_;
  std::atomic<uint64_t> next_session_id_{1};
  std::atomic<size_t> sessions_active_{0};

  // --- observability state -------------------------------------------------
  std::unique_ptr<obs::MetricsRegistry> own_registry_;
  obs::MetricsRegistry* registry_;  // == own_registry_ unless supplied
  obs::TraceSink trace_;
  obs::Logger logger_;
  obs::QueryRegistry query_registry_;
  const std::chrono::steady_clock::time_point start_time_ =
      std::chrono::steady_clock::now();
  std::atomic<uint64_t> next_query_id_{1};
  // Cached instrument pointers; all null when enable_metrics is false.
  struct {
    obs::Counter* queries_total = nullptr;
    obs::Counter* queries_failed = nullptr;
    obs::Counter* queries_cancelled = nullptr;
    obs::Counter* queries_deadline = nullptr;
    obs::Counter* queries_degraded = nullptr;
    obs::Counter* rows_returned = nullptr;
    obs::Counter* appends = nullptr;
    obs::Counter* buckets_qualifying = nullptr;
    obs::Counter* buckets_disqualifying = nullptr;
    obs::Counter* buckets_ambivalent = nullptr;
    obs::Histogram* query_latency_us = nullptr;
    obs::Histogram* latch_wait_ns = nullptr;
    obs::Counter* scrub_runs = nullptr;
    obs::Counter* scrub_pages_scanned = nullptr;
    obs::Counter* scrub_corrupt_pages = nullptr;
    obs::Counter* scrub_smas_repaired = nullptr;
  } m_;
  /// Per-file corruption gauges a scrub has registered, so a later clean
  /// scrub can zero them.
  std::unordered_map<std::string, obs::Gauge*> scrub_gauges_;
  mutable std::mutex profile_mu_;  // guards last_profile_
  std::unique_ptr<obs::QueryProfile> last_profile_;
};

/// Renders a finished plan as an `explain` result: one String("explain")
/// column, one row per line (plan kind, bucket census, dop, degradation
/// marker, and the full explanation incl. governor notes).
plan::QueryResult ExplainResult(const plan::PlanChoice& plan);

/// One text column named `column`, one row per line (wrapped at the column
/// width) — the carrier for explain analyze / show statements.
plan::QueryResult TextResult(const std::string& column,
                             const std::vector<std::string>& lines);

}  // namespace smadb::db

#endif  // SMADB_DB_DATABASE_H_
