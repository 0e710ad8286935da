#include "db/database.h"

#include <algorithm>
#include <type_traits>
#include <unordered_set>

#include "db/session.h"
#include "db/sql.h"
#include "expr/parser.h"
#include "sma/builder.h"
#include "sma/parser.h"
#include "storage/file_disk.h"
#include "util/crc32c.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace smadb::db {

using expr::internal::Token;
using expr::internal::TokKind;
using storage::BackendKind;
using storage::Rid;
using storage::Table;
using storage::WalPayloadReader;
using storage::WalRecordType;
using util::Result;
using util::Status;

namespace {

Result<util::TypeId> TypeIdFromString(const std::string& s) {
  if (s == "int32") return util::TypeId::kInt32;
  if (s == "int64") return util::TypeId::kInt64;
  if (s == "double") return util::TypeId::kDouble;
  if (s == "decimal") return util::TypeId::kDecimal;
  if (s == "date") return util::TypeId::kDate;
  if (s == "string") return util::TypeId::kString;
  return Status::Corruption("unknown field type '" + s + "'");
}

Result<sma::AggFunc> AggFuncFromString(const std::string& s) {
  if (s == "min") return sma::AggFunc::kMin;
  if (s == "max") return sma::AggFunc::kMax;
  if (s == "sum") return sma::AggFunc::kSum;
  if (s == "count") return sma::AggFunc::kCount;
  return Status::Corruption("unknown aggregate function '" + s + "'");
}

Result<storage::Schema> SchemaFromManifest(const ManifestTable& mt) {
  std::vector<storage::Field> fields;
  fields.reserve(mt.fields.size());
  for (const ManifestField& f : mt.fields) {
    SMADB_ASSIGN_OR_RETURN(util::TypeId t, TypeIdFromString(f.type));
    fields.push_back(storage::Field{f.name, t, f.capacity});
  }
  return storage::Schema(std::move(fields));
}

std::string WalPath(const std::string& dir) { return dir + "/wal.smadb"; }

// Bulk-builds a parsed SMA over `table` and registers it in `smas`.
Status BuildAndAddSma(Table* table, sma::SmaSet* smas, sma::SmaSpec spec) {
  SMADB_ASSIGN_OR_RETURN(std::unique_ptr<sma::Sma> built,
                         sma::BuildSma(table, std::move(spec)));
  return smas->Add(std::move(built));
}

// `set` on a session knob: stores the integer value in `kField`.
template <auto kField>
Status SetKnob(Database*, SessionKnobs* knobs, const Token& v) {
  using Field = std::remove_reference_t<decltype(knobs->*kField)>;
  knobs->*kField = static_cast<Field>(v.value);
  return Status::OK();
}

}  // namespace

Database::Database(DatabaseOptions options)
    : Database(std::move(options), std::make_unique<storage::SimulatedDisk>(),
               nullptr) {}

Database::Database(DatabaseOptions options,
                   std::unique_ptr<storage::DiskBackend> disk,
                   std::unique_ptr<storage::Wal> wal)
    : options_(std::move(options)),
      global_memory_("global", options_.global_memory_limit),
      admission_(AdmissionController::Options{
          .max_concurrent = options_.max_concurrent_queries,
          .max_queued = options_.admission_max_queued,
          .max_wait =
              std::chrono::milliseconds(options_.admission_max_wait_ms)}),
      disk_(std::move(disk)),
      wal_(std::move(wal)),
      pool_(std::make_unique<storage::BufferPool>(
          disk_.get(),
          storage::BufferPoolOptions{
              .capacity_pages = options_.pool_pages,
              .verify_checksums = options_.verify_checksums,
              // Pin charging only when a global budget exists: the tracker
              // mutex would otherwise tax every Fetch for nothing.
              .pin_tracker = options_.global_memory_limit > 0 ? &global_memory_
                                                              : nullptr,
              // WAL-before-data: no dirty page reaches the backend before
              // every record logged so far is durable (DESIGN.md §12).
              .pre_writeback = [this] { return SyncWal(); }})),
      catalog_(std::make_unique<storage::Catalog>(pool_.get())),
      registry_(options_.metrics_registry),
      trace_(options_.trace_capacity),
      logger_(options_.log) {
  // The option mirrors whatever backend the instance actually got (the
  // plain constructor always builds the simulated one).
  options_.storage_backend = disk_->kind();
  if (registry_ == nullptr) {
    own_registry_ = std::make_unique<obs::MetricsRegistry>();
    registry_ = own_registry_.get();
  }
  if (options_.enable_metrics) InitMetrics();
}

Result<std::unique_ptr<Database>> Database::Open(DatabaseOptions options) {
  if (options.storage_backend == BackendKind::kSimulated) {
    return std::unique_ptr<Database>(new Database(std::move(options)));
  }
  if (options.storage_path.empty()) {
    return Status::InvalidArgument(
        "storage_backend = file requires a storage_path");
  }
  SMADB_ASSIGN_OR_RETURN(std::unique_ptr<storage::FileDiskManager> disk,
                         storage::FileDiskManager::Open(options.storage_path));
  SMADB_ASSIGN_OR_RETURN(std::unique_ptr<storage::Wal> wal,
                         storage::Wal::Open(WalPath(options.storage_path)));
  std::unique_ptr<Database> db(
      new Database(std::move(options), std::move(disk), std::move(wal)));
  SMADB_RETURN_NOT_OK(db->Recover());
  return db;
}

Database::~Database() {
  // Best-effort clean shutdown; failures are only observable through an
  // explicit Close(). A crashed instance writes nothing (see Close).
  (void)Close();
}

Status Database::Close() {
  std::lock_guard<std::mutex> lock(write_mu_);
  if (closed_ || crashed_) return Status::OK();
  // Read-only means a durable barrier already failed; retrying it at close
  // (fsyncgate) could acknowledge data the kernel dropped. The recovered
  // state after reopen is exactly the acknowledged prefix.
  if (wal_ != nullptr && !read_only()) SMADB_RETURN_NOT_OK(CheckpointLocked());
  closed_ = true;
  return Status::OK();
}

Status Database::Checkpoint() {
  std::lock_guard<std::mutex> lock(write_mu_);
  return CheckpointLocked();
}

Status Database::CheckpointLocked() {
  if (crashed_) return Status::Internal("database crashed; reopen to recover");
  SMADB_RETURN_NOT_OK(CheckWritable());
  // FlushAll runs the WAL barrier before the first dirty write, so the
  // log-before-data ordering holds here too. Every step below is a durable
  // write; an environmental failure in any of them degrades to read-only.
  SMADB_RETURN_NOT_OK(NoteDurableFailure(pool_->FlushAll()));
  SMADB_RETURN_NOT_OK(NoteDurableFailure(disk_->Sync()));
  if (wal_ == nullptr) return Status::OK();
  SMADB_RETURN_NOT_OK(SyncWal());
  const uint64_t lsn = wal_->next_lsn();
  SMADB_RETURN_NOT_OK(NoteDurableFailure(
      WriteManifest(ManifestPath(), BuildManifest(lsn))));
  SMADB_RETURN_NOT_OK(NoteDurableFailure(wal_->Reset(lsn)));
  ++durability_.checkpoints;
  return Status::OK();
}

Status Database::CheckWritable() const {
  if (!read_only()) return Status::OK();
  return Status::Unavailable("database is in read-only degraded mode (" +
                             read_only_reason() +
                             "); reads keep serving, reopen to recover");
}

void Database::EnterReadOnly(std::string reason) {
  std::lock_guard<std::mutex> lock(read_only_mu_);
  // First failure wins; never un-degrade in place. The flag is published
  // after the reason so a reader that sees it set finds the reason written.
  if (read_only_.load(std::memory_order_relaxed)) return;
  read_only_reason_ = std::move(reason);
  read_only_.store(true, std::memory_order_release);
}

Status Database::NoteDurableFailure(Status st) {
  if (st.code() == util::StatusCode::kIOError ||
      st.code() == util::StatusCode::kDiskFull) {
    EnterReadOnly(st.message());
  }
  return st;
}

Status Database::NoteDiskFull(Status st) {
  if (st.code() == util::StatusCode::kDiskFull) EnterReadOnly(st.message());
  return st;
}

Status Database::SyncWal() {
  if (wal_ == nullptr) return Status::OK();
  // fsyncgate: after a failed fsync the kernel may have dropped the very
  // dirty pages the failure covered — a later "successful" retry would
  // acknowledge lost data. Refuse instead (this also blocks the buffer
  // pool's pre-writeback barrier, so no dirty page escapes either).
  SMADB_RETURN_NOT_OK(CheckWritable());
  SMADB_RETURN_NOT_OK(NoteDurableFailure(wal_->Sync()));
  ops_since_sync_.store(0, std::memory_order_relaxed);
  return Status::OK();
}

Status Database::MaybeSyncWal() {
  if (wal_ == nullptr) return Status::OK();
  const size_t interval = [&] {
    std::lock_guard<std::mutex> lock(knobs_mu_);
    return options_.wal_sync_interval;
  }();
  const size_t ops =
      ops_since_sync_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (interval == 0 || ops < interval) return Status::OK();
  return SyncWal();
}

Status Database::RollbackWalRecord(const storage::Wal::AppendMark& mark,
                                   Status cause) {
  if (wal_ == nullptr || wal_->TryRollback(mark)) return cause;
  // The record reached the file (a buffer-pool eviction ran the WAL barrier
  // mid-apply); stage an abort and make it durable before acknowledging the
  // failure, so a crash can never replay the failed mutation un-aborted.
  std::string payload;
  storage::WalPutU64(&payload, mark.lsn);
  SMADB_RETURN_NOT_OK(
      wal_->Append(WalRecordType::kAbort, payload).status());
  SMADB_RETURN_NOT_OK(SyncWal());
  return cause;
}

Status Database::CrashForTesting() {
  std::lock_guard<std::mutex> lock(write_mu_);
  crashed_ = true;
  if (wal_ != nullptr) wal_->DiscardUnflushed();
  return pool_->DiscardAll();
}

std::string Database::ManifestPath() const {
  return options_.storage_path + "/manifest.smadb";
}

void Database::InitMetrics() {
  m_.queries_total =
      registry_->GetCounter("smadb_queries_total", "Queries executed");
  m_.queries_failed = registry_->GetCounter("smadb_queries_failed_total",
                                            "Queries that returned an error");
  m_.queries_cancelled = registry_->GetCounter(
      "smadb_queries_cancelled_total", "Queries cancelled by their token");
  m_.queries_deadline =
      registry_->GetCounter("smadb_queries_deadline_total",
                            "Queries that exceeded their deadline");
  m_.queries_degraded = registry_->GetCounter(
      "smadb_queries_degraded_total",
      "Queries answered through the degradation ladder");
  m_.rows_returned = registry_->GetCounter("smadb_rows_returned_total",
                                           "Result rows returned");
  m_.appends = registry_->GetCounter("smadb_appends_total",
                                     "Tuples appended through Insert");
  m_.buckets_qualifying =
      registry_->GetCounter("smadb_buckets_qualifying_total",
                            "Buckets graded qualifying (paper Fig. 4)");
  m_.buckets_disqualifying =
      registry_->GetCounter("smadb_buckets_disqualifying_total",
                            "Buckets graded disqualifying");
  m_.buckets_ambivalent = registry_->GetCounter(
      "smadb_buckets_ambivalent_total", "Buckets graded ambivalent");
  m_.query_latency_us = registry_->GetHistogram(
      "smadb_query_latency_us", "End-to-end query latency (microseconds)");
  m_.latch_wait_ns = registry_->GetHistogram(
      "smadb_latch_wait_ns",
      "Nanoseconds blocked per contended bucket-latch acquire");
  registry_->RegisterCallback(
      "smadb_sessions_active", "Client sessions currently open",
      [this] { return static_cast<int64_t>(sessions_active()); });
  // Latch counters summed over every table: how often readers and the
  // writer actually collided on a latch group.
  registry_->RegisterCallback(
      "smadb_latch_shared_acquires",
      "Shared latch-group acquires (one per morsel graded or group read)",
      [this] {
        int64_t n = 0;
        for (Table* t : catalog_->Tables()) {
          n += static_cast<int64_t>(t->latches()->stats().shared_acquires);
        }
        return n;
      });
  registry_->RegisterCallback(
      "smadb_latch_exclusive_acquires", "Exclusive bucket-latch acquires",
      [this] {
        int64_t n = 0;
        for (Table* t : catalog_->Tables()) {
          n += static_cast<int64_t>(t->latches()->stats().exclusive_acquires);
        }
        return n;
      });
  registry_->RegisterCallback(
      "smadb_latch_contended", "Bucket-latch acquires that had to block",
      [this] {
        int64_t n = 0;
        for (Table* t : catalog_->Tables()) {
          n += static_cast<int64_t>(t->latches()->stats().contended);
        }
        return n;
      });
  // The two engine-wide mutexes on the page-miss path, counted the same way.
  registry_->RegisterCallback(
      "smadb_pool_mutex_contended", "Buffer-pool mutex acquires that blocked",
      [this] {
        return static_cast<int64_t>(pool_->mutex_contention().contended);
      });
  registry_->RegisterCallback(
      "smadb_pool_mutex_wait_ns", "Nanoseconds blocked on the buffer-pool mutex",
      [this] {
        return static_cast<int64_t>(pool_->mutex_contention().wait_ns);
      });
  registry_->RegisterCallback(
      "smadb_disk_mutex_contended", "Backend mutex acquires that blocked",
      [this] {
        return static_cast<int64_t>(disk_->mutex_contention().contended);
      });
  registry_->RegisterCallback(
      "smadb_disk_mutex_wait_ns", "Nanoseconds blocked on the backend mutex",
      [this] {
        return static_cast<int64_t>(disk_->mutex_contention().wait_ns);
      });
  // Existing stat structs fold in as callback gauges — sampled at snapshot
  // time, zero cost on the query path.
  registry_->RegisterCallback(
      "smadb_pool_hits", "Buffer pool hits",
      [this] { return static_cast<int64_t>(pool_->stats().hits); });
  registry_->RegisterCallback(
      "smadb_pool_misses", "Buffer pool misses",
      [this] { return static_cast<int64_t>(pool_->stats().misses); });
  registry_->RegisterCallback(
      "smadb_pool_evictions", "Buffer pool evictions",
      [this] { return static_cast<int64_t>(pool_->stats().evictions); });
  registry_->RegisterCallback(
      "smadb_pool_checksum_failures", "Pages failing checksum verification",
      [this] {
        return static_cast<int64_t>(pool_->stats().checksum_failures);
      });
  registry_->RegisterCallback(
      "smadb_disk_page_reads", "Pages read from the storage backend",
      [this] { return static_cast<int64_t>(disk_->stats().page_reads); });
  // The seek mix of those reads, as the modeled disk classifies them: the
  // next page, a forward skip within kNearSeekWindowPages, or a full seek.
  registry_->RegisterCallback(
      "smadb_disk_sequential_reads", "Backend page reads of the next page",
      [this] {
        return static_cast<int64_t>(disk_->stats().sequential_reads);
      });
  registry_->RegisterCallback(
      "smadb_disk_near_reads", "Backend page reads after a short forward skip",
      [this] { return static_cast<int64_t>(disk_->stats().near_reads); });
  registry_->RegisterCallback(
      "smadb_disk_random_reads", "Backend page reads that needed a full seek",
      [this] { return static_cast<int64_t>(disk_->stats().random_reads); });
  registry_->RegisterCallback(
      "smadb_disk_page_writes", "Pages written to the storage backend",
      [this] { return static_cast<int64_t>(disk_->stats().page_writes); });
  registry_->RegisterCallback(
      "smadb_disk_syncs", "Durability barriers honored by the backend",
      [this] { return static_cast<int64_t>(disk_->stats().syncs); });
  // WAL/recovery gauges read through null-tolerant lambdas: the backend can
  // be swapped at runtime (`set storage = ...`), the registration cannot.
  registry_->RegisterCallback(
      "smadb_wal_appends_total", "Records appended to the WAL", [this] {
        return wal_ ? static_cast<int64_t>(wal_->stats().appends) : 0;
      });
  registry_->RegisterCallback(
      "smadb_wal_appended_bytes", "Bytes appended to the WAL", [this] {
        return wal_ ? static_cast<int64_t>(wal_->stats().appended_bytes) : 0;
      });
  registry_->RegisterCallback(
      "smadb_wal_syncs_total", "WAL fdatasync barriers", [this] {
        return wal_ ? static_cast<int64_t>(wal_->stats().syncs) : 0;
      });
  registry_->RegisterCallback(
      "smadb_checkpoints_total", "Checkpoints completed",
      [this] { return static_cast<int64_t>(durability_.checkpoints); });
  registry_->RegisterCallback(
      "smadb_recovery_replayed_records", "WAL records replayed at open",
      [this] { return static_cast<int64_t>(durability_.replayed_records); });
  registry_->RegisterCallback(
      "smadb_recovery_stale_smas", "SMAs left stale by crash recovery",
      [this] { return static_cast<int64_t>(durability_.stale_smas); });
  registry_->RegisterCallback(
      "smadb_memory_used_bytes", "Bytes charged to the global budget",
      [this] { return static_cast<int64_t>(global_memory_.used()); });
  registry_->RegisterCallback(
      "smadb_memory_peak_bytes", "High-water mark of the global budget",
      [this] { return static_cast<int64_t>(global_memory_.peak()); });
  registry_->RegisterCallback(
      "smadb_storage_read_only",
      "1 while the database is in read-only degraded mode",
      [this] { return read_only() ? int64_t{1} : int64_t{0}; });
  registry_->RegisterCallback(
      "smadb_queries_inflight", "Queries currently executing",
      [this] { return static_cast<int64_t>(query_registry_.size()); });
  registry_->RegisterCallback(
      "smadb_log_lines_total", "Structured log lines emitted",
      [this] { return static_cast<int64_t>(logger_.emitted()); });
  registry_->RegisterCallback(
      "smadb_log_dropped_total", "Log lines dropped by the rate limiter",
      [this] { return static_cast<int64_t>(logger_.dropped()); });
  registry_->RegisterCallback(
      "smadb_uptime_seconds", "Seconds since this database was opened",
      [this] { return static_cast<int64_t>(uptime_us() / 1000000); });
  m_.scrub_runs =
      registry_->GetCounter("smadb_scrub_runs_total", "Scrub passes run");
  m_.scrub_pages_scanned = registry_->GetCounter(
      "smadb_scrub_pages_scanned_total", "Pages CRC-checked by scrubs");
  m_.scrub_corrupt_pages = registry_->GetCounter(
      "smadb_scrub_corrupt_pages_total", "Corrupt pages found by scrubs");
  m_.scrub_smas_repaired = registry_->GetCounter(
      "smadb_scrub_smas_repaired_total", "SMAs rebuilt by scrub repairs");
}

void Database::AttachLatchMetrics(storage::Table* table) {
  if (m_.latch_wait_ns != nullptr) {
    table->latches()->set_wait_histogram(m_.latch_wait_ns);
  }
}

Result<Table*> Database::CreateTable(std::string name, storage::Schema schema,
                                     storage::TableOptions options) {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  SMADB_RETURN_NOT_OK(CheckWritable());
  storage::Wal::AppendMark mark;
  if (wal_ != nullptr) {
    // Validate before logging so failed statements never poison replay.
    if (catalog_->GetTable(name).ok()) {
      return Status::AlreadyExists("table '" + name + "' already exists");
    }
    std::string payload;
    storage::WalPutString(&payload, name);
    storage::WalPutU32(&payload, options.bucket_pages);
    storage::WalPutU32(&payload, static_cast<uint32_t>(schema.num_fields()));
    for (const storage::Field& f : schema.fields()) {
      storage::WalPutString(&payload, f.name);
      storage::WalPutString(&payload, util::TypeIdToString(f.type));
      storage::WalPutU32(&payload, f.capacity);
    }
    mark = wal_->Mark();
    SMADB_RETURN_NOT_OK(
        wal_->Append(WalRecordType::kCreateTable, payload).status());
  }
  Result<Table*> table_or =
      catalog_->CreateTable(name, std::move(schema), options);
  if (!table_or.ok()) return RollbackWalRecord(mark, table_or.status());
  Table* table = *table_or;
  AttachLatchMetrics(table);
  TableState state;
  state.smas = std::make_unique<sma::SmaSet>(table);
  state.maintainer =
      std::make_unique<sma::SmaMaintainer>(table, state.smas.get());
  {
    std::lock_guard<std::mutex> lock(states_mu_);
    states_.emplace(std::move(name), std::move(state));
  }
  SMADB_RETURN_NOT_OK(MaybeSyncWal());
  return table;
}

Result<Database::TableState*> Database::StateFor(std::string_view table) {
  std::lock_guard<std::mutex> lock(states_mu_);
  auto it = states_.find(std::string(table));
  if (it != states_.end()) return &it->second;
  // Tables loaded straight into the catalog (the tpch bulk loaders) get
  // their SMA state lazily on first reference, so they are queryable and
  // `define sma` works on them like on CreateTable'd ones. The returned
  // pointer stays valid without the lock: unordered_map values are stable.
  SMADB_ASSIGN_OR_RETURN(Table * t, catalog_->GetTable(table));
  AttachLatchMetrics(t);
  TableState state;
  state.smas = std::make_unique<sma::SmaSet>(t);
  state.maintainer =
      std::make_unique<sma::SmaMaintainer>(t, state.smas.get());
  auto [pos, inserted] = states_.emplace(std::string(table), std::move(state));
  (void)inserted;
  return &pos->second;
}

Status Database::Insert(std::string_view table,
                        const storage::TupleBuffer& tuple, Rid* rid) {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  SMADB_RETURN_NOT_OK(CheckWritable());
  SMADB_ASSIGN_OR_RETURN(TableState * state, StateFor(table));
  storage::Wal::AppendMark mark;
  if (wal_ != nullptr) {
    SMADB_ASSIGN_OR_RETURN(Table * t, catalog_->GetTable(table));
    if (tuple.size() != t->schema().tuple_size()) {
      return Status::InvalidArgument("tuple size does not match the schema");
    }
    // Log the *predicted* position and epoch so replay re-applies the insert
    // at the same absolute Rid no matter when the crash hits.
    SMADB_ASSIGN_OR_RETURN(Rid next, t->NextRid());
    std::string payload;
    storage::WalPutString(&payload, table);
    storage::WalPutU32(&payload, next.page_no);
    storage::WalPutU32(&payload, next.slot);
    storage::WalPutU64(&payload, t->epoch() + 1);
    storage::WalPutString(
        &payload,
        std::string_view(reinterpret_cast<const char*>(tuple.data()),
                         tuple.size()));
    mark = wal_->Mark();
    SMADB_RETURN_NOT_OK(
        wal_->Append(WalRecordType::kInsert, payload).status());
  }
  if (Status st = state->maintainer->Insert(tuple, rid); !st.ok()) {
    return NoteDiskFull(RollbackWalRecord(mark, std::move(st)));
  }
  if (m_.appends != nullptr) m_.appends->Inc();
  return MaybeSyncWal();
}

Status Database::Update(std::string_view table, Rid rid, size_t col,
                        const util::Value& v) {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  SMADB_RETURN_NOT_OK(CheckWritable());
  SMADB_ASSIGN_OR_RETURN(TableState * state, StateFor(table));
  storage::Wal::AppendMark mark;
  if (wal_ != nullptr) {
    SMADB_ASSIGN_OR_RETURN(Table * t, catalog_->GetTable(table));
    if (col >= t->schema().num_fields()) {
      return Status::InvalidArgument("update column out of range");
    }
    // The value token round-trips through the column's type at replay, so a
    // cross-family value must be rejected before it reaches the log.
    const util::TypeId ft = t->schema().field(col).type;
    if ((ft == util::TypeId::kString) != (v.type() == util::TypeId::kString) ||
        (ft == util::TypeId::kDouble) != (v.type() == util::TypeId::kDouble)) {
      return Status::InvalidArgument("update value type mismatch");
    }
    std::string payload;
    storage::WalPutString(&payload, table);
    storage::WalPutU32(&payload, rid.page_no);
    storage::WalPutU32(&payload, rid.slot);
    storage::WalPutU32(&payload, static_cast<uint32_t>(col));
    storage::WalPutU64(&payload, t->epoch() + 1);
    storage::WalPutString(&payload, EncodeManifestValue(v));
    mark = wal_->Mark();
    SMADB_RETURN_NOT_OK(
        wal_->Append(WalRecordType::kUpdate, payload).status());
  }
  if (Status st = state->maintainer->UpdateColumn(rid, col, v); !st.ok()) {
    return NoteDiskFull(RollbackWalRecord(mark, std::move(st)));
  }
  return MaybeSyncWal();
}

Status Database::Delete(std::string_view table, Rid rid) {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  SMADB_RETURN_NOT_OK(CheckWritable());
  SMADB_ASSIGN_OR_RETURN(TableState * state, StateFor(table));
  storage::Wal::AppendMark mark;
  if (wal_ != nullptr) {
    SMADB_ASSIGN_OR_RETURN(Table * t, catalog_->GetTable(table));
    std::string payload;
    storage::WalPutString(&payload, table);
    storage::WalPutU32(&payload, rid.page_no);
    storage::WalPutU32(&payload, rid.slot);
    storage::WalPutU64(&payload, t->epoch() + 1);
    mark = wal_->Mark();
    SMADB_RETURN_NOT_OK(
        wal_->Append(WalRecordType::kDelete, payload).status());
  }
  if (Status st = state->maintainer->Delete(rid); !st.ok()) {
    return NoteDiskFull(RollbackWalRecord(mark, std::move(st)));
  }
  return MaybeSyncWal();
}

Result<sma::SmaSet*> Database::Smas(std::string_view table) {
  SMADB_ASSIGN_OR_RETURN(TableState * state, StateFor(table));
  return state->smas.get();
}

Result<sma::SmaMaintainer*> Database::Maintainer(std::string_view table) {
  SMADB_ASSIGN_OR_RETURN(TableState * state, StateFor(table));
  return state->maintainer.get();
}

Result<plan::QueryResult> Database::Query(
    std::string_view text, std::shared_ptr<util::CancelToken> cancel) {
  SMADB_ASSIGN_OR_RETURN(const Statement stmt, ParseStatement(text));
  return Dispatch(stmt, std::move(cancel), nullptr);
}

Status Database::Execute(std::string_view text) {
  return Query(text).status();
}

SessionKnobs Database::DefaultKnobs() const {
  std::lock_guard<std::mutex> lock(knobs_mu_);
  SessionKnobs k;
  k.dop = options_.planner.degree_of_parallelism;
  k.timeout_ms = options_.timeout_ms;
  k.query_memory_limit = options_.query_memory_limit;
  k.allow_degraded = options_.planner.allow_degraded;
  return k;
}

std::unique_ptr<Session> Database::CreateSession() {
  const uint64_t id =
      next_session_id_.fetch_add(1, std::memory_order_relaxed);
  sessions_active_.fetch_add(1, std::memory_order_acq_rel);
  return std::unique_ptr<Session>(new Session(this, id, DefaultKnobs()));
}

Result<plan::QueryResult> Database::Dispatch(
    const Statement& stmt, std::shared_ptr<util::CancelToken> cancel,
    Session* session) {
  Status st;
  switch (stmt.kind) {
    case Statement::Kind::kSelect:
    case Statement::Kind::kExplain:
      return session != nullptr
                 ? RunSelect(stmt, std::move(cancel), session->knobs_,
                             session->id_)
                 : RunSelect(stmt, std::move(cancel), DefaultKnobs(), 0);
    case Statement::Kind::kShow:
      return RunShow(stmt.name);
    case Statement::Kind::kScrub:
      return RunScrub();
    case Statement::Kind::kSet:
      st = RunSet(stmt, session != nullptr ? &session->knobs_ : nullptr);
      break;
    case Statement::Kind::kDefineSma:
      st = RunDefineSma(stmt);
      break;
    case Statement::Kind::kKill:
      // Deliberately outside write_mu_: the point of a kill switch is
      // reaching a query while the writer (or the query itself, holding
      // write_mu_ through a scrub) is wedged.
      st = KillQuery(stmt.query_id);
      break;
  }
  if (!st.ok()) return st;
  return plan::QueryResult{};  // no table
}

Status Database::RunSet(const Statement& stmt, SessionKnobs* session) {
  // One row per knob: name, scope, value kind, apply. Session-scoped rows
  // change a SessionKnobs (the caller's session copy, or a copy of the
  // database defaults that is written back); the others change the
  // database. Integers are non-negative (the tokenizer has no negative
  // literals).
  struct Knob {
    std::string_view name;
    bool session_scoped;
    TokKind value;
    Status (*apply)(Database* db, SessionKnobs* knobs, const Token& v);
  };
  static constexpr Knob kKnobs[] = {
      {"dop", true, TokKind::kInt, SetKnob<&SessionKnobs::dop>},
      {"timeout_ms", true, TokKind::kInt, SetKnob<&SessionKnobs::timeout_ms>},
      {"memory_limit", true, TokKind::kInt,
       SetKnob<&SessionKnobs::query_memory_limit>},
      {"max_concurrent_queries", false, TokKind::kInt,
       [](Database* db, SessionKnobs*, const Token& v) {
         const auto n = static_cast<size_t>(v.value);
         {
           std::lock_guard<std::mutex> lock(db->knobs_mu_);
           db->options_.max_concurrent_queries = n;
         }
         db->admission_.SetMaxConcurrent(n);
         return Status::OK();
       }},
      {"allow_degraded", true, TokKind::kInt,
       SetKnob<&SessionKnobs::allow_degraded>},
      {"wal_sync_interval", false, TokKind::kInt,
       [](Database* db, SessionKnobs*, const Token& v) {
         std::lock_guard<std::mutex> lock(db->knobs_mu_);
         db->options_.wal_sync_interval = static_cast<size_t>(v.value);
         return Status::OK();
       }},
      {"slow_query_ms", false, TokKind::kInt,
       [](Database* db, SessionKnobs*, const Token& v) {
         std::lock_guard<std::mutex> lock(db->knobs_mu_);
         db->options_.slow_query_ms = v.value;
         return Status::OK();
       }},
      {"log_level", false, TokKind::kInt,
       [](Database* db, SessionKnobs*, const Token& v) {
         if (v.value > 3) {
           return Status::InvalidArgument(
               "log_level is 0..3 (debug/info/warn/error)");
         }
         db->logger_.set_min_level(static_cast<obs::LogLevel>(v.value));
         return Status::OK();
       }},
      {"storage", false, TokKind::kIdent,
       [](Database* db, SessionKnobs*, const Token& v) {
         if (v.text == "sim") {
           return db->SetStorageBackend(BackendKind::kSimulated);
         }
         if (v.text == "file") return db->SetStorageBackend(BackendKind::kFile);
         return Status::InvalidArgument("set storage expects 'sim' or 'file'");
       }},
      {"storage_path", false, TokKind::kString,
       [](Database* db, SessionKnobs*, const Token& v) {
         if (db->disk_->kind() == BackendKind::kFile) {
           return Status::InvalidArgument(
               "storage_path is fixed while the file backend is active; "
               "`set storage = sim` first");
         }
         db->options_.storage_path = v.text;
         return Status::OK();
       }},
  };
  const Knob* knob =
      std::find_if(std::begin(kKnobs), std::end(kKnobs), [&](const Knob& k) {
        return k.name == stmt.name && k.value == stmt.value.kind;
      });
  if (knob == std::end(kKnobs)) {
    std::string names;
    for (const Knob& k : kKnobs) {
      names += names.empty() ? "" : ", ";
      names += k.name;
    }
    return Status::InvalidArgument(
        "malformed set statement; expected 'set <knob> = <value>' with knob "
        "in {" + names + "}");
  }
  // A session's own knobs are private to it; everything else is shared
  // state, serialized with the writer lock.
  if (knob->session_scoped && session != nullptr) {
    return knob->apply(this, session, stmt.value);
  }
  std::lock_guard<std::mutex> write_lock(write_mu_);
  if (!knob->session_scoped) return knob->apply(this, nullptr, stmt.value);
  SessionKnobs defaults = DefaultKnobs();
  SMADB_RETURN_NOT_OK(knob->apply(this, &defaults, stmt.value));
  std::lock_guard<std::mutex> lock(knobs_mu_);
  options_.planner.degree_of_parallelism = defaults.dop;
  options_.timeout_ms = defaults.timeout_ms;
  options_.query_memory_limit = defaults.query_memory_limit;
  options_.planner.allow_degraded = defaults.allow_degraded;
  return Status::OK();
}

Status Database::RunDefineSma(const Statement& stmt) {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  SMADB_RETURN_NOT_OK(CheckWritable());
  SMADB_ASSIGN_OR_RETURN(Table * table, catalog_->GetTable(stmt.table));
  SMADB_ASSIGN_OR_RETURN(TableState * state, StateFor(stmt.table));
  // Parse first: a statement that cannot replay must not reach the log.
  SMADB_ASSIGN_OR_RETURN(sma::ParsedSmaDefinition def,
                         sma::ParseSmaDefinition(&table->schema(), stmt.text));
  storage::Wal::AppendMark mark;
  if (wal_ != nullptr) {
    std::string payload;
    storage::WalPutString(&payload, stmt.table);
    storage::WalPutString(&payload, stmt.text);
    mark = wal_->Mark();
    SMADB_RETURN_NOT_OK(
        wal_->Append(WalRecordType::kDefineSma, payload).status());
  }
  if (Status st = BuildAndAddSma(table, state->smas.get(),
                                 std::move(def.spec));
      !st.ok()) {
    return NoteDiskFull(RollbackWalRecord(mark, std::move(st)));
  }
  return MaybeSyncWal();
}

Result<plan::QueryResult> Database::RunScrub() {
  SMADB_ASSIGN_OR_RETURN(ScrubReport report, Scrub());
  std::vector<std::string> lines;
  lines.push_back(util::Format(
      "scanned: files=%llu pages=%llu",
      static_cast<unsigned long long>(report.files_scanned),
      static_cast<unsigned long long>(report.pages_scanned)));
  lines.push_back(util::Format(
      "corrupt_pages: %llu",
      static_cast<unsigned long long>(report.corrupt_pages)));
  for (const auto& [fname, count] : report.corrupt_files) {
    lines.push_back(util::Format(
        "  %s: %llu corrupt page(s)", fname.c_str(),
        static_cast<unsigned long long>(count)));
  }
  lines.push_back(util::Format(
      "smas: verified=%llu distrusted=%llu repaired=%llu%s",
      static_cast<unsigned long long>(report.smas_verified),
      static_cast<unsigned long long>(report.smas_distrusted),
      static_cast<unsigned long long>(report.smas_repaired),
      report.repairs_skipped_read_only ? " (repairs skipped: read-only)"
                                       : ""));
  for (const std::string& note : report.notes) {
    lines.push_back("note: " + note);
  }
  const bool clean = report.corrupt_pages == 0 &&
                     report.smas_distrusted == 0 && report.notes.empty();
  lines.push_back(clean ? "result: clean" : "result: findings reported");
  return TextResult("scrub", lines);
}

Result<plan::QueryResult> Database::RunSelect(
    const Statement& stmt, std::shared_ptr<util::CancelToken> cancel,
    const SessionKnobs& knobs, uint64_t session_id) {
  const uint64_t trace_id = stmt.trace_id;

  const uint64_t query_id =
      next_query_id_.fetch_add(1, std::memory_order_relaxed);
  obs::TraceSink* sink = options_.enable_metrics ? &trace_ : nullptr;

  // One governor per query: caller's cancel token (if any), the session
  // deadline, and a memory budget that is a child of the global tracker.
  // Everything reads the caller's knob snapshot — a concurrent `set` on
  // another session cannot change this query mid-flight.
  util::QueryContext ctx(&global_memory_, knobs.query_memory_limit,
                         std::move(cancel));
  if (knobs.timeout_ms > 0) ctx.set_timeout_ms(knobs.timeout_ms);
  plan::PlannerOptions popts;
  {
    std::lock_guard<std::mutex> lock(knobs_mu_);
    popts = options_.planner;
  }
  popts.degree_of_parallelism = knobs.dop;
  popts.allow_degraded = knobs.allow_degraded;

  ctx.set_trace_id(trace_id);

  // `explain analyze` hangs a profile off the context; operators see the
  // non-null pointer and start feeding their nodes. Plain queries keep a
  // null profile and the instrumentation costs one branch per feed site —
  // unless the slow-query log is armed, which profiles every query so a
  // slow one can be logged with its full report attached.
  const int64_t slow_ms = slow_query_ms();
  std::unique_ptr<obs::QueryProfile> profile;
  if (stmt.analyze || slow_ms > 0) {
    profile = std::make_unique<obs::QueryProfile>(query_id, trace_id);
    ctx.set_profile(profile.get());
  }

  // Live-query registration (declared after the profile so it unregisters
  // first — the registry may read the profile's row counts mid-run).
  obs::QueryRegistry::Guard live(
      options_.enable_metrics ? &query_registry_ : nullptr, query_id,
      trace_id, session_id, stmt.text, ctx.shared_cancel(),
      profile.get());

  // Storage deltas around the run make the profile's pool/disk figures
  // consistent with PoolStats (shared counters: concurrent queries overlap).
  const storage::PoolStats pool_before = pool_->stats();
  const storage::IoStats io_before = disk_->stats();

  util::Stopwatch latency_watch;
  Result<plan::QueryResult> result = [&]() -> Result<plan::QueryResult> {
    // Admission before any real work: run promptly or fail promptly.
    util::Stopwatch admit_watch;
    Result<AdmissionController::Slot> slot = [&] {
      obs::TraceSpan span(sink, query_id, "admission", trace_id);
      return admission_.Admit(session_id);
    }();
    SMADB_RETURN_NOT_OK(slot.status());
    obs::QueryProfile::Phase(
        profile.get(), "admission",
        static_cast<uint64_t>(admit_watch.ElapsedSeconds() * 1e9));
    return RunQuery(stmt, &ctx, popts, query_id, sink, trace_id, &live);
  }();

  // Per-query metrics; a disabled registry leaves every pointer null.
  if (m_.queries_total != nullptr) {
    m_.queries_total->Inc();
    m_.query_latency_us->Observe(
        static_cast<int64_t>(latency_watch.ElapsedMicros()));
    if (!result.ok()) {
      m_.queries_failed->Inc();
      if (result.status().code() == util::StatusCode::kCancelled) {
        m_.queries_cancelled->Inc();
      }
      if (result.status().code() == util::StatusCode::kDeadlineExceeded) {
        m_.queries_deadline->Inc();
      }
    } else {
      m_.rows_returned->Add(static_cast<int64_t>(result->rows.size()));
      m_.buckets_qualifying->Add(
          static_cast<int64_t>(result->plan.qualifying));
      m_.buckets_disqualifying->Add(
          static_cast<int64_t>(result->plan.disqualifying));
      m_.buckets_ambivalent->Add(
          static_cast<int64_t>(result->plan.ambivalent));
      if (result->plan.degraded || !ctx.DegradationNotes().empty()) {
        m_.queries_degraded->Inc();
      }
    }
  }
  if (sink != nullptr && !result.ok()) {
    const util::StatusCode code = result.status().code();
    if (code == util::StatusCode::kCancelled ||
        code == util::StatusCode::kDeadlineExceeded) {
      obs::TraceSpan span(sink, query_id,
                          code == util::StatusCode::kCancelled
                              ? "cancelled"
                              : "deadline_exceeded",
                          trace_id);
      span.set_note(std::string(result.status().message()));
    }
  }

  if (profile != nullptr) {
    profile->SetStorageDelta(pool_->stats().hits - pool_before.hits,
                             pool_->stats().misses - pool_before.misses,
                             disk_->stats().page_reads - io_before.page_reads);
    if (result.ok()) {
      profile->SetSummary(util::Format(
          "%s, dop=%zu%s",
          plan::PlanKindToString(result->plan.kind).data(),
          result->plan.dop,
          result->plan.degraded ? " (degraded: partial answer)" : ""));
    }
    // Slow-query log: WARN with the full report attached, so the 3 a.m.
    // grep lands on the plan and phase timings, not just "it was slow".
    const double elapsed_ms = latency_watch.ElapsedMicros() / 1000.0;
    if (slow_ms > 0 && elapsed_ms >= static_cast<double>(slow_ms)) {
      std::string report_text;
      for (const std::string& line : profile->Render()) {
        if (!report_text.empty()) report_text += '\n';
        report_text += line;
      }
      logger_.Warn(
          "slow_query",
          {{"query", query_id},
           {"trace", util::Format("%llx",
                                  static_cast<unsigned long long>(trace_id))},
           {"session", session_id},
           {"ms", elapsed_ms},
           {"threshold_ms", slow_ms},
           {"sql", stmt.text},
           {"status", result.ok() ? std::string("ok")
                                  : std::string(result.status().message())},
           {"profile", report_text}});
    }
    if (stmt.analyze) {
      std::vector<std::string> report = profile->Render();
      {
        std::lock_guard<std::mutex> lock(profile_mu_);
        last_profile_ = std::move(profile);
      }
      if (!result.ok()) return result;  // report stays under `show profile`
      plan::QueryResult out = TextResult("explain analyze", report);
      out.plan = result->plan;
      return out;
    }
    // Profiled only for the slow-query log (plain statement): the profile
    // dies here; `show profile` keeps reporting the last explain analyze.
  }

  if (!result.ok() || stmt.kind != Statement::Kind::kExplain) return result;
  return ExplainResult(result->plan);
}

Status Database::KillQuery(uint64_t query_id) {
  if (!query_registry_.Kill(query_id)) {
    return Status::NotFound(
        util::Format("no in-flight query with id %llu",
                     static_cast<unsigned long long>(query_id)));
  }
  logger_.Info("kill_query",
               {{"query", query_id}, {"result", "cancel_requested"}});
  return Status::OK();
}

uint64_t Database::uptime_us() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start_time_)
          .count());
}

std::vector<std::string> Database::LastProfile() const {
  std::lock_guard<std::mutex> lock(profile_mu_);
  if (last_profile_ == nullptr) return {};
  return last_profile_->Render();
}

Result<plan::QueryResult> Database::RunShow(std::string_view what) {
  if (what == "metrics") {
    std::vector<std::string> lines;
    for (const obs::MetricSnapshot& s : registry_->Snapshot()) {
      const std::string name =
          s.labels.empty() ? s.name : s.name + "{" + s.labels + "}";
      if (s.kind == obs::MetricSnapshot::Kind::kHistogram) {
        lines.push_back(util::Format(
            "%s: count=%lld sum=%lld p50=%.0f p95=%.0f p99=%.0f",
            name.c_str(), static_cast<long long>(s.count),
            static_cast<long long>(s.sum), s.p50, s.p95, s.p99));
      } else {
        lines.push_back(util::Format("%s = %lld", name.c_str(),
                                     static_cast<long long>(s.value)));
      }
    }
    if (lines.empty()) lines.push_back("(no metrics registered)");
    return TextResult("metrics", lines);
  }
  if (what == "profile") {
    std::vector<std::string> lines = LastProfile();
    if (lines.empty()) {
      lines.push_back(
          "no profiled query yet; run `explain analyze select ...`");
    }
    return TextResult("profile", lines);
  }
  if (what == "trace") {
    std::vector<std::string> lines;
    for (const obs::TraceEvent& e : trace_.Events()) {
      lines.push_back(util::Format(
          "[q%llu t%llx] %s start=%lluus dur=%lluus%s%s",
          static_cast<unsigned long long>(e.query_id),
          static_cast<unsigned long long>(e.trace_id), e.name.c_str(),
          static_cast<unsigned long long>(e.start_us),
          static_cast<unsigned long long>(e.duration_us),
          e.note.empty() ? "" : " ", e.note.c_str()));
    }
    if (lines.empty()) lines.push_back("(trace ring empty)");
    return TextResult("trace", lines);
  }
  if (what == "queries") {
    std::vector<std::string> lines;
    for (const obs::QueryInfo& q : query_registry_.Snapshot()) {
      lines.push_back(util::Format(
          "[q%llu t%llx] session=%llu phase=%s elapsed=%lluus rows=%llu%s "
          "sql=%s",
          static_cast<unsigned long long>(q.query_id),
          static_cast<unsigned long long>(q.trace_id),
          static_cast<unsigned long long>(q.session_id), q.phase.c_str(),
          static_cast<unsigned long long>(q.elapsed_us),
          static_cast<unsigned long long>(q.rows),
          q.cancel_requested ? " CANCELLING" : "", q.sql.c_str()));
    }
    if (lines.empty()) lines.push_back("(no queries in flight)");
    return TextResult("queries", lines);
  }
  if (what == "storage") return ShowStorage();
  return Status::NotSupported(
      "unknown show statement; supported: 'show metrics', 'show profile', "
      "'show trace', 'show queries', 'show storage'");
}

Result<plan::QueryResult> Database::ShowStorage() const {
  std::vector<std::string> lines;
  lines.push_back(
      util::Format("backend: %s", std::string(disk_->kind_name()).c_str()));
  lines.push_back("path: " + (options_.storage_path.empty()
                                  ? std::string("(in-memory)")
                                  : options_.storage_path));
  lines.push_back(read_only()
                      ? "mode: read-only (" + read_only_reason() + ")"
                      : std::string("mode: read-write"));
  const storage::IoStats& io = disk_->stats();
  lines.push_back(util::Format(
      "pages: reads=%llu writes=%llu fsyncs=%llu",
      static_cast<unsigned long long>(io.page_reads),
      static_cast<unsigned long long>(io.page_writes),
      static_cast<unsigned long long>(io.syncs)));
  if (wal_ == nullptr) {
    lines.push_back("wal: (none; simulated backend is not durable)");
    return TextResult("storage", lines);
  }
  lines.push_back(util::Format(
      "wal: size_bytes=%llu appends=%llu fsyncs=%llu next_lsn=%llu "
      "synced_lsn=%llu",
      static_cast<unsigned long long>(wal_->size_bytes()),
      static_cast<unsigned long long>(wal_->stats().appends),
      static_cast<unsigned long long>(wal_->stats().syncs),
      static_cast<unsigned long long>(wal_->next_lsn()),
      static_cast<unsigned long long>(wal_->synced_lsn())));
  const size_t sync_interval = [&] {
    std::lock_guard<std::mutex> lock(knobs_mu_);
    return options_.wal_sync_interval;
  }();
  lines.push_back(util::Format(
      "sync_policy: %s",
      sync_interval == 0
          ? "manual (SyncWal/Checkpoint only)"
          : util::Format("every %zu mutation(s)", sync_interval).c_str()));
  lines.push_back(util::Format(
      "checkpoint: last_lsn=%llu checkpoints=%llu",
      static_cast<unsigned long long>(wal_->base_lsn()),
      static_cast<unsigned long long>(durability_.checkpoints)));
  lines.push_back(util::Format(
      "recovery: tables=%llu replayed_records=%llu stale_smas=%llu "
      "orphan_sma_files=%llu duration_us=%llu",
      static_cast<unsigned long long>(durability_.recovered_tables),
      static_cast<unsigned long long>(durability_.replayed_records),
      static_cast<unsigned long long>(durability_.stale_smas),
      static_cast<unsigned long long>(durability_.orphan_sma_files),
      static_cast<unsigned long long>(durability_.recovery_us)));
  return TextResult("storage", lines);
}

Result<Database::ScrubReport> Database::Scrub() {
  // The repair pass rebuilds SMAs — a write — and even the census must not
  // race mutations, so a scrub runs as "the writer" for its duration.
  // Concurrent queries keep streaming (they take bucket latches, not this).
  std::lock_guard<std::mutex> write_lock(write_mu_);
  if (crashed_) return Status::Internal("database crashed; reopen to recover");
  // Stable view of the table states: pointers survive map growth, and
  // lazy StateFor inserts from reader threads can't invalidate iteration.
  std::vector<std::pair<std::string, TableState*>> table_states;
  {
    std::lock_guard<std::mutex> lock(states_mu_);
    table_states.reserve(states_.size());
    for (auto& [tname, state] : states_) {
      table_states.emplace_back(tname, &state);
    }
  }
  ScrubReport report;
  // Pass 1: CRC-check the at-rest bytes of every backend file against the
  // out-of-band sidecar. Reads bypass the buffer pool on purpose: the
  // sidecar covers the *stored* bytes, so dirty pool pages cause no false
  // positives, and a clean cache cannot mask rotted media either.
  std::vector<uint64_t> corrupt_by_file(disk_->NumFiles(), 0);
  for (storage::FileId id = 0; id < disk_->NumFiles(); ++id) {
    const std::string& fname = disk_->FileName(id);
    if (fname.empty()) continue;  // tombstone of a removed file
    const Result<uint32_t> npages = disk_->NumPages(id);
    if (!npages.ok()) {
      report.notes.push_back("file '" + fname + "': " +
                             std::string(npages.status().message()));
      continue;
    }
    ++report.files_scanned;
    for (uint32_t p = 0; p < *npages; ++p) {
      ++report.pages_scanned;
      storage::Page page;
      if (Status st = disk_->ReadPage(id, p, &page); !st.ok()) {
        ++corrupt_by_file[id];
        report.notes.push_back(util::Format(
            "file '%s' page %u unreadable: %s", fname.c_str(), p,
            std::string(st.message()).c_str()));
        continue;
      }
      const Result<uint32_t> want = disk_->PageChecksum(id, p);
      if (!want.ok() ||
          util::Crc32c(page.data, storage::kPageSize) != *want) {
        ++corrupt_by_file[id];
      }
    }
    if (corrupt_by_file[id] > 0) {
      report.corrupt_pages += corrupt_by_file[id];
      report.corrupt_files.emplace_back(fname, corrupt_by_file[id]);
    }
  }
  // Pass 2: condemn SMAs whose backing files hold corrupt pages (their
  // pool-cached pages may still read clean — the media copy is what rots;
  // Verify never re-trusts, so the flag sticks), then run the maintainer's
  // sampled content verification on every table.
  for (auto& [tname, state] : table_states) {
    for (sma::Sma* s : state->smas->mutable_all()) {
      for (size_t g = 0; g < s->num_groups(); ++g) {
        const storage::FileId fid = s->group_file(g)->file();
        if (fid < corrupt_by_file.size() && corrupt_by_file[fid] > 0) {
          s->MarkDistrusted("scrub: corrupt page(s) in '" +
                            disk_->FileName(fid) + "'");
          break;
        }
      }
    }
    report.smas_verified += state->smas->all().size();
    if (Result<size_t> failed = state->maintainer->VerifyAll(); !failed.ok()) {
      report.notes.push_back("verify '" + tname + "': " +
                             std::string(failed.status().message()));
    }
  }
  // Pass 3: census + repair. Rebuild() re-materializes exactly the
  // distrusted/stale SMAs; repairs are writes, so read-only mode reports
  // the findings without touching anything.
  for (auto& [tname, state] : table_states) {
    size_t broken = 0;
    for (const sma::Sma* s : state->smas->all()) {
      if (!s->trusted() || s->stale()) ++broken;
    }
    report.smas_distrusted += broken;
    if (broken == 0) continue;
    if (read_only()) {
      report.repairs_skipped_read_only = true;
      continue;
    }
    if (Status st = state->maintainer->Rebuild(); !st.ok()) {
      report.notes.push_back("rebuild '" + tname + "': " +
                             std::string(st.message()));
      continue;
    }
    size_t still = 0;
    for (const sma::Sma* s : state->smas->all()) {
      if (!s->trusted() || s->stale()) ++still;
    }
    report.smas_repaired += broken - still;
  }
  // Mirror the findings into the registry: run counters plus one gauge per
  // corrupt file (existing gauges zeroed first, so a later clean pass
  // retires stale findings).
  if (m_.scrub_runs != nullptr) {
    m_.scrub_runs->Inc();
    m_.scrub_pages_scanned->Add(static_cast<int64_t>(report.pages_scanned));
    m_.scrub_corrupt_pages->Add(static_cast<int64_t>(report.corrupt_pages));
    m_.scrub_smas_repaired->Add(static_cast<int64_t>(report.smas_repaired));
    for (auto& [name, gauge] : scrub_gauges_) gauge->Set(0);
    for (const auto& [fname, count] : report.corrupt_files) {
      // Labeled registration: the registry escapes the file name, so paths
      // holding quotes or backslashes stay exposition-format-clean.
      obs::Gauge* g = registry_->GetLabeledGauge(
          "smadb_scrub_corrupt_pages", {{"file", fname}},
          "Corrupt pages the last scrub found, per file");
      g->Set(static_cast<int64_t>(count));
      scrub_gauges_[fname] = g;
    }
  }
  return report;
}

Result<plan::QueryResult> Database::RunQuery(const Statement& stmt,
                                             util::QueryContext* ctx,
                                             const plan::PlannerOptions& popts,
                                             uint64_t query_id,
                                             obs::TraceSink* sink,
                                             uint64_t trace_id,
                                             obs::QueryRegistry::Guard* live) {
  util::Stopwatch parse_watch;
  if (live != nullptr) live->SetPhase("parse");
  Table* table = nullptr;
  Result<ParsedQuery> parsed_or = [&]() -> Result<ParsedQuery> {
    obs::TraceSpan span(sink, query_id, "parse", trace_id);
    SMADB_ASSIGN_OR_RETURN(table, catalog_->GetTable(stmt.table));
    return ParseQuery(&table->schema(), stmt.text);
  }();
  SMADB_RETURN_NOT_OK(parsed_or.status());
  ParsedQuery& parsed = *parsed_or;
  obs::QueryProfile::Phase(
      ctx->profile(), "parse",
      static_cast<uint64_t>(parse_watch.ElapsedSeconds() * 1e9));
  SMADB_ASSIGN_OR_RETURN(TableState * state, StateFor(parsed.table));

  if (live != nullptr) live->SetPhase("execute");
  obs::TraceSpan run_span(sink, query_id, "execute", trace_id);
  plan::Planner planner(state->smas.get(), popts);
  Result<plan::QueryResult> run = [&] {
    if (parsed.select_star) {
      plan::SelectQuery query;
      query.table = table;
      query.pred = parsed.pred;
      return planner.ExecuteSelect(query, ctx);
    }
    plan::AggQuery query;
    query.table = table;
    query.pred = parsed.pred;
    query.group_by = parsed.group_by;
    query.aggs = parsed.aggs;
    return planner.Execute(query, ctx);
  }();
  // Degradation rungs leave their notes on the context; mirror them into
  // the trace so `show trace` tells the lifecycle story on its own.
  const std::string notes = ctx->DegradationNotes();
  if (!notes.empty() && sink != nullptr) {
    obs::TraceSpan span(sink, query_id, "degraded", trace_id);
    span.set_note(notes);
  }
  if (!run.ok()) run_span.set_note(std::string(run.status().message()));
  return run;
}

Manifest Database::BuildManifest(uint64_t checkpoint_lsn) const {
  Manifest m;
  m.checkpoint_lsn = checkpoint_lsn;
  for (Table* t : catalog_->Tables()) {
    ManifestTable mt;
    mt.name = t->name();
    mt.bucket_pages = t->bucket_pages();
    mt.num_tuples = t->num_tuples();
    mt.num_deleted = t->num_deleted();
    mt.num_pages = t->num_pages();
    mt.epoch = t->epoch();
    for (const storage::Field& f : t->schema().fields()) {
      mt.fields.push_back(ManifestField{
          f.name, std::string(util::TypeIdToString(f.type)), f.capacity});
    }
    std::lock_guard<std::mutex> lock(states_mu_);
    if (auto it = states_.find(t->name()); it != states_.end()) {
      for (const sma::Sma* s : it->second.smas->all()) {
        ManifestSma ms;
        ms.name = s->spec().name;
        ms.func = std::string(sma::AggFuncToString(s->spec().func));
        ms.arg = s->spec().arg != nullptr ? s->spec().arg->ToString() : "";
        for (size_t c : s->spec().group_by) {
          ms.group_by.push_back(static_cast<uint32_t>(c));
        }
        ms.num_buckets = s->num_buckets();
        ms.built_epoch = s->built_epoch();
        ms.trusted = s->trusted();
        ms.distrust_reason = s->distrust_reason();
        for (size_t g = 0; g < s->num_groups(); ++g) {
          std::vector<std::string> key;
          for (const util::Value& v : s->group_key(g)) {
            key.push_back(EncodeManifestValue(v));
          }
          ms.groups.push_back(std::move(key));
        }
        mt.smas.push_back(std::move(ms));
      }
    }
    m.tables.push_back(std::move(mt));
  }
  return m;
}

Status Database::Recover() {
  util::Stopwatch watch;
  Manifest manifest;
  if (Result<Manifest> m = ReadManifest(ManifestPath()); m.ok()) {
    manifest = std::move(*m);
  } else if (m.status().code() != util::StatusCode::kNotFound) {
    return m.status();  // a corrupt manifest is not silently ignorable
  }
  // Phase 1: rebuild tables and SMA registries from the checkpoint snapshot.
  for (const ManifestTable& mt : manifest.tables) {
    SMADB_ASSIGN_OR_RETURN(storage::Schema schema, SchemaFromManifest(mt));
    SMADB_ASSIGN_OR_RETURN(
        std::unique_ptr<Table> restored,
        Table::Restore(pool_.get(), mt.name, schema,
                       storage::TableOptions{mt.bucket_pages}, mt.num_tuples,
                       mt.num_deleted, mt.num_pages, mt.epoch));
    SMADB_ASSIGN_OR_RETURN(Table * table,
                           catalog_->AttachTable(std::move(restored)));
    AttachLatchMetrics(table);
    TableState state;
    state.smas = std::make_unique<sma::SmaSet>(table);
    state.maintainer =
        std::make_unique<sma::SmaMaintainer>(table, state.smas.get());
    for (const ManifestSma& ms : mt.smas) {
      SMADB_ASSIGN_OR_RETURN(sma::AggFunc func, AggFuncFromString(ms.func));
      sma::SmaSpec spec;
      spec.name = ms.name;
      spec.func = func;
      if (!ms.arg.empty()) {
        SMADB_ASSIGN_OR_RETURN(spec.arg,
                               expr::ParseExpr(&table->schema(), ms.arg));
      }
      for (uint32_t c : ms.group_by) spec.group_by.push_back(c);
      std::vector<std::vector<util::Value>> keys;
      for (const std::vector<std::string>& enc : ms.groups) {
        if (enc.size() != ms.group_by.size()) {
          return Status::Corruption("SMA '" + ms.name +
                                    "': group key arity mismatch in manifest");
        }
        std::vector<util::Value> key;
        for (size_t i = 0; i < enc.size(); ++i) {
          if (ms.group_by[i] >= table->schema().num_fields()) {
            return Status::Corruption("SMA '" + ms.name +
                                      "': group column out of range");
          }
          SMADB_ASSIGN_OR_RETURN(
              util::Value v,
              DecodeManifestValue(table->schema().field(ms.group_by[i]).type,
                                  enc[i]));
          key.push_back(std::move(v));
        }
        keys.push_back(std::move(key));
      }
      SMADB_ASSIGN_OR_RETURN(
          std::unique_ptr<sma::Sma> restored_sma,
          sma::Sma::Restore(pool_.get(), table, std::move(spec), keys,
                            ms.num_buckets, ms.built_epoch, ms.trusted,
                            ms.distrust_reason));
      SMADB_RETURN_NOT_OK(state.smas->Add(std::move(restored_sma)));
    }
    {
      std::lock_guard<std::mutex> lock(states_mu_);
      states_.emplace(mt.name, std::move(state));
    }
    ++durability_.recovered_tables;
  }
  // Phase 1.5: sweep orphan SMA-files. SMA contents are derived data owned
  // by the checkpoint manifest, never the WAL, so a crash after `define
  // sma` was logged but before the next checkpoint leaves its SMA-files on
  // disk with no manifest entry. Replaying the define would then collide on
  // CreateFile. Every file a manifest entry owns was re-attached above, so
  // any other "sma."-named file is an orphan — remove it (the replayed
  // define rebuilds it from base data).
  {
    std::vector<char> attached(disk_->NumFiles(), 0);
    for (const auto& [name, state] : states_) {
      for (const sma::Sma* s : state.smas->all()) {
        for (size_t g = 0; g < s->num_groups(); ++g) {
          attached[s->group_file(g)->file()] = 1;
        }
      }
    }
    for (storage::FileId id = 0; id < attached.size(); ++id) {
      if (attached[id]) continue;
      const std::string& fname = disk_->FileName(id);
      if (fname.rfind("sma.", 0) != 0) continue;
      SMADB_RETURN_NOT_OK(pool_->DiscardFile(id));
      SMADB_RETURN_NOT_OK(disk_->RemoveFile(id));
      ++durability_.orphan_sma_files;
    }
  }
  // Phase 2: redo the post-checkpoint WAL suffix. Records below the
  // checkpoint horizon can exist after a crash between manifest write and
  // WAL reset; their effects are already in the checkpoint, so skip them.
  const uint64_t horizon = manifest.checkpoint_lsn;
  // A crash inside Wal::Reset can tear the checkpoint truncation: the
  // ftruncate persisted but the new header did not, so Wal::Open laid down
  // a fresh header whose LSNs restart at 1 while the manifest horizon stays
  // at the old value. Whether the log is that torn remnant or the pre-Reset
  // original, if no record reaches the horizon it holds nothing the
  // checkpoint lacks — re-seat it at the horizon before accepting writes,
  // so post-recovery appends can never land below the horizon and be
  // silently skipped by the next Recover.
  if (wal_->base_lsn() < horizon && wal_->next_lsn() <= horizon) {
    SMADB_RETURN_NOT_OK(wal_->Reset(horizon));
  }
  // Abort pre-pass: a record can reach the file (an eviction barrier ran
  // mid-apply) even though its apply then failed and the live instance
  // reported the mutation as failed; it logged a kAbort for it. Collect the
  // aborted LSNs first so the redo pass skips them.
  std::unordered_set<uint64_t> aborted;
  SMADB_RETURN_NOT_OK(wal_->Replay(
      [&](uint64_t, WalRecordType type, std::string_view payload) -> Status {
        if (type != WalRecordType::kAbort) return Status::OK();
        WalPayloadReader r(payload);
        uint64_t target = 0;
        if (!r.GetU64(&target)) {
          return Status::Corruption("truncated WAL abort record payload");
        }
        aborted.insert(target);
        return Status::OK();
      }));
  SMADB_RETURN_NOT_OK(wal_->Replay(
      [&](uint64_t lsn, WalRecordType type,
          std::string_view payload) -> Status {
        if (lsn < horizon) return Status::OK();
        if (type == WalRecordType::kAbort || aborted.count(lsn) > 0) {
          return Status::OK();
        }
        ++durability_.replayed_records;
        return ApplyWalRecord(type, payload);
      }));
  // Phase 3: replay redoes base data only — it does not maintain SMA files.
  // Any replayed mutation therefore leaves built-epochs behind, which the
  // planner already treats as "demote to plain scan" (SmaSet::TrustIssue);
  // count them so `show storage` reports the Rebuild debt.
  for (const auto& [name, state] : states_) {
    for (const sma::Sma* s : state.smas->all()) {
      if (s->stale() || !s->trusted()) ++durability_.stale_smas;
    }
  }
  durability_.recovery_us =
      static_cast<uint64_t>(watch.ElapsedSeconds() * 1e6);
  return Status::OK();
}

Status Database::ApplyWalRecord(WalRecordType type, std::string_view payload) {
  WalPayloadReader r(payload);
  const auto truncated = [] {
    return Status::Corruption("truncated WAL record payload");
  };
  switch (type) {
    case WalRecordType::kCreateTable: {
      std::string name;
      uint32_t bucket_pages = 0;
      uint32_t nfields = 0;
      if (!r.GetString(&name) || !r.GetU32(&bucket_pages) ||
          !r.GetU32(&nfields)) {
        return truncated();
      }
      std::vector<storage::Field> fields;
      fields.reserve(nfields);
      for (uint32_t i = 0; i < nfields; ++i) {
        std::string fname;
        std::string ftype;
        uint32_t cap = 0;
        if (!r.GetString(&fname) || !r.GetString(&ftype) || !r.GetU32(&cap)) {
          return truncated();
        }
        SMADB_ASSIGN_OR_RETURN(util::TypeId t, TypeIdFromString(ftype));
        fields.push_back(
            storage::Field{std::move(fname), t, static_cast<uint16_t>(cap)});
      }
      if (catalog_->GetTable(name).ok()) return Status::OK();  // idempotent
      storage::Schema schema{std::move(fields)};
      const storage::TableOptions topts{bucket_pages};
      // The segment file may survive the crash (pages flushed before it):
      // re-attach at zero counters and let the replayed inserts rebuild
      // them; otherwise create from scratch.
      if (disk_->FindFile("tbl." + name).ok()) {
        SMADB_ASSIGN_OR_RETURN(
            std::unique_ptr<Table> t,
            Table::Restore(pool_.get(), name, std::move(schema), topts, 0, 0,
                           0, 0));
        SMADB_RETURN_NOT_OK(catalog_->AttachTable(std::move(t)).status());
      } else {
        SMADB_RETURN_NOT_OK(
            catalog_->CreateTable(name, std::move(schema), topts).status());
      }
      return Status::OK();
    }
    case WalRecordType::kDefineSma: {
      std::string tname;
      std::string text;
      if (!r.GetString(&tname) || !r.GetString(&text)) return truncated();
      SMADB_ASSIGN_OR_RETURN(Table * t, catalog_->GetTable(tname));
      SMADB_ASSIGN_OR_RETURN(TableState * state, StateFor(tname));
      SMADB_ASSIGN_OR_RETURN(sma::ParsedSmaDefinition def,
                             sma::ParseSmaDefinition(&t->schema(), text));
      if (state->smas->Find(def.spec.name).ok()) return Status::OK();
      // Rebuilds the SMA from the base data as restored so far; later
      // replayed mutations will leave it stale, which phase 3 reports.
      return BuildAndAddSma(t, state->smas.get(), std::move(def.spec));
    }
    case WalRecordType::kInsert: {
      std::string tname;
      uint32_t page = 0;
      uint32_t slot = 0;
      uint64_t epoch = 0;
      std::string bytes;
      if (!r.GetString(&tname) || !r.GetU32(&page) || !r.GetU32(&slot) ||
          !r.GetU64(&epoch) || !r.GetString(&bytes)) {
        return truncated();
      }
      SMADB_ASSIGN_OR_RETURN(Table * t, catalog_->GetTable(tname));
      return t->ApplyInsert(Rid{page, static_cast<uint16_t>(slot)}, bytes,
                            epoch);
    }
    case WalRecordType::kUpdate: {
      std::string tname;
      uint32_t page = 0;
      uint32_t slot = 0;
      uint32_t col = 0;
      uint64_t epoch = 0;
      std::string token;
      if (!r.GetString(&tname) || !r.GetU32(&page) || !r.GetU32(&slot) ||
          !r.GetU32(&col) || !r.GetU64(&epoch) || !r.GetString(&token)) {
        return truncated();
      }
      SMADB_ASSIGN_OR_RETURN(Table * t, catalog_->GetTable(tname));
      if (col >= t->schema().num_fields()) {
        return Status::Corruption("WAL update column out of range");
      }
      SMADB_ASSIGN_OR_RETURN(
          util::Value v,
          DecodeManifestValue(t->schema().field(col).type, token));
      return t->ApplyUpdate(Rid{page, static_cast<uint16_t>(slot)}, col, v,
                            epoch);
    }
    case WalRecordType::kDelete: {
      std::string tname;
      uint32_t page = 0;
      uint32_t slot = 0;
      uint64_t epoch = 0;
      if (!r.GetString(&tname) || !r.GetU32(&page) || !r.GetU32(&slot) ||
          !r.GetU64(&epoch)) {
        return truncated();
      }
      SMADB_ASSIGN_OR_RETURN(Table * t, catalog_->GetTable(tname));
      return t->ApplyDelete(Rid{page, static_cast<uint16_t>(slot)}, epoch);
    }
    case WalRecordType::kAbort:
      // Replay filters abort records (and their targets) out before apply;
      // reaching here is harmless — the record carries no redo work.
      return Status::OK();
  }
  return Status::Corruption(
      util::Format("unknown WAL record type %u",
                   static_cast<unsigned>(type)));
}

Status Database::SetStorageBackend(BackendKind kind) {
  if (crashed_) return Status::Internal("database crashed; reopen to recover");
  SMADB_RETURN_NOT_OK(CheckWritable());
  if (kind == disk_->kind()) return Status::OK();
  if (!catalog_->Tables().empty()) {
    return Status::InvalidArgument(
        "set storage requires an empty database (tables exist; their pages "
        "live on the current backend)");
  }
  std::unique_ptr<storage::DiskBackend> disk;
  std::unique_ptr<storage::Wal> wal;
  if (kind == BackendKind::kFile) {
    if (options_.storage_path.empty()) {
      return Status::InvalidArgument(
          "set storage_path = '<dir>' before `set storage = file`");
    }
    SMADB_ASSIGN_OR_RETURN(std::unique_ptr<storage::FileDiskManager> fd,
                           storage::FileDiskManager::Open(
                               options_.storage_path));
    disk = std::move(fd);
    SMADB_ASSIGN_OR_RETURN(wal,
                           storage::Wal::Open(WalPath(options_.storage_path)));
  } else {
    disk = std::make_unique<storage::SimulatedDisk>();
  }
  // Tear down top-first (catalog holds pool pointers, pool holds the disk),
  // then rebuild over the new backend.
  {
    std::lock_guard<std::mutex> lock(states_mu_);
    states_.clear();
  }
  catalog_.reset();
  pool_.reset();
  wal_ = std::move(wal);
  disk_ = std::move(disk);
  storage::BufferPoolOptions pool_options{
      .capacity_pages = options_.pool_pages,
      .verify_checksums = options_.verify_checksums,
      .pin_tracker =
          options_.global_memory_limit > 0 ? &global_memory_ : nullptr,
      .pre_writeback = [this] { return SyncWal(); }};
  pool_ = std::make_unique<storage::BufferPool>(disk_.get(),
                                                std::move(pool_options));
  catalog_ = std::make_unique<storage::Catalog>(pool_.get());
  options_.storage_backend = kind;
  ops_since_sync_ = 0;
  // An existing directory recovers: the switch doubles as "attach".
  if (wal_ != nullptr) return Recover();
  return Status::OK();
}

plan::QueryResult TextResult(const std::string& column,
                             const std::vector<std::string>& lines) {
  // One wide text column; long lines are wrapped, never lost.
  constexpr uint16_t kWidth = 120;
  plan::QueryResult out;
  out.schema = std::make_shared<const storage::Schema>(
      std::vector<storage::Field>{storage::Field::String(column, kWidth)});
  for (const std::string& line : lines) {
    std::string_view rest = line;
    do {
      storage::TupleBuffer row(out.schema.get());
      row.SetString(0, rest.substr(0, kWidth));
      out.rows.push_back(std::move(row));
      rest = rest.size() > kWidth ? rest.substr(kWidth) : std::string_view();
    } while (!rest.empty());
  }
  return out;
}

plan::QueryResult ExplainResult(const plan::PlanChoice& plan) {
  std::vector<std::string> lines;
  lines.push_back(
      util::Format("plan: %s%s", plan::PlanKindToString(plan.kind).data(),
                   plan.degraded ? " (degraded: partial answer)" : ""));
  lines.push_back(util::Format(
      "buckets: qualifying=%llu disqualifying=%llu ambivalent=%llu "
      "fetch_fraction=%.3f",
      static_cast<unsigned long long>(plan.qualifying),
      static_cast<unsigned long long>(plan.disqualifying),
      static_cast<unsigned long long>(plan.ambivalent), plan.fetch_fraction));
  lines.push_back(util::Format("dop: %zu", plan.dop));
  // The explanation already carries the planner's reasoning plus the
  // governor annotations ("; governor: ...", degradation notes). Split the
  // "; "-joined clauses onto their own rows for readability (TextResult
  // wraps any still-long clause to the column width).
  std::string_view rest = plan.explanation;
  while (!rest.empty()) {
    const size_t cut = rest.find("; ");
    lines.emplace_back(cut == std::string_view::npos ? rest
                                                     : rest.substr(0, cut));
    rest = cut == std::string_view::npos ? std::string_view()
                                         : rest.substr(cut + 2);
  }

  plan::QueryResult out = TextResult("explain", lines);
  out.plan = plan;
  return out;
}

}  // namespace smadb::db
