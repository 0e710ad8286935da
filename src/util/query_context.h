// Per-query runtime governor: cooperative cancellation, deadlines, and
// hierarchical memory budgets (DESIGN.md §10).
//
// The paper's headline claim is *predictable* latency; this file supplies
// the control plane that keeps it predictable under adversarial load. A
// QueryContext is threaded through the operator tree (Operator::
// BindContext) and consulted at bucket/batch granularity:
//
//   * CancelToken — one atomic flag (user cancel) plus an optional
//     steady-clock deadline (`set timeout_ms = <n>`). Operators call
//     Check() between buckets/batches; ParallelFor stops scheduling new
//     morsels once the token trips and drains the in-flight ones cleanly.
//   * MemoryTracker — byte budgets arranged global → query. GroupTable,
//     ColumnBatch, sort/build buffers, and BufferPool pins charge their
//     component; exceeding a budget yields kResourceExhausted with a
//     structured breakdown naming the offender, never an OOM kill.
//
// Everything is null-safe through the static helpers: an unbound operator
// (ctx == nullptr) runs ungoverned, which keeps every pre-existing call
// site and benchmark bit-identical.
//
// Failpoints (util/fault.h): "governor.cancel" fires inside CancelToken::
// Check (context = the checkpoint name) and delivers a cancellation at that
// exact point — how tests script "cancel arrives mid-retry".
// "governor.charge" fires inside MemoryTracker::TryCharge (context = the
// component) and simulates budget exhaustion — "budget exhausted mid-merge".

#ifndef SMADB_UTIL_QUERY_CONTEXT_H_
#define SMADB_UTIL_QUERY_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace smadb::obs {
class QueryProfile;  // obs/profile.h — util stays below obs in the layering
}

namespace smadb::util {

/// Cooperative cancellation: a thread-safe flag + optional deadline.
/// Cancel() may be called from any thread at any time; workers observe it
/// at their next checkpoint.
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Trips the token (user cancel). Idempotent, thread-safe.
  void Cancel() { cancelled_.store(true, std::memory_order_release); }

  /// Arms the deadline `timeout` from now; zero/negative trips immediately.
  void SetTimeout(std::chrono::milliseconds timeout) {
    SetDeadline(std::chrono::steady_clock::now() + timeout);
  }
  void SetDeadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ns_.store(deadline.time_since_epoch().count(),
                       std::memory_order_release);
  }
  /// Disarms the deadline (the governor's grace period for a cheap
  /// degraded answer after expiry). User cancellation stays in force.
  void ClearDeadline() { deadline_ns_.store(0, std::memory_order_release); }

  bool cancel_requested() const {
    return cancelled_.load(std::memory_order_acquire);
  }
  bool has_deadline() const {
    return deadline_ns_.load(std::memory_order_acquire) != 0;
  }
  bool deadline_expired() const {
    const int64_t d = deadline_ns_.load(std::memory_order_acquire);
    return d != 0 &&
           std::chrono::steady_clock::now().time_since_epoch().count() >= d;
  }

  /// One relaxed load + (when a deadline is armed) one clock read — cheap
  /// enough for bucket/batch granularity. True once the query should stop.
  bool ShouldStop() const { return cancel_requested() || deadline_expired(); }

  /// The checkpoint operators call between buckets/batches: OK while the
  /// query may proceed, kCancelled / kDeadlineExceeded naming `where`
  /// otherwise. Consults the "governor.cancel" failpoint (context =
  /// `where`) so tests can deliver a cancel at an exact site.
  Status Check(std::string_view where) const;

 private:
  std::atomic<bool> cancelled_{false};
  std::atomic<int64_t> deadline_ns_{0};  // steady_clock ns since epoch; 0=off
};

/// Hierarchical byte budget (global → query). Charges flow child → parent;
/// either level rejecting yields kResourceExhausted with a per-component
/// breakdown. Thread-safe: parallel workers charge concurrently.
class MemoryTracker {
 public:
  /// `limit_bytes` 0 = unlimited (track only). `parent` may be null.
  MemoryTracker(std::string name, size_t limit_bytes,
                MemoryTracker* parent = nullptr)
      : name_(std::move(name)), limit_(limit_bytes), parent_(parent) {}

  MemoryTracker(const MemoryTracker&) = delete;
  MemoryTracker& operator=(const MemoryTracker&) = delete;

  /// Releases anything still charged against the parent.
  ~MemoryTracker() { ReleaseAll(); }

  /// Attempts to charge `bytes` to `component` ("GroupTable",
  /// "ColumnBatch", ...). On rejection nothing is charged anywhere and the
  /// status names the component plus the full breakdown. Consults the
  /// "governor.charge" failpoint (context = `component`).
  Status TryCharge(size_t bytes, std::string_view component);

  /// Returns `bytes` of `component`'s charge (never below zero).
  void Release(size_t bytes, std::string_view component);

  /// Drops every charge (and returns it to the parent). Used between rungs
  /// of the degradation ladder so a rerun starts from a clean slate.
  void ReleaseAll();

  const std::string& name() const { return name_; }
  size_t limit() const { return limit_; }
  size_t used() const { return used_.load(std::memory_order_relaxed); }
  size_t peak() const { return peak_.load(std::memory_order_relaxed); }

  /// "query used=12.3 KB limit=8.0 KB (GroupTable=10.1 KB, sort=2.2 KB)".
  std::string Breakdown() const;

 private:
  const std::string name_;
  const size_t limit_;
  MemoryTracker* const parent_;
  std::atomic<size_t> used_{0};
  std::atomic<size_t> peak_{0};
  mutable std::mutex mu_;                      // guards by_component_
  std::map<std::string, size_t> by_component_;
};

/// The per-query control plane handed to the operator tree. Owns the
/// query's CancelToken (unless an external one is attached for cross-thread
/// cancellation) and its MemoryTracker (parented to the database's global
/// tracker). Also accumulates the degradation decisions the planner takes,
/// for the plan explanation.
class QueryContext {
 public:
  /// Ungoverned context: no deadline, unlimited memory.
  QueryContext() : QueryContext(nullptr, 0) {}

  /// `global_memory` may be null; `memory_limit_bytes` 0 = unlimited.
  /// `cancel` lets a caller cancel from another thread; a private token is
  /// created when null.
  QueryContext(MemoryTracker* global_memory, size_t memory_limit_bytes,
               std::shared_ptr<CancelToken> cancel = nullptr)
      : owned_cancel_(cancel != nullptr ? std::move(cancel)
                                        : std::make_shared<CancelToken>()),
        memory_("query", memory_limit_bytes, global_memory) {}

  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  CancelToken* cancel() { return owned_cancel_.get(); }
  const CancelToken* cancel() const { return owned_cancel_.get(); }
  /// The shared handle to the query's token — what the live-query registry
  /// keeps so `kill query <id>` stays safe even if the query finishes
  /// while the killer still holds the snapshot.
  std::shared_ptr<CancelToken> shared_cancel() const { return owned_cancel_; }
  MemoryTracker* memory() { return &memory_; }

  /// Request-scoped trace id (DESIGN.md §16): minted by net::Server per
  /// request or supplied by the client via the `trace <hex>` statement
  /// prefix; 0 = no request scope. Set once before execution starts.
  void set_trace_id(uint64_t id) { trace_id_ = id; }
  uint64_t trace_id() const { return trace_id_; }

  /// Attaches the query's execution profile (`explain analyze`; DESIGN.md
  /// §11). Carried as an opaque pointer so util stays below obs in the
  /// layering; operators and the planner feed it through obs/profile.h.
  /// Null (the default) means unprofiled — every feed site is one branch.
  void set_profile(obs::QueryProfile* profile) { profile_ = profile; }
  obs::QueryProfile* profile() const { return profile_; }

  /// Arms the session deadline (and records it for explanations); 0 = none.
  void set_timeout_ms(uint64_t ms) {
    timeout_ms_ = ms;
    if (ms > 0) {
      owned_cancel_->SetTimeout(
          std::chrono::milliseconds(static_cast<int64_t>(ms)));
    }
  }
  uint64_t timeout_ms() const { return timeout_ms_; }

  /// Records a degradation decision ("degraded to SMA-only ...").
  void NoteDegradation(std::string note);
  /// All decisions so far, "; "-joined (empty when none).
  std::string DegradationNotes() const;

  /// Between degradation rungs: drops all memory charges and lifts the
  /// deadline so the cheaper rerun gets a grace budget. User cancellation
  /// stays armed.
  void BeginDegradedRun(std::string note);

  /// "deadline=50ms, memory_limit=1.0 MB" — the explanation suffix; empty
  /// for a fully ungoverned context.
  std::string GovernorNote() const;

  // --- null-safe helpers (ctx == nullptr means ungoverned) -----------------

  /// Cooperative checkpoint; OK when `ctx` is null.
  static Status Check(const QueryContext* ctx, std::string_view where) {
    if (ctx == nullptr) return Status::OK();
    return ctx->owned_cancel_->Check(where);
  }

  /// Charges the query budget; OK when `ctx` is null.
  static Status Charge(QueryContext* ctx, size_t bytes,
                       std::string_view component) {
    if (ctx == nullptr || bytes == 0) return Status::OK();
    return ctx->memory_.TryCharge(bytes, component);
  }

 private:
  std::shared_ptr<CancelToken> owned_cancel_;
  MemoryTracker memory_;
  obs::QueryProfile* profile_ = nullptr;
  uint64_t trace_id_ = 0;
  uint64_t timeout_ms_ = 0;
  mutable std::mutex mu_;  // guards degradations_
  std::vector<std::string> degradations_;
};

/// Human-readable byte count ("1.5 MB") for budget diagnostics.
std::string FormatBytes(size_t bytes);

}  // namespace smadb::util

#endif  // SMADB_UTIL_QUERY_CONTEXT_H_
