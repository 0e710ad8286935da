// Per-query execution profile (DESIGN.md §11): a tree of OperatorProfile
// nodes mirroring the operator tree, filled in during the run and rendered
// as the `explain analyze` report.
//
// Lifecycle: Database creates a QueryProfile for `explain analyze`
// statements and hangs it off the QueryContext. Operators register a node
// at BindContext time via ProfileScope (serial — binding walks the tree
// top-down, so a simple current-parent pointer gives correct nesting) and
// feed it during execution via relaxed atomics (parallel morsel workers
// write concurrently). A null profile costs one pointer test per feed site;
// profiling is strictly opt-in.
//
// Wall-time semantics are *inclusive*: a pipeline breaker's Init consumes
// its children, so the parent's wall time contains the children's. This
// matches the pull model — exclusive times would need per-edge clocks for
// no diagnostic gain.
//
// The degradation ladder builds a fresh operator tree per rung; each
// attempt registers fresh nodes (failed attempts stay in the report, marked
// failed), so per-worker SmaScanStats merge into exactly one node exactly
// once per attempt.

#ifndef SMADB_OBS_PROFILE_H_
#define SMADB_OBS_PROFILE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace smadb::obs {

class QueryProfile;

/// One operator's runtime tallies. Feed methods are thread-safe (relaxed
/// atomics); structure (children) is built serially at bind time.
class OperatorProfile {
 public:
  explicit OperatorProfile(std::string name) : name_(std::move(name)) {}
  OperatorProfile(const OperatorProfile&) = delete;
  OperatorProfile& operator=(const OperatorProfile&) = delete;

  void AddRows(uint64_t n) { rows_.fetch_add(n, std::memory_order_relaxed); }
  void AddBatches(uint64_t n) {
    batches_.fetch_add(n, std::memory_order_relaxed);
  }
  void AddWallNs(uint64_t ns) {
    wall_ns_.fetch_add(ns, std::memory_order_relaxed);
  }
  void AddPagesRead(uint64_t n) {
    pages_read_.fetch_add(n, std::memory_order_relaxed);
  }
  void AddBuckets(uint64_t qualifying, uint64_t disqualifying,
                  uint64_t ambivalent) {
    qualifying_.fetch_add(qualifying, std::memory_order_relaxed);
    disqualifying_.fetch_add(disqualifying, std::memory_order_relaxed);
    ambivalent_.fetch_add(ambivalent, std::memory_order_relaxed);
  }
  void AddBucketsSkipped(uint64_t n) {
    buckets_skipped_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Records a memory high-water mark (max, not sum).
  void NotePeakBytes(uint64_t bytes) {
    uint64_t cur = peak_bytes_.load(std::memory_order_relaxed);
    while (bytes > cur && !peak_bytes_.compare_exchange_weak(
                              cur, bytes, std::memory_order_relaxed)) {
    }
  }
  /// Free-form per-operator annotation ("groups=4 dop=8").
  void SetDetail(std::string detail);
  /// Marks this attempt's node failed (degradation ladder reruns register
  /// a fresh node; the failed one keeps its partial census).
  void MarkFailed(std::string why);

  const std::string& name() const { return name_; }
  uint64_t rows() const { return rows_.load(std::memory_order_relaxed); }
  uint64_t batches() const { return batches_.load(std::memory_order_relaxed); }
  uint64_t wall_ns() const { return wall_ns_.load(std::memory_order_relaxed); }
  uint64_t pages_read() const {
    return pages_read_.load(std::memory_order_relaxed);
  }
  uint64_t qualifying() const {
    return qualifying_.load(std::memory_order_relaxed);
  }
  uint64_t disqualifying() const {
    return disqualifying_.load(std::memory_order_relaxed);
  }
  uint64_t ambivalent() const {
    return ambivalent_.load(std::memory_order_relaxed);
  }
  uint64_t buckets_skipped() const {
    return buckets_skipped_.load(std::memory_order_relaxed);
  }
  uint64_t peak_bytes() const {
    return peak_bytes_.load(std::memory_order_relaxed);
  }
  bool failed() const { return failed_.load(std::memory_order_relaxed); }
  std::string detail() const;
  const std::vector<OperatorProfile*>& children() const { return children_; }

 private:
  friend class QueryProfile;

  const std::string name_;
  std::atomic<uint64_t> rows_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> wall_ns_{0};
  std::atomic<uint64_t> pages_read_{0};
  std::atomic<uint64_t> qualifying_{0};
  std::atomic<uint64_t> disqualifying_{0};
  std::atomic<uint64_t> ambivalent_{0};
  std::atomic<uint64_t> buckets_skipped_{0};
  std::atomic<uint64_t> peak_bytes_{0};
  std::atomic<bool> failed_{false};
  mutable std::mutex mu_;  // guards detail_
  std::string detail_;
  std::vector<OperatorProfile*> children_;  // bind-time only
};

/// The whole query's profile: operator tree + lifecycle phase timings +
/// notable events (degradation, cancellation) + query-level storage deltas.
class QueryProfile {
 public:
  explicit QueryProfile(uint64_t query_id = 0, uint64_t trace_id = 0)
      : query_id_(query_id), trace_id_(trace_id) {}
  QueryProfile(const QueryProfile&) = delete;
  QueryProfile& operator=(const QueryProfile&) = delete;

  /// Creates a node under the current parent (bind-time; see ProfileScope).
  OperatorProfile* NewNode(std::string name);

  /// Adds elapsed time to a named lifecycle phase (admission/parse/plan/
  /// execute); repeated phases (ladder reruns) accumulate.
  void AddPhaseNs(std::string_view phase, uint64_t ns);
  /// Records a notable event ("demoted to sequential scan: ...").
  void AddEvent(std::string note);
  /// One-line plan summary shown at the top of the report.
  void SetSummary(std::string summary);
  /// Buffer-pool / disk activity attributed to this query (deltas captured
  /// by Database around the run, so they are consistent with PoolStats).
  void SetStorageDelta(uint64_t pool_hits, uint64_t pool_misses,
                       uint64_t pages_read);

  uint64_t query_id() const { return query_id_; }
  uint64_t trace_id() const { return trace_id_; }
  const std::vector<OperatorProfile*>& roots() const { return roots_; }
  /// Rows produced so far by the root operators — safe to call from another
  /// thread mid-run (locks the structure mutex, reads relaxed atomics).
  /// This is the "rows so far" column of `show queries`.
  uint64_t RootRows() const;
  uint64_t pool_hits() const { return pool_hits_; }
  uint64_t pool_misses() const { return pool_misses_; }
  uint64_t pages_read() const { return pages_read_; }
  /// Accumulated ns for `phase`; 0 when the phase never ran.
  uint64_t PhaseNs(std::string_view phase) const;
  std::vector<std::string> events() const;

  /// The `explain analyze` report, one line per vector entry.
  std::vector<std::string> Render() const;

  // --- null-safe helpers (profile == nullptr means unprofiled) -------------
  static void Event(QueryProfile* p, std::string note) {
    if (p != nullptr) p->AddEvent(std::move(note));
  }
  static void Phase(QueryProfile* p, std::string_view phase, uint64_t ns) {
    if (p != nullptr) p->AddPhaseNs(phase, ns);
  }

 private:
  friend class ProfileScope;

  const uint64_t query_id_;
  const uint64_t trace_id_;
  mutable std::mutex mu_;  // guards nodes_/roots_/phases_/events_/summary_
  std::deque<OperatorProfile> nodes_;  // stable addresses
  std::vector<OperatorProfile*> roots_;
  OperatorProfile* current_parent_ = nullptr;
  std::vector<std::pair<std::string, uint64_t>> phases_;
  std::vector<std::string> events_;
  std::string summary_;
  uint64_t pool_hits_ = 0;
  uint64_t pool_misses_ = 0;
  uint64_t pages_read_ = 0;
};

/// Bind-time RAII: registers a node for one operator and makes it the
/// parent of nodes registered while the scope lives, so children bound
/// inside the scope nest beneath it. Null profile → no-op, *out = nullptr.
class ProfileScope {
 public:
  ProfileScope(QueryProfile* profile, const char* name, OperatorProfile** out);
  ~ProfileScope();
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  QueryProfile* profile_;
  OperatorProfile* saved_parent_ = nullptr;
};

/// Adds the scope's elapsed wall time to a node (null-safe, ~two clock
/// reads when profiled, one branch when not).
class OpTimer {
 public:
  explicit OpTimer(OperatorProfile* node) : node_(node) {
    if (node_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~OpTimer() {
    if (node_ != nullptr) {
      node_->AddWallNs(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start_)
              .count()));
    }
  }
  OpTimer(const OpTimer&) = delete;
  OpTimer& operator=(const OpTimer&) = delete;

 private:
  OperatorProfile* node_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace smadb::obs

#endif  // SMADB_OBS_PROFILE_H_
