// Fixed-size worker pool driving morsel-granular parallelism.
//
// The execution layer hands out *morsels* — runs of consecutive buckets,
// which the paper's §3.1 partitioning makes independently gradable and
// aggregatable — as work units, so the scheduling primitive is ParallelFor
// over an index range: workers claim the next unprocessed index through one
// atomic counter — the classic morsel-driven work-stealing loop — which
// self-balances skew from disqualified (zero-cost) vs ambivalent
// (full-fetch) buckets.

#ifndef SMADB_UTIL_THREAD_POOL_H_
#define SMADB_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/query_context.h"
#include "util/status.h"

namespace smadb::util {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 is allowed: every ParallelFor then
  /// runs inline on the caller).
  explicit ThreadPool(size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains the queue and joins all workers.
  ~ThreadPool();

  size_t num_threads() const { return threads_.size(); }

  /// Enqueues one task for any worker.
  void Submit(std::function<void()> task);

  /// Runs `fn(worker, index)` for every index in [begin, end).
  ///
  /// Up to `dop` claimants (the calling thread plus dop-1 pooled workers)
  /// pull indices from a shared atomic counter; each claimant sees a
  /// non-decreasing index sequence, so cursor-based consumers stay
  /// amortized-sequential. `worker` is a stable id in [0, dop) for
  /// indexing per-worker state. Stops claiming after the first error and
  /// returns it. dop <= 1 runs everything inline on the caller.
  ///
  /// `cancel` (optional) is the cooperative stop flag: once it trips, no
  /// further index is claimed — queued work is abandoned, in-flight
  /// invocations finish, and every worker has exited `fn` by the time this
  /// returns (a clean drain; no worker touches caller state afterwards).
  /// When cancellation stopped the loop before completion and no worker
  /// error occurred, the token's own status (kCancelled or
  /// kDeadlineExceeded) is returned.
  util::Status ParallelFor(
      uint64_t begin, uint64_t end, size_t dop,
      const std::function<util::Status(size_t worker, uint64_t index)>& fn,
      const CancelToken* cancel = nullptr);

  /// Process-wide pool shared by all query execution, sized
  /// DefaultDop() - 1 so that pool workers plus the calling thread use
  /// every hardware thread (minimum 1 worker, to exercise concurrency
  /// even on single-core hosts).
  static ThreadPool* Shared();

  /// std::thread::hardware_concurrency(), at least 1.
  static size_t DefaultDop();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace smadb::util

#endif  // SMADB_UTIL_THREAD_POOL_H_
