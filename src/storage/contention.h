// Contention counters for the engine's shared locks: the bucket latches,
// the buffer-pool mutex and the backend mutex.
//
// An acquire tries the lock first and starts the clock only when the try
// fails, so an uncontended acquire pays one try-lock and no clock read. The
// counts make the next lock convoy visible on /metrics before it shows as
// latency.

#ifndef SMADB_STORAGE_CONTENTION_H_
#define SMADB_STORAGE_CONTENTION_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "obs/metrics.h"

namespace smadb::storage {

/// Acquires of one lock (or lock family) that found it held.
struct ContentionStats {
  /// Acquires that found the lock held and had to block.
  uint64_t contended = 0;
  /// Total nanoseconds spent blocked across contended acquires.
  uint64_t wait_ns = 0;
};

/// Counts the contended acquires of a lock and the time they block.
/// Thread-safe; the counters are relaxed atomics.
class ContentionCounter {
 public:
  /// Optional wait-time histogram (nanoseconds per contended acquire);
  /// null = counters only. Set once, before concurrency.
  void set_wait_histogram(obs::Histogram* h) { wait_histogram_ = h; }

  /// Completes `lock`, which was constructed with std::try_to_lock: if the
  /// try failed, blocks on it and records the wait.
  template <typename Lock>
  void Acquire(Lock& lock) {
    if (lock.owns_lock()) return;
    const auto t0 = std::chrono::steady_clock::now();
    lock.lock();
    const uint64_t ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    contended_.fetch_add(1, std::memory_order_relaxed);
    wait_ns_.fetch_add(ns, std::memory_order_relaxed);
    if (wait_histogram_ != nullptr) {
      wait_histogram_->Observe(static_cast<int64_t>(ns));
    }
  }

  ContentionStats stats() const {
    return {contended_.load(std::memory_order_relaxed),
            wait_ns_.load(std::memory_order_relaxed)};
  }

 private:
  std::atomic<uint64_t> contended_{0};
  std::atomic<uint64_t> wait_ns_{0};
  obs::Histogram* wait_histogram_ = nullptr;
};

}  // namespace smadb::storage

#endif  // SMADB_STORAGE_CONTENTION_H_
