// Concurrency matrix (DESIGN.md §14): reader sessions x appender sessions
// x online scrub x checkpoint, all against one shared Database. Every test
// here is an invariant that must hold under arbitrary interleavings, so the
// whole suite runs under ThreadSanitizer in CI (label `concurrency`):
//
//   - snapshot consistency: a scan never observes a half-applied append
//     (sum/count agree with *some* prefix of the insert order);
//   - SMA soundness online: a fixed-range query whose rows the appenders
//     never touch returns the exact pre-computed answer throughout;
//   - scrub and checkpoint are safe to run while readers and appenders
//     stream (the §13 scrubber latches buckets, the checkpointer holds the
//     writer lock);
//   - session `set` statements scope to the issuing session;
//   - session-aware admission never self-deadlocks a session.
//
// Thread counts and durations are deliberately small: TSan slows execution
// ~10x and CI runners are modest; the interleavings, not the volume, are
// what these tests hunt.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "db/session.h"
#include "tests/test_util.h"
#include "util/status.h"

namespace smadb::testing {
namespace {

using db::Database;
using db::DatabaseOptions;
using db::Session;

// Every appended row carries k = 7 and v = 21, so any snapshot-consistent
// scan must report sum(k) == 7 * count and sum(v) == 21 * count. A torn
// append (tuple visible before its bytes, or a count published before the
// page write) breaks the ratio.
constexpr int64_t kK = 7;
constexpr int64_t kV = 21;

void FillRow(storage::TupleBuffer* buf, int32_t day) {
  buf->SetInt64(0, kK);
  buf->SetDate(1, util::Date(day));
  buf->SetDecimal(2, util::Decimal(kV));
  buf->SetString(3, "A");
  buf->SetString(4, "MAIL");
}

/// Seeds `n` rows with days in [0, n/8] — the "cold" region appenders never
/// touch (they write day >= 5000).
void SeedRows(Database* db, int64_t n) {
  storage::Table* t = Unwrap(db->GetTable("t"));
  storage::TupleBuffer buf(&t->schema());
  for (int64_t i = 0; i < n; ++i) {
    FillRow(&buf, static_cast<int32_t>(i / 8));
    ExpectOk(db->Insert("t", buf));
  }
}

struct ConcurrencyTest : ::testing::Test {
  ConcurrencyTest() {
    table = Unwrap(database.CreateTable("t", SyntheticSchema()));
    SeedRows(&database, kSeedRows);
    ExpectOk(database.Execute("define sma mn select min(d) from t"));
    ExpectOk(database.Execute("define sma mx select max(d) from t"));
  }

  static constexpr int64_t kSeedRows = 2000;

  Database database;
  storage::Table* table = nullptr;
};

// ---------------------------------------------------------------------------
// Snapshot consistency: readers x appenders.

TEST_F(ConcurrencyTest, ReadersHoldSnapshotConsistencyWhileAppendersStream) {
  constexpr int kReaders = 2;
  constexpr int kAppenders = 2;
  constexpr int64_t kPerAppender = 600;

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::string> errors(kReaders);

  std::vector<std::thread> threads;
  for (int a = 0; a < kAppenders; ++a) {
    threads.emplace_back([this, a] {
      std::unique_ptr<Session> s = database.CreateSession();
      storage::TupleBuffer buf(&table->schema());
      for (int64_t i = 0; i < kPerAppender; ++i) {
        FillRow(&buf, static_cast<int32_t>(5000 + a * 1000 + i / 8));
        ExpectOk(s->Insert("t", buf));
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([this, &stop, &failures, &errors, r] {
      std::unique_ptr<Session> s = database.CreateSession();
      int64_t last_count = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        auto res = s->Query("select sum(k), count(*) from t");
        if (!res.ok()) {
          errors[r] = res.status().ToString();
          ++failures;
          return;
        }
        const auto row = res->rows[0].AsRef();
        const int64_t sum_k = row.GetInt64(0);
        const int64_t count = row.GetInt64(1);
        if (sum_k != kK * count || count < last_count ||
            count < kSeedRows ||
            count > kSeedRows + kAppenders * kPerAppender) {
          errors[r] = "inconsistent snapshot: sum(k)=" +
                      std::to_string(sum_k) +
                      " count=" + std::to_string(count);
          ++failures;
          return;
        }
        last_count = count;  // appends only: visible count is monotonic
      }
    });
  }
  for (int i = 0; i < kAppenders; ++i) threads[i].join();
  stop.store(true, std::memory_order_relaxed);
  for (size_t i = kAppenders; i < threads.size(); ++i) threads[i].join();

  EXPECT_EQ(failures.load(), 0) << errors[0] << " " << errors[1];
  auto final_res = Unwrap(database.Query("select count(*) from t"));
  EXPECT_EQ(final_res.rows[0].AsRef().GetInt64(0),
            kSeedRows + kAppenders * kPerAppender);
}

TEST_F(ConcurrencyTest, FixedRangeAnswersStayExactUnderAppends) {
  // The seeded region (day <= ~250) is disjoint from everything the
  // appenders write (day >= 5000), so this SMA-graded range query has one
  // correct answer for the whole run — any drift means a boundary bucket
  // was graded from a stale or torn SMA entry.
  const std::string q =
      "select sum(k), count(*) from t where d <= '1971-01-01'";
  auto expected = Unwrap(database.Query(q));
  const int64_t want_sum = expected.rows[0].AsRef().GetInt64(0);
  const int64_t want_count = expected.rows[0].AsRef().GetInt64(1);
  ASSERT_EQ(want_count, kSeedRows);

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread appender([this] {
    std::unique_ptr<Session> s = database.CreateSession();
    storage::TupleBuffer buf(&table->schema());
    for (int64_t i = 0; i < 1200; ++i) {
      FillRow(&buf, static_cast<int32_t>(5000 + i / 8));
      ExpectOk(s->Insert("t", buf));
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([this, &stop, &failures, &q, want_sum, want_count] {
      std::unique_ptr<Session> s = database.CreateSession();
      while (!stop.load(std::memory_order_relaxed)) {
        auto res = s->Query(q);
        if (!res.ok() ||
            res->rows[0].AsRef().GetInt64(0) != want_sum ||
            res->rows[0].AsRef().GetInt64(1) != want_count) {
          ++failures;
          return;
        }
      }
    });
  }
  appender.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---------------------------------------------------------------------------
// The full matrix: readers x appenders x scrub x checkpoint, file-backed.

TEST(ConcurrencyMatrixTest, ScrubAndCheckpointRaceReadersAndAppenders) {
  ScopedTempDir dir;
  DatabaseOptions options;
  options.storage_backend = storage::BackendKind::kFile;
  options.storage_path = dir.path;
  options.wal_sync_interval = 8;  // group commit in play
  std::unique_ptr<Database> db = Unwrap(Database::Open(std::move(options)));
  storage::Table* table = Unwrap(db->CreateTable("t", SyntheticSchema()));
  SeedRows(db.get(), 800);
  ExpectOk(db->Execute("define sma mn select min(d) from t"));
  ExpectOk(db->Execute("define sma mx select max(d) from t"));

  constexpr int64_t kAppends = 800;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::thread appender([&] {
    std::unique_ptr<Session> s = db->CreateSession();
    storage::TupleBuffer buf(&table->schema());
    for (int64_t i = 0; i < kAppends; ++i) {
      FillRow(&buf, static_cast<int32_t>(5000 + i / 8));
      ExpectOk(s->Insert("t", buf));
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      std::unique_ptr<Session> s = db->CreateSession();
      while (!stop.load(std::memory_order_relaxed)) {
        auto res = s->Query("select sum(k), count(*) from t");
        if (!res.ok() || res->rows[0].AsRef().GetInt64(0) !=
                             kK * res->rows[0].AsRef().GetInt64(1)) {
          ++failures;
          return;
        }
      }
    });
  }
  std::thread scrubber([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto report = db->Scrub();
      if (!report.ok() || report->corrupt_pages != 0) {
        ++failures;
        return;
      }
    }
  });
  std::thread checkpointer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (!db->Checkpoint().ok()) {
        ++failures;
        return;
      }
    }
  });

  appender.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  scrubber.join();
  checkpointer.join();
  EXPECT_EQ(failures.load(), 0);

  // Clean close then reopen: every acknowledged append must survive.
  ExpectOk(db->Close());
  db.reset();
  DatabaseOptions reopen;
  reopen.storage_backend = storage::BackendKind::kFile;
  reopen.storage_path = dir.path;
  std::unique_ptr<Database> back = Unwrap(Database::Open(std::move(reopen)));
  auto res = Unwrap(back->Query("select sum(k), count(*) from t"));
  EXPECT_EQ(res.rows[0].AsRef().GetInt64(1), 800 + kAppends);
  EXPECT_EQ(res.rows[0].AsRef().GetInt64(0), kK * (800 + kAppends));
}

// ---------------------------------------------------------------------------
// Session scoping and lifecycle.

TEST_F(ConcurrencyTest, SessionSetScopesToTheIssuingSession) {
  std::unique_ptr<Session> s1 = database.CreateSession();
  std::unique_ptr<Session> s2 = database.CreateSession();

  ExpectOk(s1->Execute("set dop = 1"));
  ExpectOk(s1->Execute("set timeout_ms = 1234"));
  ExpectOk(s1->Execute("set memory_limit = 1048576"));
  ExpectOk(s1->Execute("set allow_degraded = 0"));
  EXPECT_EQ(s1->knobs().dop, 1u);
  EXPECT_EQ(s1->knobs().timeout_ms, 1234);
  EXPECT_EQ(s1->knobs().query_memory_limit, 1048576u);
  EXPECT_FALSE(s1->knobs().allow_degraded);

  // Neither the sibling session nor the database defaults moved.
  EXPECT_NE(s2->knobs().timeout_ms, 1234);
  EXPECT_TRUE(s2->knobs().allow_degraded);
  EXPECT_NE(database.timeout_ms(), 1234);
  EXPECT_TRUE(database.options().planner.allow_degraded);

  // Queries still run under the session's private knobs.
  auto res = Unwrap(s1->Query("select count(*) from t"));
  EXPECT_EQ(res.rows[0].AsRef().GetInt64(0), kSeedRows);

  // Global knobs forward through the session to the shared engine.
  ExpectOk(s1->Execute("set max_concurrent_queries = 3"));
  EXPECT_EQ(database.max_concurrent_queries(), 3u);

  // Malformed `set`s surface the Database's diagnostics unchanged.
  EXPECT_EQ(s1->Execute("set no_such_knob = 1").code(),
            util::StatusCode::kInvalidArgument);
}

TEST_F(ConcurrencyTest, SessionsActiveGaugeTracksLifetimes) {
  EXPECT_EQ(database.sessions_active(), 0u);
  {
    std::unique_ptr<Session> a = database.CreateSession();
    std::unique_ptr<Session> b = database.CreateSession();
    EXPECT_EQ(database.sessions_active(), 2u);
    EXPECT_NE(a->id(), b->id());
  }
  EXPECT_EQ(database.sessions_active(), 0u);
}

TEST_F(ConcurrencyTest, SessionRunsQueriesUnderAdmissionWithoutSelfDeadlock) {
  // cap = 1: a second query from the same session while the cap is consumed
  // by that session must be re-entrantly admitted, not queued behind itself.
  ExpectOk(database.Execute("set max_concurrent_queries = 1"));
  std::unique_ptr<Session> s = database.CreateSession();
  for (int i = 0; i < 4; ++i) {
    auto res = Unwrap(s->Query("select count(*) from t"));
    EXPECT_EQ(res.rows[0].AsRef().GetInt64(0), kSeedRows);
  }
}

TEST_F(ConcurrencyTest, ConcurrentSessionsMixQueriesAndKnobChanges) {
  // `set` storms from one session must never corrupt queries running in
  // others: each query snapshots its knobs at admission.
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread tuner([this, &stop] {
    std::unique_ptr<Session> s = database.CreateSession();
    size_t dop = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      ExpectOk(s->Execute("set dop = " + std::to_string(dop)));
      ExpectOk(s->Execute("set memory_limit = " +
                          std::to_string((64 << 20) << (dop % 3))));
      dop = dop % 4 + 1;
      auto res = s->Query("select sum(k), count(*) from t");
      if (!res.ok()) return;
    }
  });
  std::vector<std::thread> workers;
  for (int r = 0; r < 2; ++r) {
    workers.emplace_back([this, &stop, &failures] {
      std::unique_ptr<Session> s = database.CreateSession();
      for (int i = 0; i < 30 && !stop.load(std::memory_order_relaxed); ++i) {
        auto res = s->Query("select sum(k), count(*) from t");
        if (!res.ok() || res->rows[0].AsRef().GetInt64(0) !=
                             kK * res->rows[0].AsRef().GetInt64(1)) {
          ++failures;
          return;
        }
      }
    });
  }
  for (auto& t : workers) t.join();
  stop.store(true, std::memory_order_relaxed);
  tuner.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace smadb::testing
