// Governor tests: the query-lifecycle contract of DESIGN.md §10.
//
// The contract under test: a governed query either finishes, returns a typed
// error (kCancelled, kDeadlineExceeded, kResourceExhausted naming the
// offending component), or returns an explicitly `degraded` partial answer —
// never a hang, never a silent wrong answer. Generous limits must be
// bit-identical to the ungoverned engine.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "db/admission.h"
#include "db/database.h"
#include "db/session.h"
#include "planner/planner.h"
#include "tests/test_util.h"
#include "util/fault.h"
#include "util/query_context.h"
#include "util/thread_pool.h"

namespace smadb {
namespace {

using db::AdmissionController;
using exec::AggSpec;
using expr::CmpOp;
using expr::Predicate;
using expr::PredicatePtr;
using plan::AggQuery;
using plan::PlanChoice;
using plan::PlanKind;
using plan::Planner;
using plan::PlannerOptions;
using plan::QueryResult;
using plan::RunToCompletion;
using plan::SelectQuery;
using sma::SmaSpec;
using testing::AddMinMaxSmas;
using testing::ExpectOk;
using testing::MakeSyntheticTable;
using testing::TestDb;
using testing::Unwrap;
using util::CancelToken;
using util::MemoryTracker;
using util::QueryContext;
using util::Status;
using util::StatusCode;
using util::ThreadPool;
using util::Value;

struct GovernorTest : ::testing::Test {
  ~GovernorTest() override { util::fault::DisarmAll(); }
};

// ---------------------------------------------------------------------------
// CancelToken.

TEST_F(GovernorTest, CancelTripsTheTokenAtTheNamedCheckpoint) {
  CancelToken token;
  ExpectOk(token.Check("TableScan"));
  EXPECT_FALSE(token.ShouldStop());
  token.Cancel();
  EXPECT_TRUE(token.ShouldStop());
  const Status s = token.Check("TableScan");
  EXPECT_EQ(s.code(), StatusCode::kCancelled);
  EXPECT_NE(s.message().find("TableScan"), std::string::npos);
}

TEST_F(GovernorTest, ExpiredDeadlineIsDeadlineExceeded) {
  CancelToken token;
  token.SetTimeout(std::chrono::milliseconds(0));  // trips immediately
  EXPECT_TRUE(token.has_deadline());
  EXPECT_TRUE(token.deadline_expired());
  const Status s = token.Check("GAggr");
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(s.message().find("GAggr"), std::string::npos);

  // Lifting the deadline (the degraded-run grace period) clears it...
  token.ClearDeadline();
  ExpectOk(token.Check("GAggr"));
  // ...but a user cancel stays in force through ClearDeadline.
  token.Cancel();
  token.ClearDeadline();
  EXPECT_EQ(token.Check("GAggr").code(), StatusCode::kCancelled);
}

TEST_F(GovernorTest, FutureDeadlineDoesNotTrip) {
  CancelToken token;
  token.SetTimeout(std::chrono::hours(1));
  EXPECT_TRUE(token.has_deadline());
  EXPECT_FALSE(token.ShouldStop());
  ExpectOk(token.Check("anywhere"));
}

TEST_F(GovernorTest, CancelFailpointDeliversCancelAtExactSite) {
  CancelToken token;
  util::fault::Arm("governor.cancel", {.count = 1, .file_filter = "GAggr"});
  ExpectOk(token.Check("TableScan"));  // filter mismatch: not delivered
  EXPECT_EQ(token.Check("GAggr").code(), StatusCode::kCancelled);
  // The injected cancel is a real cancel: it persists.
  EXPECT_EQ(token.Check("TableScan").code(), StatusCode::kCancelled);
}

// ---------------------------------------------------------------------------
// MemoryTracker.

TEST_F(GovernorTest, ChargeWithinLimitThenRejectNamingComponent) {
  MemoryTracker t("query", 1000);
  ExpectOk(t.TryCharge(600, "GroupTable"));
  EXPECT_EQ(t.used(), 600u);
  const Status s = t.TryCharge(500, "GroupTable");
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(s.message().find("GroupTable"), std::string::npos);
  EXPECT_NE(s.message().find("query"), std::string::npos);
  EXPECT_EQ(t.used(), 600u) << "rejected charge must not stick";
  t.Release(600, "GroupTable");
  EXPECT_EQ(t.used(), 0u);
  EXPECT_EQ(t.peak(), 600u);
}

TEST_F(GovernorTest, HierarchicalChargeFlowsToParentAndRollsBack) {
  MemoryTracker global("global", 1000);
  MemoryTracker query("query", 0, &global);  // bounded only by the parent
  ExpectOk(query.TryCharge(800, "Sort"));
  EXPECT_EQ(global.used(), 800u);
  // Parent rejection must roll the child back too.
  const Status s = query.TryCharge(300, "Sort");
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(query.used(), 800u);
  EXPECT_EQ(global.used(), 800u);
  query.ReleaseAll();
  EXPECT_EQ(query.used(), 0u);
  EXPECT_EQ(global.used(), 0u) << "ReleaseAll must return the parent's share";
}

TEST_F(GovernorTest, BreakdownNamesEveryComponent) {
  MemoryTracker t("query", 0);
  ExpectOk(t.TryCharge(2048, "GroupTable"));
  ExpectOk(t.TryCharge(4096, "ColumnBatch"));
  const std::string b = t.Breakdown();
  EXPECT_NE(b.find("GroupTable"), std::string::npos) << b;
  EXPECT_NE(b.find("ColumnBatch"), std::string::npos) << b;
}

TEST_F(GovernorTest, ChargeFailpointTargetsOneComponent) {
  MemoryTracker t("query", 0);  // unlimited: only the failpoint can reject
  util::fault::Arm("governor.charge", {.file_filter = "GroupTable"});
  ExpectOk(t.TryCharge(64, "ColumnBatch"));
  const Status s = t.TryCharge(64, "GroupTable");
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(t.used(), 64u) << "injected rejection must not charge";
}

// ---------------------------------------------------------------------------
// ParallelFor cancellation: no new morsel after the token trips, clean drain.

TEST_F(GovernorTest, ParallelForStopsClaimingAfterCancelAndDrainsCleanly) {
  ThreadPool pool(3);
  CancelToken token;
  std::atomic<uint64_t> calls{0};
  const uint64_t kEnd = 1 << 20;
  const Status s = pool.ParallelFor(
      0, kEnd, /*dop=*/4,
      [&](size_t, uint64_t) {
        if (calls.fetch_add(1) == 256) token.Cancel();
        return Status::OK();
      },
      &token);
  EXPECT_EQ(s.code(), StatusCode::kCancelled) << s.ToString();
  const uint64_t at_return = calls.load();
  EXPECT_LT(at_return, kEnd) << "cancel must stop the loop early";
  // Clean drain: by the time ParallelFor returns, every worker has exited
  // fn. No straggler may touch caller state afterwards.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(calls.load(), at_return) << "worker ran fn after ParallelFor";
}

TEST_F(GovernorTest, ParallelForWithExpiredDeadlineClaimsNothing) {
  ThreadPool pool(3);
  CancelToken token;
  token.SetTimeout(std::chrono::milliseconds(0));
  std::atomic<uint64_t> calls{0};
  const Status s = pool.ParallelFor(
      0, 1024, /*dop=*/4,
      [&](size_t, uint64_t) {
        calls.fetch_add(1);
        return Status::OK();
      },
      &token);
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded) << s.ToString();
  EXPECT_EQ(calls.load(), 0u) << "no morsel may be scheduled post-expiry";
}

TEST_F(GovernorTest, ParallelForCompletedRangeIgnoresLateCancel) {
  ThreadPool pool(3);
  CancelToken token;
  std::atomic<uint64_t> calls{0};
  ExpectOk(pool.ParallelFor(
      0, 1000, /*dop=*/4,
      [&](size_t, uint64_t) {
        calls.fetch_add(1);
        return Status::OK();
      },
      &token));
  EXPECT_EQ(calls.load(), 1000u);
}

TEST_F(GovernorTest, ParallelForSerialPathObservesToken) {
  ThreadPool pool(0);
  CancelToken token;
  uint64_t calls = 0;
  const Status s = pool.ParallelFor(
      0, 1000, /*dop=*/1,
      [&](size_t, uint64_t) {
        if (++calls == 10) token.Cancel();
        return Status::OK();
      },
      &token);
  EXPECT_EQ(s.code(), StatusCode::kCancelled);
  EXPECT_EQ(calls, 10u);
}

// ---------------------------------------------------------------------------
// Deadline expiry through every operator / plan shape.

struct GovernorPlanTest : GovernorTest {
  void Setup(testing::Layout layout, const std::string& name) {
    table = MakeSyntheticTable(&db, 4000, layout, /*seed=*/11,
                               /*bucket_pages=*/1, name);
    smas = std::make_unique<sma::SmaSet>(table);
    AddMinMaxSmas(table, smas.get(), "d");
    const expr::ExprPtr v = Unwrap(expr::Column(&table->schema(), "v"));
    ExpectOk(smas->Add(
        Unwrap(sma::BuildSma(table, SmaSpec::Sum("sum_v", v, {3})))));
    ExpectOk(smas->Add(
        Unwrap(sma::BuildSma(table, SmaSpec::Count("cnt", {3})))));
    query.table = table;
    query.group_by = {3};
    query.aggs = {AggSpec::Sum(v, "sum_v"), AggSpec::Count("cnt")};
  }

  PredicatePtr DatePred(CmpOp op, int32_t day) {
    return Unwrap(Predicate::AtomConst(&table->schema(), "d", op,
                                       Value::MakeDate(util::Date(day))));
  }

  /// A context whose deadline already expired when the query starts.
  static void Expire(QueryContext* ctx) {
    ctx->cancel()->SetTimeout(std::chrono::milliseconds(0));
  }

  TestDb db;
  storage::Table* table = nullptr;
  std::unique_ptr<sma::SmaSet> smas;
  AggQuery query;
};

TEST_F(GovernorPlanTest, ExpiredDeadlineFailsEveryPlanShape) {
  Setup(testing::Layout::kClustered, "g1");
  query.pred = DatePred(CmpOp::kLe, 40);
  Planner planner(smas.get());
  for (const size_t dop : {size_t{1}, size_t{4}}) {
    for (PlanKind kind : {PlanKind::kScanAggr, PlanKind::kSmaScanAggr,
                          PlanKind::kSmaGAggr}) {
      auto op = Unwrap(planner.Build(query, kind, dop));
      QueryContext ctx;
      Expire(&ctx);
      op->BindContext(&ctx);
      const auto run = RunToCompletion(op.get(), &ctx);
      ASSERT_FALSE(run.ok()) << plan::PlanKindToString(kind);
      EXPECT_EQ(run.status().code(), StatusCode::kDeadlineExceeded)
          << plan::PlanKindToString(kind) << " dop=" << dop << ": "
          << run.status().ToString();
    }
  }
}

TEST_F(GovernorPlanTest, ExpiredDeadlineFailsSelectionPlans) {
  Setup(testing::Layout::kClustered, "g2");
  SelectQuery sel;
  sel.table = table;
  sel.pred = DatePred(CmpOp::kLe, 40);
  Planner planner(smas.get());
  QueryContext ctx;
  Expire(&ctx);
  const auto run = planner.ExecuteSelect(sel, &ctx);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(GovernorPlanTest, UserCancelSurfacesAsCancelled) {
  Setup(testing::Layout::kClustered, "g4");
  query.pred = DatePred(CmpOp::kLe, 40);
  Planner planner(smas.get());
  QueryContext ctx;
  ctx.cancel()->Cancel();
  const auto run = planner.Execute(query, &ctx);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kCancelled);
}

// ---------------------------------------------------------------------------
// Memory budgets: the failing component is named; the ladder recovers when
// a cheaper mode exists.

TEST_F(GovernorPlanTest, GroupTableBudgetExhaustionNamesGroupTable) {
  Setup(testing::Layout::kClustered, "g5");
  // Group by the unique key: the GroupTable grows with every row.
  query.group_by = {0};
  query.pred = Predicate::True();
  Planner planner(/*smas=*/nullptr);
  auto op = Unwrap(planner.Build(query, PlanKind::kScanAggr, 1));
  // Room for the column batch (k and v: 2 x 8 KiB), not for 4000 groups.
  QueryContext ctx(/*global_memory=*/nullptr, /*memory_limit=*/32 * 1024);
  op->BindContext(&ctx);
  const auto run = RunToCompletion(op.get(), &ctx);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(run.status().message().find("GroupTable"), std::string::npos)
      << run.status().ToString();
}

// Partial groups are charged as they grow — per folded morsel in
// SmaGAggr's scan form, at every dop — so a unique-key group-by over a table
// far larger than its budget fails before the scan has fetched the table.
TEST_F(GovernorPlanTest, PartialGroupsAreChargedAsTheyGrow) {
  table = MakeSyntheticTable(&db, 60000, testing::Layout::kClustered,
                             /*seed=*/11, /*bucket_pages=*/1, "unique");
  const expr::ExprPtr v = Unwrap(expr::Column(&table->schema(), "v"));
  query.table = table;
  query.group_by = {0};
  query.aggs = {AggSpec::Sum(v, "sum_v"), AggSpec::Count("cnt")};
  query.pred = Predicate::True();
  Planner planner(/*smas=*/nullptr);
  for (const size_t dop : {size_t{1}, size_t{4}}) {
    auto op = Unwrap(planner.Build(query, PlanKind::kScanAggr, dop));
    // Room for each worker's column batch (k and v: 2 x 8 KiB), not for
    // 60000 groups.
    QueryContext ctx(/*global_memory=*/nullptr, /*memory_limit=*/128 * 1024);
    op->BindContext(&ctx);
    const storage::PoolStats before = db.pool.stats();
    const auto run = RunToCompletion(op.get(), &ctx);
    const storage::PoolStats after = db.pool.stats();
    ASSERT_FALSE(run.ok()) << "dop " << dop;
    EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted);
    EXPECT_NE(run.status().message().find("GroupTable"), std::string::npos)
        << run.status().ToString();
    const uint64_t fetches =
        after.hits + after.misses - before.hits - before.misses;
    EXPECT_LT(fetches, table->num_pages()) << "dop " << dop;
  }
}

TEST_F(GovernorPlanTest, ColumnBatchBudgetExhaustionNamesColumnBatch) {
  Setup(testing::Layout::kClustered, "g6");
  query.pred = Predicate::True();
  Planner planner(/*smas=*/nullptr);
  auto op = Unwrap(planner.Build(query, PlanKind::kScanAggr, 1));
  QueryContext ctx(/*global_memory=*/nullptr, /*memory_limit=*/512);
  op->BindContext(&ctx);
  const auto run = RunToCompletion(op.get(), &ctx);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(run.status().message().find("ColumnBatch"), std::string::npos)
      << run.status().ToString();
}

// A budget below one column batch (grp, d and v: 17 KiB at 1024 rows):
// every plan that scans fails typed naming ColumnBatch, while SMA_GAggr
// takes the SMA-only rung — which never configures, or charges, a batch.
TEST_F(GovernorPlanTest, BudgetBelowOneBatchFailsScansAndDegradesSmaGAggr) {
  Setup(testing::Layout::kClustered, "g7");
  query.pred = DatePred(CmpOp::kLe, 40);
  constexpr size_t kBudget = 6 * 1024;
  Planner planner(smas.get());
  for (const size_t dop : {size_t{1}, size_t{4}}) {
    for (PlanKind kind : {PlanKind::kScanAggr, PlanKind::kSmaScanAggr,
                          PlanKind::kSmaGAggr}) {
      auto op = Unwrap(planner.Build(query, kind, dop));
      QueryContext ctx(/*global_memory=*/nullptr, kBudget);
      op->BindContext(&ctx);
      const auto run = RunToCompletion(op.get(), &ctx);
      ASSERT_FALSE(run.ok()) << plan::PlanKindToString(kind);
      EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted);
      EXPECT_NE(run.status().message().find("ColumnBatch"), std::string::npos)
          << plan::PlanKindToString(kind) << " dop=" << dop << ": "
          << run.status().ToString();
    }
  }
  ASSERT_EQ(Unwrap(planner.Choose(query)).kind, PlanKind::kSmaGAggr);
  QueryContext ctx(/*global_memory=*/nullptr, kBudget);
  const QueryResult got = Unwrap(planner.Execute(query, &ctx));
  EXPECT_TRUE(got.plan.degraded);
  EXPECT_EQ(got.plan.kind, PlanKind::kSmaGAggr);
  EXPECT_NE(got.plan.explanation.find("SMA-only"), std::string::npos)
      << got.plan.explanation;
  EXPECT_FALSE(got.rows.empty()) << "qualifying buckets still answer";
}

TEST_F(GovernorPlanTest, BottomRungAnswersFromSmasAloneMarkedDegraded) {
  Setup(testing::Layout::kClustered, "g8");
  query.pred = DatePred(CmpOp::kLe, 40);
  Planner planner(smas.get());
  // Confirm the plan is SMA_GAggr, then make every GroupTable charge of the
  // first run fail; the degraded rerun (failpoint spent) succeeds.
  ASSERT_EQ(Unwrap(planner.Choose(query)).kind, PlanKind::kSmaGAggr);
  util::fault::Arm("governor.charge",
                   {.count = 1, .file_filter = "GroupTable"});
  QueryContext ctx;
  const QueryResult got = Unwrap(planner.Execute(query, &ctx));
  EXPECT_TRUE(got.plan.degraded);
  EXPECT_EQ(got.plan.kind, PlanKind::kSmaGAggr);
  EXPECT_NE(got.plan.explanation.find("partial:"), std::string::npos)
      << got.plan.explanation;
  EXPECT_NE(got.plan.explanation.find("SMA-only"), std::string::npos)
      << got.plan.explanation;
  EXPECT_FALSE(got.rows.empty()) << "qualifying buckets still answer";
}

TEST_F(GovernorPlanTest, AllowDegradedOffPropagatesTheTypedError) {
  Setup(testing::Layout::kClustered, "g9");
  query.pred = DatePred(CmpOp::kLe, 40);
  PlannerOptions options;
  options.allow_degraded = false;
  Planner planner(smas.get(), options);
  util::fault::Arm("governor.charge", {.file_filter = "GroupTable"});
  QueryContext ctx;
  const auto run = planner.Execute(query, &ctx);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(GovernorPlanTest, GenerousLimitsAreBitIdenticalToUngoverned) {
  Setup(testing::Layout::kNoisy, "g10");
  query.pred = DatePred(CmpOp::kLe, 120);
  Planner planner(smas.get());
  const QueryResult want = Unwrap(planner.Execute(query));
  QueryContext ctx(/*global_memory=*/nullptr,
                   /*memory_limit=*/size_t{1} << 30);
  ctx.cancel()->SetTimeout(std::chrono::hours(1));
  const QueryResult got = Unwrap(planner.Execute(query, &ctx));
  EXPECT_EQ(got.ToString(), want.ToString());
  EXPECT_FALSE(got.plan.degraded);
}

// ---------------------------------------------------------------------------
// AdmissionController.

TEST_F(GovernorTest, AdmissionOffIsInert) {
  AdmissionController admission;  // max_concurrent = 0: disabled
  for (int i = 0; i < 8; ++i) {
    auto slot = Unwrap(admission.Admit());
  }
  EXPECT_EQ(admission.running(), 0u);
  EXPECT_EQ(admission.admitted_total(), 0u);
}

TEST_F(GovernorTest, AdmissionBoundedWaitTimesOut) {
  AdmissionController admission(
      {.max_concurrent = 1,
       .max_queued = 4,
       .max_wait = std::chrono::milliseconds(60),
       .wait_quantum = std::chrono::milliseconds(1)});
  auto held = Unwrap(admission.Admit());
  EXPECT_EQ(admission.running(), 1u);
  const auto t0 = std::chrono::steady_clock::now();
  const auto second = admission.Admit();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(second.status().message().find("timed out"), std::string::npos);
  EXPECT_LT(elapsed, std::chrono::seconds(2)) << "bounded wait must bound";
  EXPECT_EQ(admission.timed_out_total(), 1u);
  held.Release();
  auto third = Unwrap(admission.Admit());  // slot is reusable after release
  EXPECT_EQ(admission.running(), 1u);
}

TEST_F(GovernorTest, AdmissionFullQueueShedsImmediately) {
  AdmissionController admission({.max_concurrent = 1, .max_queued = 0});
  auto held = Unwrap(admission.Admit());
  const auto t0 = std::chrono::steady_clock::now();
  const auto shed = admission.Admit();
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(shed.status().message().find("load shed"), std::string::npos);
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::seconds(1));
  EXPECT_EQ(admission.shed_total(), 1u);
}

TEST_F(GovernorTest, AdmissionIsFifoByArrival) {
  AdmissionController admission(
      {.max_concurrent = 1,
       .max_queued = 4,
       .max_wait = std::chrono::seconds(10),
       .wait_quantum = std::chrono::milliseconds(1)});
  auto held = Unwrap(admission.Admit());

  std::vector<int> order;
  std::mutex order_mu;
  auto contender = [&](int id) {
    auto slot = Unwrap(admission.Admit());
    std::lock_guard<std::mutex> lock(order_mu);
    order.push_back(id);
  };
  std::thread t1(contender, 1);
  while (admission.queued() < 1) std::this_thread::yield();
  std::thread t2(contender, 2);
  while (admission.queued() < 2) std::this_thread::yield();

  held.Release();  // head of the queue (t1) must win the freed slot
  t1.join();
  t2.join();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(admission.admitted_total(), 3u);
  EXPECT_EQ(admission.running(), 0u);
  EXPECT_EQ(admission.queued(), 0u);
}

TEST_F(GovernorTest, AdmissionSessionReentryCannotSelfDeadlock) {
  AdmissionController admission(
      {.max_concurrent = 1,
       .max_queued = 4,
       .max_wait = std::chrono::milliseconds(150),
       .wait_quantum = std::chrono::milliseconds(1)});
  auto first = Unwrap(admission.Admit(/*session_id=*/7));
  EXPECT_EQ(admission.running(), 1u);

  // The same session holds the only slot: a second Admit must be granted
  // immediately (re-entrant), not queued behind itself until timeout.
  const auto t0 = std::chrono::steady_clock::now();
  auto second = Unwrap(admission.Admit(7));
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(100));
  EXPECT_EQ(admission.running(), 1u) << "one session = one running slot";

  // A different session still honors the cap.
  const auto other = admission.Admit(9);
  ASSERT_FALSE(other.ok());
  EXPECT_EQ(other.status().code(), StatusCode::kResourceExhausted);

  // The slot frees only when the session's last grant releases.
  second.Release();
  EXPECT_EQ(admission.running(), 1u);
  first.Release();
  EXPECT_EQ(admission.running(), 0u);
  auto after = Unwrap(admission.Admit(9));
  EXPECT_EQ(admission.running(), 1u);
}

TEST_F(GovernorTest, AdmissionSessionReentryDoesNotStarveTheQueue) {
  AdmissionController admission(
      {.max_concurrent = 1,
       .max_queued = 4,
       .max_wait = std::chrono::seconds(10),
       .wait_quantum = std::chrono::milliseconds(1)});
  auto held = Unwrap(admission.Admit(/*session_id=*/7));

  std::atomic<bool> waiter_admitted{false};
  std::thread waiter([&] {
    auto slot = Unwrap(admission.Admit(/*session_id=*/9));
    waiter_admitted.store(true);
  });
  while (admission.queued() < 1) std::this_thread::yield();

  // Session 7 re-enters and releases repeatedly while 9 waits; re-entrant
  // grants ride the held slot, so they neither jump the queue nor free it.
  for (int i = 0; i < 16; ++i) {
    auto again = Unwrap(admission.Admit(7));
    EXPECT_FALSE(waiter_admitted.load());
  }
  EXPECT_EQ(admission.queued(), 1u);

  held.Release();  // last grant gone: the queued session wins the slot
  waiter.join();
  EXPECT_TRUE(waiter_admitted.load());
  EXPECT_EQ(admission.running(), 0u);
}

// ---------------------------------------------------------------------------
// Database facade: knobs, per-query governor, explain.

struct GovernorDbTest : GovernorTest {
  explicit GovernorDbTest(int64_t rows = 4000,
                          testing::Layout layout = testing::Layout::kRandom) {
    table = Unwrap(database.CreateTable("t", testing::SyntheticSchema()));
    storage::TupleBuffer buf(&table->schema());
    util::Rng rng(7);
    static const char* kTags[] = {"MAIL", "RAIL", "SHIP", "AIR"};
    for (int64_t i = 0; i < rows; ++i) {
      const int32_t day =
          layout == testing::Layout::kClustered
              ? static_cast<int32_t>(i / 8)
              : static_cast<int32_t>(rng.Uniform(0, rows / 8));
      buf.SetInt64(0, i);
      buf.SetDate(1, util::Date(day));
      buf.SetDecimal(2, util::Decimal(i * 3));
      const char grp[2] = {static_cast<char>('A' + rng.Uniform(0, 2)), 0};
      buf.SetString(3, grp);
      buf.SetString(4, kTags[rng.Uniform(0, 3)]);
      ExpectOk(database.Insert("t", buf));
    }
  }

  db::Database database;
  storage::Table* table = nullptr;
};

TEST_F(GovernorDbTest, SessionKnobsParseAndApply) {
  ExpectOk(database.Execute("set timeout_ms = 50"));
  EXPECT_EQ(database.timeout_ms(), 50);
  ExpectOk(database.Execute("set memory_limit = 1048576"));
  EXPECT_EQ(database.query_memory_limit(), 1048576u);
  ExpectOk(database.Execute("set max_concurrent_queries = 3"));
  EXPECT_EQ(database.max_concurrent_queries(), 3u);
  ExpectOk(database.Execute("set allow_degraded = 0"));
  EXPECT_FALSE(database.options().planner.allow_degraded);
  ExpectOk(database.Execute("set allow_degraded = 1"));
  EXPECT_TRUE(database.options().planner.allow_degraded);
  EXPECT_EQ(database.Execute("set no_such_knob = 1").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(database.Execute("set timeout_ms = banana").code(),
            StatusCode::kInvalidArgument);
}

TEST_F(GovernorDbTest, GovernedQueryMatchesUngovernedBitForBit) {
  const std::string sql =
      "select grp, sum(v) as total, count(*) as n from t group by grp";
  const QueryResult want = Unwrap(database.Query(sql));
  ExpectOk(database.Execute("set timeout_ms = 3600000"));
  ExpectOk(database.Execute("set memory_limit = 1073741824"));
  ExpectOk(database.Execute("set max_concurrent_queries = 4"));
  const QueryResult got = Unwrap(database.Query(sql));
  EXPECT_EQ(got.ToString(), want.ToString());
  EXPECT_FALSE(got.plan.degraded);
  EXPECT_NE(got.plan.explanation.find("governor:"), std::string::npos)
      << got.plan.explanation;
}

TEST_F(GovernorDbTest, ExpiredExternalDeadlineFailsFastOnFullScan) {
  // The acceptance shape: an all-ambivalent full scan at dop >= 4 under an
  // expired deadline returns kDeadlineExceeded well under a second.
  ExpectOk(database.Execute("set dop = 4"));
  auto token = std::make_shared<CancelToken>();
  token->SetTimeout(std::chrono::milliseconds(0));
  const auto t0 = std::chrono::steady_clock::now();
  const auto run = database.Query(
      "select grp, sum(v) as total from t group by grp", token);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kDeadlineExceeded)
      << run.status().ToString();
  EXPECT_LT(elapsed, std::chrono::seconds(1));
}

TEST_F(GovernorDbTest, ExternalCancelTokenCancelsTheQuery) {
  auto token = std::make_shared<CancelToken>();
  token->Cancel();
  const auto run = database.Query("select sum(v) as s from t", token);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kCancelled);
}

TEST_F(GovernorDbTest, SessionTimeoutKnobGovernsQueries) {
  // timeout_ms arms a deadline per query; 0 disarms it again.
  ExpectOk(database.Execute("set timeout_ms = 1"));
  // A deadline this tight on a 4000-row scan may or may not expire on a
  // fast machine — both outcomes are within contract; what is not allowed
  // is any other error or a hang.
  const auto run = database.Query("select sum(v) as s from t");
  if (!run.ok()) {
    EXPECT_EQ(run.status().code(), StatusCode::kDeadlineExceeded)
        << run.status().ToString();
  }
  ExpectOk(database.Execute("set timeout_ms = 0"));
  const QueryResult ok = Unwrap(database.Query("select sum(v) as s from t"));
  EXPECT_EQ(ok.rows.size(), 1u);
}

TEST_F(GovernorDbTest, HugeTimeoutSaturatesInsteadOfExpiring) {
  // INT64_MAX milliseconds lies past the steady clock's range: the deadline
  // saturates to never instead of overflowing into the past.
  std::unique_ptr<db::Session> session = database.CreateSession();
  ExpectOk(session->Execute("set timeout_ms = 9223372036854775807"));
  const QueryResult ok = Unwrap(session->Query("select count(*) from t"));
  ASSERT_EQ(ok.rows.size(), 1u);
  EXPECT_EQ(ok.rows[0].AsRef().GetInt64(0), 4000);
}

TEST_F(GovernorDbTest, AdmissionShedsWhenSaturated) {
  ExpectOk(database.Execute("set max_concurrent_queries = 1"));
  // Hold the only slot directly; the query must be rejected, not hung.
  database.admission()->SetMaxQueued(0);
  auto held = Unwrap(database.admission()->Admit());
  const auto t0 = std::chrono::steady_clock::now();
  const auto run = database.Query("select count(*) as n from t");
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(run.status().message().find("load shed"), std::string::npos);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
  held.Release();
  auto ok = Unwrap(database.Query("select count(*) as n from t"));
  EXPECT_EQ(ok.rows.size(), 1u);
}

TEST_F(GovernorDbTest, ExplainReportsPlanAndGovernor) {
  ExpectOk(database.Execute("set timeout_ms = 60000"));
  ExpectOk(database.Execute("set memory_limit = 1048576"));
  const QueryResult result = Unwrap(
      database.Query("explain select grp, sum(v) as s from t group by grp"));
  ASSERT_FALSE(result.rows.empty());
  ASSERT_EQ(result.schema->num_fields(), 1u);
  EXPECT_EQ(result.schema->field(0).name, "explain");
  const std::string text = result.ToString();
  EXPECT_NE(text.find("plan: "), std::string::npos) << text;
  EXPECT_NE(text.find("buckets: "), std::string::npos) << text;
  EXPECT_NE(text.find("dop: "), std::string::npos) << text;
  EXPECT_NE(text.find("governor:"), std::string::npos) << text;
  EXPECT_NE(text.find("deadline=60000ms"), std::string::npos) << text;
  EXPECT_NE(text.find("memory_limit=1.0 MB"), std::string::npos) << text;
}

TEST_F(GovernorDbTest, ExplainOfDegradedQueryShowsTheMarker) {
  // Clustered twin database so the plan is SMA_GAggr, then starve the
  // GroupTable of the first (exact) run: explain shows the degraded rung.
  db::Database clustered;
  storage::Table* t = Unwrap(
      clustered.CreateTable("t", testing::SyntheticSchema()));
  storage::TupleBuffer buf(&t->schema());
  for (int64_t i = 0; i < 4000; ++i) {
    buf.SetInt64(0, i);
    buf.SetDate(1, util::Date(static_cast<int32_t>(i / 8)));
    buf.SetDecimal(2, util::Decimal(i * 3));
    const char grp[2] = {static_cast<char>('A' + (i % 3)), 0};
    buf.SetString(3, grp);
    buf.SetString(4, "MAIL");
    ExpectOk(clustered.Insert("t", buf));
  }
  ExpectOk(clustered.Execute("define sma mn select min(d) from t"));
  ExpectOk(clustered.Execute("define sma mx select max(d) from t"));
  ExpectOk(clustered.Execute(
      "define sma sums select sum(v) from t group by grp"));
  ExpectOk(clustered.Execute(
      "define sma cnts select count(*) from t group by grp"));
  util::fault::Arm("governor.charge",
                   {.count = 1, .file_filter = "GroupTable"});
  const QueryResult result = Unwrap(clustered.Query(
      "explain select grp, sum(v) as s, count(*) as n from t "
      "where d <= '1970-02-10' group by grp"));
  const std::string text = result.ToString();
  EXPECT_TRUE(result.plan.degraded) << text;
  EXPECT_NE(text.find("degraded"), std::string::npos) << text;
  EXPECT_NE(text.find("partial:"), std::string::npos) << text;
}

}  // namespace
}  // namespace smadb
