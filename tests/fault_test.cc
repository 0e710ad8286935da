// Fault-injection tests: the robustness contract of the storage stack and
// the planner's degradation ladder.
//
// The contract under test: with faults armed, every query either returns
// exactly the fault-free result or a typed error (kIOError, kCorruption,
// kResourceExhausted) — never silently-wrong rows. Corrupt or stale SMAs
// demote plans to sequential scans (visible in the plan explanation) instead
// of failing the query, and SmaMaintainer::Rebuild() repairs them.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "planner/planner.h"
#include "sma/maintenance.h"
#include "tests/test_util.h"
#include "util/fault.h"

namespace smadb::plan {
namespace {

using exec::AggSpec;
using expr::CmpOp;
using expr::Predicate;
using expr::PredicatePtr;
using sma::SmaSpec;
using storage::BackendKind;
using storage::BufferPool;
using storage::BufferPoolOptions;
using storage::FileId;
using storage::PageGuard;
using testing::AddMinMaxSmas;
using testing::ExpectOk;
using testing::MakeSyntheticTable;
using testing::TestDb;
using testing::Unwrap;
using util::FaultKind;
using util::FaultSpec;
using util::Status;
using util::StatusCode;
using util::Value;

// ---------------------------------------------------------------------------
// FaultInjector unit behaviour.

struct FaultInjectorTest : ::testing::Test {
  ~FaultInjectorTest() override { util::fault::DisarmAll(); }
};

TEST_F(FaultInjectorTest, CountAndSkipAreExact) {
  util::fault::Arm("t.point", {.count = 2, .skip = 1});
  EXPECT_FALSE(util::fault::Hit("t.point").has_value());  // skipped
  EXPECT_EQ(util::fault::Hit("t.point"), FaultKind::kPermanent);
  EXPECT_EQ(util::fault::Hit("t.point"), FaultKind::kPermanent);
  EXPECT_FALSE(util::fault::Hit("t.point").has_value());  // count spent
  EXPECT_EQ(util::fault::Triggered("t.point"), 2u);
}

TEST_F(FaultInjectorTest, FileFilterSelectsContext) {
  util::fault::Arm("t.point", {.file_filter = "sma."});
  EXPECT_FALSE(util::fault::Hit("t.point", "tbl.orders").has_value());
  EXPECT_TRUE(util::fault::Hit("t.point", "sma.orders.min").has_value());
  EXPECT_EQ(util::fault::Triggered("t.point"), 1u);
}

TEST_F(FaultInjectorTest, UnarmedPointsNeverFire) {
  EXPECT_FALSE(util::fault::Hit("t.other").has_value());
  util::fault::Arm("t.point", {});
  EXPECT_FALSE(util::fault::Hit("t.other").has_value());
}

TEST_F(FaultInjectorTest, ProbabilityScheduleIsSeedDeterministic) {
  auto schedule = [&] {
    util::fault::Seed(0xfeedu);
    util::fault::Arm("t.point", {.probability = 0.5});
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(util::fault::Hit("t.point").has_value());
    }
    util::fault::DisarmAll();
    return fired;
  };
  const std::vector<bool> a = schedule();
  const std::vector<bool> b = schedule();
  EXPECT_EQ(a, b);
  // And p = 0.5 actually flips both ways.
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), false), 0);
}

// ---------------------------------------------------------------------------
// Buffer-pool robustness: retry, checksum verification, frame exhaustion.
// Parameterized over the backend: the failpoints live in DiskBackend, so the
// identical matrix must hold against the simulated disk and real files.

struct PoolFaultTest : ::testing::TestWithParam<BackendKind> {
  // The run cases read all kPages pages and fault on page kFaultPage.
  static constexpr uint32_t kPages = 8;
  static constexpr uint32_t kFaultPage = 5;

  PoolFaultTest() : db(64, GetParam()) {}
  ~PoolFaultTest() override { util::fault::DisarmAll(); }

  // One file of kPages flushed pages, page p holding 0xabcdef01 + p;
  // nothing cached.
  void SetUp() override {
    file = Unwrap(db.disk.CreateFile("tbl.pf"));
    for (uint32_t p = 0; p < kPages; ++p) {
      uint32_t page_no = 0;
      PageGuard guard = Unwrap(db.pool.NewPage(file, &page_no));
      guard.MutablePage()->WriteAt<uint64_t>(0, 0xabcdef01u + page_no);
    }
    ExpectOk(db.pool.FlushAll());
    ExpectOk(db.pool.DropAll());
    db.pool.ResetStats();
  }

  // A failed run leaves no frame pinned and no page cached.
  void ExpectRunLeftNothingBehind() {
    EXPECT_EQ(db.pool.num_cached(), 0u);
    ExpectOk(db.pool.DropAll());  // fails while any frame is pinned
  }

  TestDb db;
  FileId file = 0;
};

INSTANTIATE_TEST_SUITE_P(Backends, PoolFaultTest,
                         ::testing::Values(BackendKind::kSimulated,
                                           BackendKind::kFile),
                         [](const auto& info) {
                           return std::string(
                               storage::BackendKindToString(info.param));
                         });

TEST_P(PoolFaultTest, TransientReadErrorsAreAbsorbedByRetry) {
  util::fault::Arm("disk.read", {.count = 2, .kind = FaultKind::kTransient});
  PageGuard guard = Unwrap(db.pool.Fetch(file, 0));
  EXPECT_EQ(guard.page()->ReadAt<uint64_t>(0), 0xabcdef01u);
  EXPECT_EQ(db.pool.stats().read_retries, 2u);
  guard.Release();

  // The same fault on page k of a run: the retries resume at page k and
  // the whole run is pinned.
  ExpectOk(db.pool.DropAll());
  db.pool.ResetStats();
  db.disk.ResetStats();
  util::fault::Arm("disk.read", {.count = 2,
                                 .kind = FaultKind::kTransient,
                                 .skip = kFaultPage});
  storage::PageRun run = Unwrap(db.pool.PinRun(file, 0, kPages));
  ASSERT_EQ(run.size(), kPages);
  for (uint32_t p = 0; p < kPages; ++p) {
    EXPECT_EQ(run.page(p)->ReadAt<uint64_t>(0), 0xabcdef01u + p);
  }
  EXPECT_EQ(db.pool.stats().read_retries, 2u);
  EXPECT_EQ(db.disk.stats().page_reads, kPages);
}

TEST_P(PoolFaultTest, PermanentReadErrorSurfacesTypedWithContext) {
  util::fault::Arm("disk.read", {.kind = FaultKind::kPermanent});
  auto r = db.pool.Fetch(file, 0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  EXPECT_NE(r.status().message().find("tbl.pf"), std::string::npos);
  EXPECT_NE(r.status().message().find("page 0"), std::string::npos);
  // The bounded retry budget was spent before giving up.
  EXPECT_EQ(db.pool.stats().read_retries,
            static_cast<uint64_t>(db.pool.options().max_read_retries));
  ExpectRunLeftNothingBehind();

  // On page k of a run: the error names page k, and the pages before it,
  // read into frames, are dropped with it.
  util::fault::Arm("disk.read",
                   {.kind = FaultKind::kPermanent, .skip = kFaultPage});
  auto run = db.pool.PinRun(file, 0, kPages);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kIOError);
  EXPECT_NE(run.status().message().find("tbl.pf"), std::string::npos);
  EXPECT_NE(run.status().message().find("page 5"), std::string::npos)
      << run.status().ToString();
  ExpectRunLeftNothingBehind();
}

TEST_P(PoolFaultTest, ReadBitFlipIsCaughtByChecksumAndIsTransient) {
  util::fault::Arm("disk.page_bitflip", {.count = 1});
  auto r = db.pool.Fetch(file, 0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_NE(r.status().message().find("checksum mismatch"), std::string::npos);
  EXPECT_NE(r.status().message().find("tbl.pf"), std::string::npos);
  EXPECT_EQ(db.pool.stats().checksum_failures, 1u);
  ExpectRunLeftNothingBehind();
  // The stored page was never harmed: the next read succeeds.
  PageGuard guard = Unwrap(db.pool.Fetch(file, 0));
  EXPECT_EQ(guard.page()->ReadAt<uint64_t>(0), 0xabcdef01u);
  guard.Release();

  // A flip delivered on page k of a run fails the run naming page k.
  ExpectOk(db.pool.DropAll());
  util::fault::Arm("disk.page_bitflip", {.count = 1, .skip = kFaultPage});
  auto run = db.pool.PinRun(file, 0, kPages);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kCorruption);
  EXPECT_NE(run.status().message().find("page 5"), std::string::npos)
      << run.status().ToString();
  EXPECT_EQ(db.pool.stats().checksum_failures, 2u);
  ExpectRunLeftNothingBehind();
}

TEST_P(PoolFaultTest, WriteBitFlipIsCaughtOnNextVerifiedRead) {
  // Dirty the page again and flush it through an armed write failpoint: the
  // intended bytes get checksummed, the stored bytes get flipped.
  {
    PageGuard guard = Unwrap(db.pool.Fetch(file, 0));
    guard.MutablePage()->WriteAt<uint64_t>(0, 0x1234u);
  }
  util::fault::Arm("disk.write", {.count = 1, .kind = FaultKind::kBitFlip});
  ExpectOk(db.pool.FlushAll());
  ExpectOk(db.pool.DropAll());
  auto r = db.pool.Fetch(file, 0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

TEST_P(PoolFaultTest, VerificationOffDeliversFlippedBitsSilently) {
  // What checksums buy: an unverified pool hands the flip to the query.
  BufferPool raw(&db.disk, BufferPoolOptions{.capacity_pages = 8,
                                             .verify_checksums = false});
  util::fault::Arm("disk.page_bitflip", {.count = 1});
  PageGuard guard = Unwrap(raw.Fetch(file, 0));
  EXPECT_NE(guard.page()->ReadAt<uint64_t>(0), 0xabcdef01u);
  EXPECT_EQ(raw.stats().checksum_failures, 0u);
}

TEST_P(PoolFaultTest, AllFramesPinnedFailsTypedAfterBoundedWait) {
  BufferPool tiny(&db.disk,
                  BufferPoolOptions{.capacity_pages = 2,
                                    .pinned_wait_rounds = 2,
                                    .pinned_wait_quantum =
                                        std::chrono::milliseconds(1)});
  uint32_t page_no = 0;
  FileId f2 = Unwrap(db.disk.CreateFile("tbl.pf2"));
  PageGuard a = Unwrap(tiny.NewPage(f2, &page_no));
  PageGuard b = Unwrap(tiny.NewPage(f2, &page_no));
  auto r = tiny.Fetch(file, 0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("pinned"), std::string::npos);
  auto n = tiny.NewPage(f2, &page_no);
  ASSERT_FALSE(n.ok());
  EXPECT_EQ(n.status().code(), StatusCode::kResourceExhausted);
}

TEST_P(PoolFaultTest, UnpinUnblocksAWaitingFetch) {
  BufferPool tiny(&db.disk,
                  BufferPoolOptions{.capacity_pages = 2,
                                    .pinned_wait_rounds = 1000,
                                    .pinned_wait_quantum =
                                        std::chrono::milliseconds(1)});
  uint32_t page_no = 0;
  FileId f2 = Unwrap(db.disk.CreateFile("tbl.pf2"));
  PageGuard a = Unwrap(tiny.NewPage(f2, &page_no));
  PageGuard b = Unwrap(tiny.NewPage(f2, &page_no));
  Status fetched = Status::Internal("not run");
  std::thread waiter([&] {
    auto r = tiny.Fetch(file, 0);
    fetched = r.ok() ? Status::OK() : r.status();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  b.Release();  // frees a frame; the waiter's Fetch must complete
  waiter.join();
  ExpectOk(fetched);
}

// ---------------------------------------------------------------------------
// Query-level fault matrix and the degradation ladder.

struct FaultQueryTest : ::testing::TestWithParam<BackendKind> {
  FaultQueryTest() : db(16384, GetParam()) {}
  ~FaultQueryTest() override { util::fault::DisarmAll(); }

  void Setup(testing::Layout layout, const std::string& name) {
    table = MakeSyntheticTable(&db, 4000, layout, 13, 1, name);
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

  // Fault-free reference answer (sequential scan, serial).
  std::string Reference(const Planner& planner) {
    auto op = Unwrap(planner.Build(query, PlanKind::kScanAggr, 1));
    return Unwrap(RunToCompletion(op.get())).ToString();
  }

  TestDb db;
  storage::Table* table = nullptr;
  std::unique_ptr<sma::SmaSet> smas;
  AggQuery query;
};

INSTANTIATE_TEST_SUITE_P(Backends, FaultQueryTest,
                         ::testing::Values(BackendKind::kSimulated,
                                           BackendKind::kFile),
                         [](const auto& info) {
                           return std::string(
                               storage::BackendKindToString(info.param));
                         });

// The central matrix: fault kind x access path x DOP. Every run must either
// reproduce the fault-free rows exactly or fail with the scenario's typed
// error — silently-wrong rows fail the test.
TEST_P(FaultQueryTest, FaultMatrixCorrectRowsOrTypedError) {
  Setup(testing::Layout::kNoisy, "fm");
  query.pred = DatePred(CmpOp::kLe, 120);
  Planner planner(smas.get());
  const std::string expected = Reference(planner);

  struct Scenario {
    const char* label;
    const char* point;
    FaultSpec spec;
    StatusCode allowed;
  };
  const Scenario scenarios[] = {
      {"transient-read", "disk.read",
       {.probability = 0.3, .kind = FaultKind::kTransient},
       StatusCode::kIOError},
      {"permanent-read", "disk.read",
       {.probability = 0.3, .kind = FaultKind::kPermanent},
       StatusCode::kIOError},
      {"bitflip-read", "disk.page_bitflip",
       {.probability = 0.25, .kind = FaultKind::kBitFlip},
       StatusCode::kCorruption},
  };
  const PlanKind kinds[] = {PlanKind::kScanAggr, PlanKind::kSmaScanAggr,
                            PlanKind::kSmaGAggr};
  uint64_t seed = 1;
  for (const Scenario& s : scenarios) {
    for (PlanKind kind : kinds) {
      for (size_t dop : {size_t{1}, size_t{4}}) {
        SCOPED_TRACE(::testing::Message()
                     << s.label << " / " << PlanKindToString(kind)
                     << " / dop=" << dop);
        util::fault::DisarmAll();
        ExpectOk(db.pool.DropAll());  // cold: every page read hits the disk
        util::fault::Seed(seed++);
        util::fault::Arm(s.point, s.spec);
        auto op = Unwrap(planner.Build(query, kind, dop));
        auto run = RunToCompletion(op.get());
        util::fault::DisarmAll();
        if (run.ok()) {
          EXPECT_EQ(run->ToString(), expected);
        } else {
          EXPECT_EQ(run.status().code(), s.allowed)
              << run.status().ToString();
        }
      }
    }
  }
}

// Mid-scan base-table errors must surface as typed statuses through every
// access path (serial and parallel), with the failing file in the message.
TEST_P(FaultQueryTest, MidScanErrorsPropagateThroughAllAccessPaths) {
  Setup(testing::Layout::kNoisy, "mp");
  query.pred = DatePred(CmpOp::kLe, 120);
  Planner planner(smas.get());
  // The SMA plans must actually touch base data for a mid-scan fault.
  const PlanChoice census = Unwrap(planner.Choose(query));
  ASSERT_GT(census.ambivalent, 0u);

  struct Case {
    PlanKind kind;
    size_t dop;
    int64_t skip;  // base-page reads to let through before failing
  };
  const Case cases[] = {
      {PlanKind::kScanAggr, 1, 2},    {PlanKind::kScanAggr, 4, 2},
      {PlanKind::kSmaScanAggr, 1, 2}, {PlanKind::kSmaScanAggr, 4, 2},
      {PlanKind::kSmaGAggr, 1, 0},    {PlanKind::kSmaGAggr, 4, 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message() << PlanKindToString(c.kind)
                                      << " dop=" << c.dop);
    util::fault::DisarmAll();
    ExpectOk(db.pool.DropAll());
    util::fault::Arm("disk.read", {.kind = FaultKind::kPermanent,
                                   .skip = c.skip,
                                   .file_filter = "tbl."});
    auto op = Unwrap(planner.Build(query, c.kind, c.dop));
    auto run = RunToCompletion(op.get());
    util::fault::DisarmAll();
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::kIOError)
        << run.status().ToString();
    EXPECT_NE(run.status().message().find("tbl.mp"), std::string::npos)
        << run.status().ToString();
  }

  // Same contract on the pure-selection path (SmaScan).
  SelectQuery sel;
  sel.table = table;
  sel.pred = query.pred;
  ExpectOk(db.pool.DropAll());
  util::fault::Arm("disk.read", {.kind = FaultKind::kPermanent,
                                 .skip = 2,
                                 .file_filter = "tbl."});
  auto op = Unwrap(planner.BuildSelect(sel, PlanKind::kSmaScan));
  auto run = RunToCompletion(op.get());
  util::fault::DisarmAll();
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kIOError);
}

// Tentpole scenario: a corrupt SMA-file page demotes the plan (recorded in
// the explanation), the query still answers correctly from base data, the
// bad SMA is condemned, and the next Rebuild() restores SMA plans.
TEST_P(FaultQueryTest, CorruptSmaFileDemotesThenRebuildRestores) {
  Setup(testing::Layout::kClustered, "dm");
  query.pred = DatePred(CmpOp::kLe, 40);
  Planner planner(smas.get());
  const std::string expected = Reference(planner);
  EXPECT_EQ(Unwrap(planner.Choose(query)).kind, PlanKind::kSmaGAggr);

  // Push the SMA pages to disk, then flip a stored bit in the min SMA-file
  // (without restamping its checksum — silent on-disk corruption).
  ExpectOk(db.pool.FlushAll());
  ExpectOk(db.pool.DropAll());
  const FileId sma_file = Unwrap(db.disk.FindFile("sma.dm.min_d"));
  ExpectOk(db.disk.CorruptPageForTesting(sma_file, 0, 12345));

  // Grading hits the corruption -> the planner demotes instead of failing.
  const PlanChoice demoted = Unwrap(planner.Choose(query));
  EXPECT_EQ(demoted.kind, PlanKind::kScanAggr);
  EXPECT_NE(demoted.explanation.find("demoted"), std::string::npos)
      << demoted.explanation;

  // The query still answers, correctly, from base data.
  const QueryResult result = Unwrap(planner.Execute(query));
  EXPECT_EQ(result.ToString(), expected);
  EXPECT_EQ(result.plan.kind, PlanKind::kScanAggr);
  EXPECT_NE(result.plan.explanation.find("demoted"), std::string::npos);

  // The corruption condemned exactly the owning SMA.
  const sma::Sma* min_sma = Unwrap(smas->Find("min_d"));
  EXPECT_FALSE(min_sma->trusted());
  EXPECT_TRUE(Unwrap(smas->Find("max_d"))->trusted());

  // Maintenance hook: Rebuild() re-materializes the condemned SMA.
  sma::SmaMaintainer maintainer(table, smas.get());
  ExpectOk(maintainer.Rebuild());
  EXPECT_TRUE(min_sma->trusted());
  EXPECT_EQ(Unwrap(planner.Choose(query)).kind, PlanKind::kSmaGAggr);
  EXPECT_EQ(Unwrap(planner.Execute(query)).ToString(), expected);
}

// A table mutated behind the maintainer's back makes every SMA stale; the
// planner demotes until Rebuild() catches the SMAs up.
TEST_P(FaultQueryTest, StaleSmasDemoteUntilRebuilt) {
  Setup(testing::Layout::kClustered, "st");
  query.pred = DatePred(CmpOp::kLe, 40);
  Planner planner(smas.get());
  EXPECT_EQ(Unwrap(planner.Choose(query)).kind, PlanKind::kSmaGAggr);

  // Append directly to the table, bypassing SMA maintenance.
  storage::TupleBuffer t(&table->schema());
  t.SetInt64(0, 999999);
  t.SetDate(1, util::Date(1));
  t.SetDecimal(2, util::Decimal(700));
  t.SetString(3, "A");
  t.SetString(4, "MAIL");
  ExpectOk(table->Append(t));

  const PlanChoice demoted = Unwrap(planner.Choose(query));
  EXPECT_EQ(demoted.kind, PlanKind::kScanAggr);
  EXPECT_NE(demoted.explanation.find("stale"), std::string::npos)
      << demoted.explanation;

  // The demoted plan sees the new tuple (it scans base data).
  const std::string expected = Reference(planner);
  EXPECT_EQ(Unwrap(planner.Execute(query)).ToString(), expected);

  // Rebuild() refreshes the stale SMAs; the SMA plan agrees with the scan.
  sma::SmaMaintainer maintainer(table, smas.get());
  ExpectOk(maintainer.Rebuild());
  EXPECT_EQ(Unwrap(planner.Choose(query)).kind, PlanKind::kSmaGAggr);
  EXPECT_EQ(Unwrap(planner.Execute(query)).ToString(), expected);
}

// Verify() catches a semantically-wrong entry that checksums cannot (the
// write went through the pool, so the page checksum is valid).
TEST_P(FaultQueryTest, VerifyCatchesSemanticCorruption) {
  Setup(testing::Layout::kClustered, "vf");
  query.pred = DatePred(CmpOp::kLe, 40);
  Planner planner(smas.get());
  const std::string expected = Reference(planner);

  sma::Sma* min_sma = Unwrap(smas->Find("min_d"));
  ASSERT_EQ(min_sma->num_groups(), 1u);
  // Entry 0 claims the bucket's min date is day 999 — plausible, wrong.
  ExpectOk(min_sma->group_file(0)->Set(0, 999));
  // Checksums are happy; queries would mis-grade bucket 0. Verify() is the
  // countermeasure:
  const Status v = min_sma->Verify();
  EXPECT_EQ(v.code(), StatusCode::kCorruption) << v.ToString();
  EXPECT_FALSE(min_sma->trusted());

  // The distrust flag demotes plans...
  const PlanChoice demoted = Unwrap(planner.Choose(query));
  EXPECT_EQ(demoted.kind, PlanKind::kScanAggr);
  EXPECT_NE(demoted.explanation.find("distrusted"), std::string::npos);
  EXPECT_EQ(Unwrap(planner.Execute(query)).ToString(), expected);

  // ...VerifyAll counts the casualty, and Rebuild() repairs it.
  sma::SmaMaintainer maintainer(table, smas.get());
  EXPECT_EQ(Unwrap(maintainer.VerifyAll()), 1u);
  ExpectOk(maintainer.Rebuild());
  EXPECT_TRUE(min_sma->trusted());
  EXPECT_EQ(Unwrap(maintainer.VerifyAll()), 0u);
  EXPECT_EQ(Unwrap(planner.Choose(query)).kind, PlanKind::kSmaGAggr);
  EXPECT_EQ(Unwrap(planner.Execute(query)).ToString(), expected);
}

// Execute()'s runtime rung: the SMA plan passes planning (grading reads
// only the pristine min/max SMAs), dies mid-run on a corrupt *aggregate*
// SMA-file, and the query transparently reruns as a sequential scan —
// condemning the corrupt SMA for the next Rebuild().
TEST_P(FaultQueryTest, ExecuteFallsBackWhenSmaPlanDiesMidRun) {
  Setup(testing::Layout::kClustered, "fb");
  query.pred = DatePred(CmpOp::kLe, 40);
  Planner planner(smas.get());
  const std::string expected = Reference(planner);
  ASSERT_EQ(Unwrap(planner.Choose(query)).kind, PlanKind::kSmaGAggr);

  // Corrupt a stored page of sum_v's first group file. Grading never reads
  // it, so Choose() still picks kSmaGAggr; the run does, and fails.
  ExpectOk(db.pool.FlushAll());
  ExpectOk(db.pool.DropAll());
  const FileId sum_file = Unwrap(db.disk.FindFile("sma.fb.sum_v.g0"));
  ExpectOk(db.disk.CorruptPageForTesting(sum_file, 0, 7));

  const QueryResult result = Unwrap(planner.Execute(query));
  EXPECT_EQ(result.ToString(), expected);
  EXPECT_EQ(result.plan.kind, PlanKind::kScanAggr);
  EXPECT_NE(result.plan.explanation.find("demoted"), std::string::npos)
      << result.plan.explanation;
  EXPECT_FALSE(Unwrap(smas->Find("sum_v"))->trusted());
}

// Governor x fault interaction: a user cancel that lands while the storage
// layer is absorbing transient read faults must not race the retry loop —
// the bounded retries complete (stats prove they ran), and the query then
// stops with kCancelled at its next checkpoint. Order matters: retry first,
// cancel second, never a torn page surfacing as a different error.
TEST_P(FaultQueryTest, CancelDuringTransientRetryFinishesRetryThenCancels) {
  Setup(testing::Layout::kNoisy, "cr");
  query.pred = DatePred(CmpOp::kLe, 120);
  Planner planner(smas.get());
  ExpectOk(db.pool.FlushAll());
  ExpectOk(db.pool.DropAll());
  db.pool.ResetStats();
  // Two transient base-page read faults, absorbed early in the scan...
  util::fault::Arm("disk.read", {.count = 2,
                                 .kind = FaultKind::kTransient,
                                 .file_filter = "tbl."});
  // ...and a cancel delivered at the first per-batch checkpoint, which
  // comes after the first pinned run has absorbed both faults.
  util::fault::Arm("governor.cancel",
                   {.count = 1, .file_filter = "StretchReader"});
  util::QueryContext ctx;
  auto op = Unwrap(planner.Build(query, PlanKind::kScanAggr, 1));
  op->BindContext(&ctx);
  auto run = RunToCompletion(op.get(), &ctx);
  util::fault::DisarmAll();
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kCancelled)
      << run.status().ToString();
  EXPECT_EQ(db.pool.stats().read_retries, 2u)
      << "the transient faults must be retried away before the cancel lands";
}

// Governor x fault: the memory budget gives out during the parallel merge
// phase (component "GroupTable.merge") — after the workers finished their
// partials. The failure is still the typed kResourceExhausted naming the
// merge component; no partial merge escapes as a result.
TEST_P(FaultQueryTest, BudgetExhaustedMidMergeFailsTypedNamingComponent) {
  Setup(testing::Layout::kNoisy, "bm");
  query.pred = DatePred(CmpOp::kLe, 120);
  query.group_by = {0};  // unique key: every worker's partial must merge
  Planner planner(smas.get());
  util::fault::Arm("governor.charge", {.file_filter = "GroupTable.merge"});
  util::QueryContext ctx;
  auto op = Unwrap(planner.Build(query, PlanKind::kScanAggr, 4));
  op->BindContext(&ctx);
  auto run = RunToCompletion(op.get(), &ctx);
  util::fault::DisarmAll();
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted)
      << run.status().ToString();
  EXPECT_NE(run.status().message().find("GroupTable.merge"),
            std::string::npos)
      << run.status().ToString();
}

// SMADB_DCHECK: violated tuple-accessor invariants fail stop with a
// diagnostic (instead of undefined behaviour) even in release builds.
TEST(DcheckDeathTest, TupleTypeConfusionFailsStop) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const storage::Schema schema = testing::SyntheticSchema();
  storage::TupleBuffer t(&schema);
  // Column 0 is int64; the int32 setter violates the typed precondition.
  EXPECT_DEATH(t.SetInt32(0, 7), "DCHECK failed");
  EXPECT_DEATH(t.AsRef().GetInt32(0), "DCHECK failed");
}

}  // namespace
}  // namespace smadb::plan
