// Morsel-parallel execution tests:
//
//   * ThreadPool        — ParallelFor coverage, inline dop=1, error
//                         propagation, shared-pool identity.
//   * BufferPool        — many threads fetching/evicting through one pool
//                         smaller than the working set.
//   * DOP equivalence   — the property the refactor rests on: for random
//                         predicates over a generated LINEITEM sample,
//                         every plan produces identical rows and an
//                         identical bucket census at DOP 1, 2, and 8.
//   * Planner/Database  — per-plan DOP choice, `set dop = n`.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

#include "db/database.h"
#include "exec/parallel_aggr.h"
#include "exec/sma_gaggr.h"
#include "planner/planner.h"
#include "tests/test_util.h"
#include "tpch/loader.h"
#include "util/thread_pool.h"
#include "workloads/q1.h"

namespace smadb {
namespace {

using exec::ParallelScanAggr;
using exec::SmaGAggr;
using exec::SmaScanStats;
using expr::CmpOp;
using expr::Predicate;
using expr::PredicatePtr;
using storage::TupleRef;
using testing::DrainRows;
using testing::ExpectOk;
using testing::Sorted;
using testing::TestDb;
using testing::Unwrap;
using util::Status;
using util::ThreadPool;
using util::Value;

// ------------------------------------------------------------ ThreadPool --

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(8);
  constexpr uint64_t kN = 20000;
  std::vector<std::atomic<int>> hits(kN);
  ExpectOk(pool.ParallelFor(0, kN, 8, [&](size_t w, uint64_t i) {
    EXPECT_LT(w, 8u);
    hits[i].fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }));
  for (uint64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, DopOneRunsInlineOnTheCaller) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  uint64_t count = 0;
  ExpectOk(pool.ParallelFor(10, 20, 1, [&](size_t w, uint64_t i) {
    EXPECT_EQ(w, 0u);
    EXPECT_GE(i, 10u);
    EXPECT_LT(i, 20u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++count;
    return Status::OK();
  }));
  EXPECT_EQ(count, 10u);
}

TEST(ThreadPoolTest, EmptyRangeNeverInvokes) {
  ThreadPool pool(2);
  ExpectOk(pool.ParallelFor(5, 5, 4, [&](size_t, uint64_t) {
    ADD_FAILURE() << "called on empty range";
    return Status::OK();
  }));
}

TEST(ThreadPoolTest, FirstErrorIsPropagated) {
  ThreadPool pool(4);
  const Status s = pool.ParallelFor(0, 1000, 4, [&](size_t, uint64_t i) {
    if (i == 137) return Status::Internal("morsel 137 failed");
    return Status::OK();
  });
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("morsel 137 failed"), std::string::npos);
}

TEST(ThreadPoolTest, SharedPoolIsASingleton) {
  ThreadPool* a = ThreadPool::Shared();
  ThreadPool* b = ThreadPool::Shared();
  EXPECT_EQ(a, b);
  EXPECT_GE(a->num_threads(), 1u);
}

// ------------------------------------------------ concurrent BufferPool --

TEST(BufferPoolConcurrencyTest, ParallelScansThroughTinyPoolSeeEveryTuple) {
  // A pool far smaller than the table: constant concurrent eviction.
  TestDb db(32);
  constexpr int64_t kRows = 20000;
  storage::Table* t = testing::MakeSyntheticTable(&db, kRows,
                                                  testing::Layout::kRandom,
                                                  /*seed=*/3);
  ASSERT_GT(t->num_pages(), 32u) << "table must not fit in the pool";
  db.pool.ResetStats();

  ThreadPool pool(8);
  std::atomic<int64_t> tuples{0};
  std::atomic<int64_t> key_sum{0};
  ExpectOk(pool.ParallelFor(0, t->num_buckets(), 8, [&](size_t, uint64_t b) {
    int64_t local_tuples = 0;
    int64_t local_sum = 0;
    SMADB_RETURN_NOT_OK(t->ForEachTupleInBucket(
        static_cast<uint32_t>(b), [&](const TupleRef& tup, storage::Rid) {
          ++local_tuples;
          local_sum += tup.GetValue(0).AsInt64();
        }));
    tuples.fetch_add(local_tuples, std::memory_order_relaxed);
    key_sum.fetch_add(local_sum, std::memory_order_relaxed);
    return Status::OK();
  }));

  EXPECT_EQ(tuples.load(), kRows);
  EXPECT_EQ(key_sum.load(), kRows * (kRows - 1) / 2);  // keys are 0..n-1
  const storage::PoolStats stats = db.pool.stats();
  EXPECT_GT(stats.evictions, 0u) << "pool never evicted: not under pressure";
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(t->num_pages()));
}

TEST(BufferPoolConcurrencyTest, RepeatedParallelReadsStayConsistent) {
  TestDb db(64);
  storage::Table* t = testing::MakeSyntheticTable(&db, 2000,
                                                  testing::Layout::kClustered,
                                                  /*seed=*/17);
  ThreadPool pool(8);
  for (int round = 0; round < 4; ++round) {
    std::atomic<int64_t> tuples{0};
    ExpectOk(pool.ParallelFor(0, t->num_buckets(), 8,
                              [&](size_t, uint64_t b) {
                                int64_t local = 0;
                                SMADB_RETURN_NOT_OK(t->ForEachTupleInBucket(
                                    static_cast<uint32_t>(b),
                                    [&](const TupleRef&, storage::Rid) {
                                      ++local;
                                    }));
                                tuples.fetch_add(local);
                                return Status::OK();
                              }));
    ASSERT_EQ(tuples.load(), 2000) << "round " << round;
  }
}

// ---------------------------------------------------- DOP equivalence ----

bool SameCensus(const SmaScanStats& a, const SmaScanStats& b) {
  return a.qualifying_buckets == b.qualifying_buckets &&
         a.disqualifying_buckets == b.disqualifying_buckets &&
         a.ambivalent_buckets == b.ambivalent_buckets;
}

/// LINEITEM sample (~6k rows, diagonal clustering) with the Fig. 4 SMAs.
struct LineItemFixture {
  TestDb db{16384};
  storage::Table* table = nullptr;
  std::unique_ptr<sma::SmaSet> smas;

  LineItemFixture() {
    tpch::DbgenOptions gen;
    gen.scale_factor = 0.001;
    tpch::LoadOptions load;
    load.mode = tpch::ClusterMode::kDiagonal;
    load.bucket_pages = 2;
    table = Unwrap(tpch::GenerateAndLoadLineItem(&db.catalog, gen, load));
    smas = std::make_unique<sma::SmaSet>(table);
    ExpectOk(workloads::BuildQ1Smas(table, smas.get()));
  }
};

TEST(DopEquivalenceTest, RandomPredicatesSameRowsAndCensusAcrossDop) {
  LineItemFixture fx;
  plan::AggQuery query = Unwrap(workloads::MakeQ1Query(fx.table));

  // Random shipdate predicates spanning never / sometimes / always true.
  util::Rng rng(0xD0B);
  const CmpOp ops[] = {CmpOp::kLe, CmpOp::kGt, CmpOp::kLt, CmpOp::kGe};
  for (int trial = 0; trial < 6; ++trial) {
    const int32_t day =
        tpch::kStartDate.days() +
        static_cast<int32_t>(rng.Uniform(-30, 2600));
    const CmpOp op = ops[rng.Uniform(0, 3)];
    query.pred = Unwrap(Predicate::AtomConst(
        &fx.table->schema(), "l_shipdate", op,
        Value::MakeDate(util::Date(day))));

    // SMA_GAggr at DOP 1 (the pre-refactor serial engine) is the reference.
    exec::SmaGAggrOptions serial_opts;
    auto reference = Unwrap(SmaGAggr::Make(fx.table, query.pred,
                                           query.group_by, query.aggs,
                                           fx.smas.get(), serial_opts));
    const std::vector<std::string> want_rows =
        Sorted(DrainRows(reference.get()));
    const SmaScanStats want_census = reference->stats();

    for (size_t dop : {size_t{1}, size_t{2}, size_t{8}}) {
      exec::SmaGAggrOptions opts;
      opts.degree_of_parallelism = dop;
      auto gaggr = Unwrap(SmaGAggr::Make(fx.table, query.pred,
                                         query.group_by, query.aggs,
                                         fx.smas.get(), opts));
      EXPECT_EQ(Sorted(DrainRows(gaggr.get())), want_rows)
          << "SMA_GAggr trial " << trial << " dop " << dop;
      EXPECT_TRUE(SameCensus(gaggr->stats(), want_census))
          << "SMA_GAggr census trial " << trial << " dop " << dop;

      auto scan_aggr = Unwrap(ParallelScanAggr::Make(
          fx.table, query.pred, query.group_by, query.aggs, fx.smas.get(), dop));
      EXPECT_EQ(Sorted(DrainRows(scan_aggr.get())), want_rows)
          << "ParallelScanAggr trial " << trial << " dop " << dop;
      EXPECT_TRUE(SameCensus(scan_aggr->stats(), want_census))
          << "ParallelScanAggr census trial " << trial << " dop " << dop;

      // Without SMAs: full parallel scan, same rows (census all-ambivalent).
      auto full = Unwrap(ParallelScanAggr::Make(
          fx.table, query.pred, query.group_by, query.aggs,
          /*smas=*/nullptr, dop));
      EXPECT_EQ(Sorted(DrainRows(full.get())), want_rows)
          << "full-scan trial " << trial << " dop " << dop;
      EXPECT_EQ(full->stats().ambivalent_buckets, fx.table->num_buckets());
    }
  }
}

TEST(DopEquivalenceTest, PlannerBuildMatchesAcrossKindsAndDop) {
  LineItemFixture fx;
  plan::Planner planner(fx.smas.get());
  plan::AggQuery query = Unwrap(workloads::MakeQ1Query(fx.table));

  auto reference =
      Unwrap(planner.Build(query, plan::PlanKind::kScanAggr, /*dop=*/1));
  const std::vector<std::string> want = Sorted(DrainRows(reference.get()));

  for (plan::PlanKind kind :
       {plan::PlanKind::kScanAggr, plan::PlanKind::kSmaScanAggr,
        plan::PlanKind::kSmaGAggr}) {
    for (size_t dop : {size_t{1}, size_t{2}, size_t{8}}) {
      auto op = Unwrap(planner.Build(query, kind, dop));
      EXPECT_EQ(Sorted(DrainRows(op.get())), want)
          << plan::PlanKindToString(kind) << " dop " << dop;
    }
  }
}

// ------------------------------------------------------ planner & db -----

TEST(PlannerDopTest, ChoiceReportsDopAndTinyTablesStaySerial) {
  TestDb db(4096);
  // 16 rows → one bucket: must stay serial whatever was requested.
  storage::Table* tiny = testing::MakeSyntheticTable(
      &db, 16, testing::Layout::kClustered, /*seed=*/5, /*bucket_pages=*/1,
      "tiny");
  sma::SmaSet smas(tiny);
  testing::AddMinMaxSmas(tiny, &smas, "d");

  plan::PlannerOptions options;
  options.degree_of_parallelism = 8;
  plan::Planner planner(&smas, options);

  plan::AggQuery query;
  query.table = tiny;
  query.pred = Predicate::True();
  query.aggs.push_back(exec::AggSpec::Count("n"));
  const plan::PlanChoice choice = Unwrap(planner.Choose(query));
  EXPECT_EQ(choice.dop, 1u) << choice.explanation;
  EXPECT_NE(choice.explanation.find("dop=1"), std::string::npos)
      << choice.explanation;
}

TEST(PlannerDopTest, LargeScanGetsRequestedDop) {
  LineItemFixture fx;
  plan::PlannerOptions options;
  options.degree_of_parallelism = 4;
  plan::Planner planner(nullptr, options);  // no SMAs → full scan

  plan::AggQuery query = Unwrap(workloads::MakeQ1Query(fx.table));
  const plan::PlanChoice choice = Unwrap(planner.Choose(query));
  EXPECT_EQ(choice.kind, plan::PlanKind::kScanAggr);
  EXPECT_EQ(choice.dop, 4u) << choice.explanation;

  // And execution at that DOP equals the serial result.
  plan::PlannerOptions serial;
  serial.degree_of_parallelism = 1;
  plan::Planner serial_planner(nullptr, serial);
  const plan::QueryResult parallel_result =
      Unwrap(planner.Execute(query));
  const plan::QueryResult serial_result =
      Unwrap(serial_planner.Execute(query));
  ASSERT_EQ(parallel_result.rows.size(), serial_result.rows.size());
  EXPECT_EQ(parallel_result.ToString(), serial_result.ToString());
}

TEST(PlannerDopTest, ExecuteSelectMirrorsExecute) {
  TestDb db(4096);
  storage::Table* t = testing::MakeSyntheticTable(
      &db, 4000, testing::Layout::kClustered, /*seed=*/23);
  sma::SmaSet smas(t);
  testing::AddMinMaxSmas(t, &smas, "d");
  plan::Planner planner(&smas);

  plan::SelectQuery query;
  query.table = t;
  query.pred = Unwrap(Predicate::AtomConst(&t->schema(), "d", CmpOp::kLe,
                                           Value::MakeDate(util::Date(30))));
  const plan::QueryResult result = Unwrap(planner.ExecuteSelect(query));
  EXPECT_EQ(result.plan.kind, plan::PlanKind::kSmaScan);
  EXPECT_FALSE(result.plan.explanation.empty());

  // Same rows as Choose + BuildSelect + RunToCompletion by hand.
  auto op = Unwrap(planner.BuildSelect(query, result.plan.kind));
  const plan::QueryResult manual = Unwrap(plan::RunToCompletion(op.get()));
  EXPECT_EQ(result.ToString(), manual.ToString());
}

TEST(DatabaseDopTest, SetDopStatementControlsSessionParallelism) {
  db::Database database;
  ExpectOk(database
               .CreateTable("t", testing::SyntheticSchema())
               .status());
  storage::TupleBuffer tuple(
      &Unwrap(database.GetTable("t"))->schema());
  for (int64_t i = 0; i < 500; ++i) {
    tuple.SetInt64(0, i);
    tuple.SetDate(1, util::Date(static_cast<int32_t>(i / 8)));
    tuple.SetDecimal(2, util::Decimal(i * 3));
    tuple.SetString(3, i % 2 == 0 ? "A" : "B");
    tuple.SetString(4, "MAIL");
    ExpectOk(database.Insert("t", tuple));
  }

  const std::string sql =
      "select grp, count(*), sum(v) from t where d <= '1970-01-31' "
      "group by grp";
  const plan::QueryResult serial = Unwrap(database.Query(sql));

  ExpectOk(database.Execute("set dop = 8"));
  EXPECT_EQ(database.degree_of_parallelism(), 8u);
  const plan::QueryResult parallel = Unwrap(database.Query(sql));
  EXPECT_EQ(serial.ToString(), parallel.ToString());

  ExpectOk(database.Execute("set dop = 0"));  // back to auto
  EXPECT_EQ(database.degree_of_parallelism(), 0u);

  EXPECT_FALSE(database.Execute("set dop = -1").ok());
  EXPECT_FALSE(database.Execute("set fanout = 2").ok());
}

}  // namespace
}  // namespace smadb
