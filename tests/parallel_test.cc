// Morsel-parallel execution tests:
//
//   * ThreadPool        — ParallelFor coverage, inline dop=1, error
//                         propagation, shared-pool identity.
//   * BufferPool        — many threads fetching/evicting through one pool
//                         smaller than the working set, page by page and
//                         a run at a time.
//   * DOP equivalence   — the property the refactor rests on: for random
//                         atoms, windows at morsel edges and ORs of windows
//                         over a generated LINEITEM sample, and at the
//                         morsel edges of a synthetic table, every plan
//                         returns the brute-force reference's rows and
//                         census at DOP 1, 2, 4 and 8.
//   * Planner/Database  — per-plan DOP choice, `set dop = n`.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

#include "db/database.h"
#include "exec/batch.h"
#include "exec/bucket_source.h"
#include "exec/sma_gaggr.h"
#include "exec/sma_scan.h"
#include "planner/planner.h"
#include "tests/test_util.h"
#include "tpch/loader.h"
#include "util/thread_pool.h"
#include "workloads/q1.h"

namespace smadb {
namespace {

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
  // A pool far smaller than the table: constant concurrent eviction. Eight
  // workers read it page by page (one bucket per claim), then a run at a
  // time (one morsel of kRunPages pages per claim, through BucketReaders):
  // runs shrink to what the pool can pin, and no worker ever runs out of
  // frames.
  TestDb db(32);
  constexpr int64_t kRows = 40000;
  storage::Table* t = testing::MakeSyntheticTable(&db, kRows,
                                                  testing::Layout::kRandom,
                                                  /*seed=*/3);
  ASSERT_GE(exec::MorselCount(t->num_buckets(), t->bucket_pages()), 8u)
      << "every worker needs a morsel";
  ThreadPool pool(8);
  std::vector<std::unique_ptr<exec::BucketReader>> readers;
  for (int w = 0; w < 8; ++w) {
    readers.push_back(std::make_unique<exec::BucketReader>(t));
  }
  std::vector<exec::Batch> batches(8);
  for (exec::Batch& batch : batches) batch.Configure(&t->schema(), 1024);

  for (const bool runs : {false, true}) {
    SCOPED_TRACE(runs ? "run reads" : "page reads");
    ExpectOk(db.pool.DropAll());
    db.pool.ResetStats();
    std::atomic<int64_t> tuples{0};
    std::atomic<int64_t> key_sum{0};
    const uint64_t claims =
        runs ? exec::MorselCount(t->num_buckets(), t->bucket_pages())
             : t->num_buckets();
    ExpectOk(pool.ParallelFor(0, claims, 8, [&](size_t w, uint64_t i) {
      int64_t local_tuples = 0;
      int64_t local_sum = 0;
      if (!runs) {
        SMADB_RETURN_NOT_OK(t->ForEachTupleInBucket(
            static_cast<uint32_t>(i), [&](const TupleRef& tup, storage::Rid) {
              ++local_tuples;
              local_sum += tup.GetValue(0).AsInt64();
            }));
      } else {
        const uint64_t per = exec::BucketsPerMorsel(t->bucket_pages());
        SMADB_RETURN_NOT_OK(readers[w]->OpenBuckets(
            i * per, std::min<uint64_t>((i + 1) * per, t->num_buckets())));
        while (true) {
          batches[w].cols.Clear();
          SMADB_ASSIGN_OR_RETURN(bool has,
                                 readers[w]->NextBatch(&batches[w].cols));
          if (!has) break;
          for (size_t r = 0; r < batches[w].cols.num_rows(); ++r) {
            local_sum += batches[w].cols.Ints(0)[r];
          }
          local_tuples += static_cast<int64_t>(batches[w].cols.num_rows());
        }
      }
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

using testing::SameCensus;

// Morsels are runs of buckets; tables whose bucket count is no multiple of
// the morsel size end on a short morsel. Scan, SMA_Scan and SMA_GAggr must
// return the brute-force reference's rows and census at every dop.
TEST(DopEquivalenceTest, MorselEdgesMatchReferenceRowsAndCensus) {
  TestDb db(16384);
  for (const uint32_t bucket_pages : {1u, 3u}) {
    SCOPED_TRACE(::testing::Message() << "bucket_pages " << bucket_pages);
    storage::Table* t = testing::MakeSyntheticTable(
        &db, 12000, testing::Layout::kNoisy, /*seed=*/29, bucket_pages,
        "edges" + std::to_string(bucket_pages));
    const uint64_t per = exec::BucketsPerMorsel(bucket_pages);
    ASSERT_GT(t->num_buckets(), 2 * per);
    ASSERT_NE(t->num_buckets() % per, 0u);
    sma::SmaSet smas(t);
    testing::AddMinMaxSmas(t, &smas, "d");
    const expr::ExprPtr v = Unwrap(expr::Column(&t->schema(), "v"));
    ExpectOk(
        smas.Add(Unwrap(sma::BuildSma(t, sma::SmaSpec::Sum("s", v, {3})))));
    ExpectOk(
        smas.Add(Unwrap(sma::BuildSma(t, sma::SmaSpec::Count("c", {3})))));
    const std::vector<exec::AggSpec> aggs = {exec::AggSpec::Sum(v, "sum_v"),
                                             exec::AggSpec::Count("cnt")};
    // d spans about 0..1500 days: all, none, and windows ending in the
    // first, a middle and the last morsel.
    std::vector<PredicatePtr> preds = {Predicate::True()};
    for (const int32_t day : {-5, 40, 700, 1450, 2000}) {
      preds.push_back(Unwrap(Predicate::AtomConst(
          &t->schema(), "d", CmpOp::kLe, Value::MakeDate(util::Date(day)))));
    }
    preds.push_back(Unwrap(Predicate::AtomConst(
        &t->schema(), "d", CmpOp::kGt, Value::MakeDate(util::Date(1000)))));
    for (size_t p = 0; p < preds.size(); ++p) {
      SCOPED_TRACE(::testing::Message() << "pred " << p);
      const std::vector<std::string> want =
          testing::ReferenceAggregate(t, *preds[p], {3}, aggs);
      const SmaScanStats census = testing::ReferenceCensus(t, *preds[p]);
      SmaScanStats all_ambivalent;
      all_ambivalent.ambivalent_buckets = t->num_buckets();
      for (const size_t dop : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
        SCOPED_TRACE(::testing::Message() << "dop " << dop);
        auto scan = Unwrap(
            SmaGAggr::MakeScan(t, preds[p], {3}, aggs, nullptr, dop));
        EXPECT_EQ(Sorted(DrainRows(scan.get())), want);
        EXPECT_TRUE(SameCensus(scan->stats(), all_ambivalent));
        auto sma_scan = Unwrap(
            SmaGAggr::MakeScan(t, preds[p], {3}, aggs, &smas, dop));
        EXPECT_EQ(Sorted(DrainRows(sma_scan.get())), want);
        EXPECT_TRUE(SameCensus(sma_scan->stats(), census));
        exec::SmaGAggrOptions options;
        options.degree_of_parallelism = dop;
        auto gaggr = Unwrap(
            SmaGAggr::Make(t, preds[p], {3}, aggs, &smas, options));
        EXPECT_EQ(Sorted(DrainRows(gaggr.get())), want);
        EXPECT_TRUE(SameCensus(gaggr->stats(), census));
      }
    }
  }
}

/// LINEITEM sample (~6k rows, diagonal clustering) with the Fig. 4 SMAs.
struct LineItemFixture {
  TestDb db{16384};
  storage::Table* table = nullptr;
  std::unique_ptr<sma::SmaSet> smas;

  explicit LineItemFixture(uint32_t bucket_pages = 2) {
    tpch::DbgenOptions gen;
    gen.scale_factor = 0.001;
    tpch::LoadOptions load;
    load.mode = tpch::ClusterMode::kDiagonal;
    load.bucket_pages = bucket_pages;
    table = Unwrap(tpch::GenerateAndLoadLineItem(&db.catalog, gen, load));
    smas = std::make_unique<sma::SmaSet>(table);
    ExpectOk(workloads::BuildQ1Smas(table, smas.get()));
  }
};

/// Smallest l_shipdate (days) in `bucket`.
int32_t MinShipDate(storage::Table* table, uint32_t bucket) {
  int32_t day = INT32_MAX;
  ExpectOk(table->ForEachTupleInBucket(
      bucket, [&](const TupleRef& t, storage::Rid) {
        day = std::min(day, t.GetDate(tpch::lineitem::kShipDate).days());
      }));
  return day;
}

// Every SMA plan against the brute-force reference (rows and census) at
// every dop: random single atoms, two-atom windows whose ends fall inside,
// on and across morsel edges, an OR of two windows, ungrouped min/max
// answered from the min/max SMAs, and a grouped max SMA whose groups are
// absent from most buckets (undefined entries there).
TEST(DopEquivalenceTest, RandomPredicatesSameRowsAndCensusAcrossDop) {
  for (const uint32_t bucket_pages : {1u, 3u}) {
    SCOPED_TRACE(::testing::Message() << "bucket_pages " << bucket_pages);
    LineItemFixture fx(bucket_pages);
    storage::Table* t = fx.table;
    const storage::Schema* schema = &t->schema();
    const uint64_t per = exec::BucketsPerMorsel(bucket_pages);
    ASSERT_GT(t->num_buckets(), 3 * per);

    const expr::ExprPtr shipdate = Unwrap(expr::Column(schema, "l_shipdate"));
    const expr::ExprPtr price =
        Unwrap(expr::Column(schema, "l_extendedprice"));
    const expr::ExprPtr quantity = Unwrap(expr::Column(schema, "l_quantity"));
    const std::vector<size_t> flags = {tpch::lineitem::kReturnFlag,
                                       tpch::lineitem::kLineStatus};
    ExpectOk(fx.smas->Add(Unwrap(
        sma::BuildSma(t, sma::SmaSpec::Max("gmax_price", price, flags)))));
    const sma::Sma* gmax = Unwrap(fx.smas->Find("gmax_price"));
    uint64_t undefined = 0;
    for (size_t g = 0; g < gmax->num_groups(); ++g) {
      for (uint64_t b = 0; b < gmax->num_buckets(); ++b) {
        undefined += gmax->IsUndefined(Unwrap(gmax->group_file(g)->Get(b)));
      }
    }
    ASSERT_GT(undefined, gmax->num_buckets());

    struct Query {
      std::vector<size_t> group_by;
      std::vector<exec::AggSpec> aggs;
    };
    const plan::AggQuery q1 = Unwrap(workloads::MakeQ1Query(t));
    const std::vector<Query> queries = {
        {q1.group_by, q1.aggs},
        {{},
         {exec::AggSpec::Min(shipdate, "first"),
          exec::AggSpec::Max(shipdate, "last"), exec::AggSpec::Count("n")}},
        {flags,
         {exec::AggSpec::Max(price, "max_price"),
          exec::AggSpec::Sum(quantity, "sum_qty"),
          exec::AggSpec::Count("n")}},
    };

    const auto date = [](int32_t day) {
      return Value::MakeDate(util::Date(day));
    };
    const auto atom = [&](CmpOp op, int32_t day) {
      return Unwrap(Predicate::AtomConst(schema, "l_shipdate", op, date(day)));
    };
    const auto window = [&](int32_t from, int32_t to) {
      return Predicate::And(atom(CmpOp::kGe, from), atom(CmpOp::kLt, to));
    };

    // Random shipdate atoms spanning never / sometimes / always true.
    std::vector<PredicatePtr> preds;
    util::Rng rng(0xD0B);
    const CmpOp ops[] = {CmpOp::kLe, CmpOp::kGt, CmpOp::kLt, CmpOp::kGe};
    for (int trial = 0; trial < 6; ++trial) {
      preds.push_back(atom(ops[rng.Uniform(0, 3)],
                           tpch::kStartDate.days() +
                               static_cast<int32_t>(rng.Uniform(-30, 2600))));
    }
    // Windows around the first buckets of morsels 1 and 2: ending on the
    // edge, starting on it, straddling it, inside the morsel, and spanning
    // a whole morsel.
    for (const uint64_t m : {uint64_t{1}, uint64_t{2}}) {
      const int32_t edge = MinShipDate(t, static_cast<uint32_t>(m * per));
      preds.push_back(window(edge - 20, edge));
      preds.push_back(window(edge, edge + 20));
      preds.push_back(window(edge - 9, edge + 9));
      preds.push_back(window(edge + 30, edge + 37));
      preds.push_back(window(edge - 1, MinShipDate(
                                           t, static_cast<uint32_t>(
                                                  (m + 1) * per)) + 1));
    }
    const int32_t mid = MinShipDate(t, static_cast<uint32_t>(2 * per));
    preds.push_back(Predicate::Or(window(mid - 200, mid - 120),
                                  window(mid + 40, mid + 75)));

    SmaScanStats totals;
    for (size_t p = 0; p < preds.size(); ++p) {
      SCOPED_TRACE(::testing::Message() << "pred " << preds[p]->ToString());
      const SmaScanStats census = testing::ReferenceCensus(t, *preds[p]);
      totals.Merge(census);
      // Both selection plans: SMA_Scan and, without SMAs, TableScan.
      const std::vector<std::string> rows =
          testing::ReferenceSelect(t, *preds[p]);
      exec::SmaScan sma_scan(t, preds[p], fx.smas.get());
      EXPECT_EQ(DrainRows(&sma_scan), rows);
      EXPECT_TRUE(SameCensus(sma_scan.stats(), census));
      exec::SmaScan table_scan(t, preds[p], /*smas=*/nullptr);
      EXPECT_EQ(DrainRows(&table_scan), rows);
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        SCOPED_TRACE(::testing::Message() << "query " << qi);
        const Query& q = queries[qi];
        const std::vector<std::string> want =
            testing::ReferenceAggregate(t, *preds[p], q.group_by, q.aggs);
        for (const size_t dop : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
          SCOPED_TRACE(::testing::Message() << "dop " << dop);
          exec::SmaGAggrOptions opts;
          opts.degree_of_parallelism = dop;
          auto gaggr = Unwrap(SmaGAggr::Make(t, preds[p], q.group_by, q.aggs,
                                             fx.smas.get(), opts));
          EXPECT_EQ(Sorted(DrainRows(gaggr.get())), want);
          EXPECT_TRUE(SameCensus(gaggr->stats(), census));

          auto scan_aggr = Unwrap(SmaGAggr::MakeScan(
              t, preds[p], q.group_by, q.aggs, fx.smas.get(), dop));
          EXPECT_EQ(Sorted(DrainRows(scan_aggr.get())), want);
          EXPECT_TRUE(SameCensus(scan_aggr->stats(), census));

          // Without SMAs: full parallel scan, every bucket ambivalent.
          auto full = Unwrap(SmaGAggr::MakeScan(
              t, preds[p], q.group_by, q.aggs, /*smas=*/nullptr, dop));
          EXPECT_EQ(Sorted(DrainRows(full.get())), want);
          EXPECT_EQ(full->stats().ambivalent_buckets, t->num_buckets());
        }
      }
    }
    // The predicates exercise all three grades.
    EXPECT_GT(totals.qualifying_buckets, 0u);
    EXPECT_GT(totals.disqualifying_buckets, 0u);
    EXPECT_GT(totals.ambivalent_buckets, 0u);
  }
}

// Every plan kind is one operator at every dop, dop 1 included: SmaGAggr,
// with the requested dop, and all return the reference's rows.
TEST(DopEquivalenceTest, PlannerBuildMatchesAcrossKindsAndDop) {
  LineItemFixture fx;
  plan::Planner planner(fx.smas.get());
  plan::AggQuery query = Unwrap(workloads::MakeQ1Query(fx.table));
  const std::vector<std::string> want = testing::ReferenceAggregate(
      fx.table, *query.pred, query.group_by, query.aggs);

  for (plan::PlanKind kind :
       {plan::PlanKind::kScanAggr, plan::PlanKind::kSmaScanAggr,
        plan::PlanKind::kSmaGAggr}) {
    for (size_t dop : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      SCOPED_TRACE(::testing::Message()
                   << plan::PlanKindToString(kind) << " dop " << dop);
      auto op = Unwrap(planner.Build(query, kind, dop));
      const auto* aggr = dynamic_cast<SmaGAggr*>(op.get());
      ASSERT_NE(aggr, nullptr);
      EXPECT_EQ(aggr->degree_of_parallelism(), dop);
      EXPECT_EQ(Sorted(DrainRows(op.get())), want);
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

// SMA_GAggr answers qualifying buckets from SMA entries, so only its
// ambivalent buckets are fetch work: when they fit in one morsel the plan
// stays serial, however many buckets qualify.
TEST(PlannerDopTest, SmaGAggrDopCountsOnlyFetchedBuckets) {
  LineItemFixture fx;
  plan::PlannerOptions options;
  options.degree_of_parallelism = 4;
  plan::Planner planner(fx.smas.get(), options);

  plan::AggQuery query = Unwrap(workloads::MakeQ1Query(fx.table));
  const plan::PlanChoice choice = Unwrap(planner.Choose(query));
  ASSERT_EQ(choice.kind, plan::PlanKind::kSmaGAggr) << choice.explanation;
  const uint64_t per = exec::BucketsPerMorsel(fx.table->bucket_pages());
  ASSERT_GT(choice.qualifying, per) << "qualifying buckets span morsels";
  ASSERT_LE(choice.ambivalent, per) << "ambivalent buckets fit one morsel";
  EXPECT_EQ(choice.dop, 1u) << choice.explanation;
  EXPECT_NE(choice.explanation.find("dop=1"), std::string::npos)
      << choice.explanation;
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
