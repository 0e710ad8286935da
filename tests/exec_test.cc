// Tests for the physical operators: TableScan, SMA_Scan (Fig. 6), GAggr,
// SMA_GAggr (Fig. 7). The central properties: SMA_Scan ≡ TableScan and
// SMA_GAggr ≡ GAggr on every layout and predicate.

#include <gtest/gtest.h>

#include <map>

#include "exec/gaggr.h"
#include "exec/sma_gaggr.h"
#include "exec/sma_scan.h"
#include "exec/sort.h"
#include "exec/table_scan.h"
#include "tests/test_util.h"

namespace smadb::exec {
namespace {

using expr::CmpOp;
using expr::Predicate;
using expr::PredicatePtr;
using sma::SmaSpec;
using storage::TupleRef;
using testing::AddMinMaxSmas;
using testing::DrainRows;
using testing::ExpectOk;
using testing::MakeSyntheticTable;
using testing::TestDb;
using testing::Unwrap;
using util::Value;

struct ExecTest : ::testing::Test {
  ExecTest() : db(16384) {}
  TestDb db;
};

// ------------------------------------------------------------- TableScan --

TEST_F(ExecTest, TableScanSeesAllTuples) {
  storage::Table* t =
      MakeSyntheticTable(&db, 1234, testing::Layout::kRandom);
  TableScan scan(t, Predicate::True());
  EXPECT_EQ(DrainRows(&scan).size(), 1234u);
}

TEST_F(ExecTest, TableScanEmptyTable) {
  storage::Table* t = Unwrap(
      db.catalog.CreateTable("empty", testing::SyntheticSchema(), {}));
  TableScan scan(t, Predicate::True());
  EXPECT_TRUE(DrainRows(&scan).empty());
}

TEST_F(ExecTest, TableScanFiltersExactly) {
  storage::Table* t =
      MakeSyntheticTable(&db, 1000, testing::Layout::kRandom);
  const PredicatePtr pred = Unwrap(Predicate::AtomConst(
      &t->schema(), "k", CmpOp::kLt, Value::Int64(100)));
  TableScan scan(t, pred);
  EXPECT_EQ(DrainRows(&scan).size(), 100u);
}

TEST_F(ExecTest, TableScanRestartable) {
  storage::Table* t =
      MakeSyntheticTable(&db, 300, testing::Layout::kRandom);
  TableScan scan(t, Predicate::True());
  EXPECT_EQ(DrainRows(&scan).size(), 300u);
  EXPECT_EQ(DrainRows(&scan).size(), 300u);  // Init() resets
}

// --------------------------------------------------------------- SmaScan --

TEST_F(ExecTest, SmaScanEquivalentToTableScan) {
  for (auto layout : {testing::Layout::kClustered, testing::Layout::kNoisy,
                      testing::Layout::kRandom}) {
    storage::Table* t = MakeSyntheticTable(
        &db, 3000, layout, 23, 1,
        "sst" + std::to_string(static_cast<int>(layout)));
    sma::SmaSet smas(t);
    AddMinMaxSmas(t, &smas, "d");
    util::Rng rng(9);
    for (int trial = 0; trial < 10; ++trial) {
      const CmpOp op = static_cast<CmpOp>(rng.Uniform(0, 5));
      const int32_t c = static_cast<int32_t>(rng.Uniform(0, 3000 / 8));
      const PredicatePtr pred = Unwrap(Predicate::AtomConst(
          &t->schema(), "d", op, Value::MakeDate(util::Date(c))));
      TableScan plain(t, pred);
      SmaScan pruned(t, pred, &smas);
      EXPECT_EQ(DrainRows(&plain), DrainRows(&pruned))
          << "layout " << static_cast<int>(layout) << " trial " << trial;
    }
  }
}

TEST_F(ExecTest, SmaScanSkipsDisqualifiedBuckets) {
  storage::Table* t =
      MakeSyntheticTable(&db, 4000, testing::Layout::kClustered);
  sma::SmaSet smas(t);
  AddMinMaxSmas(t, &smas, "d");
  const PredicatePtr pred = Unwrap(Predicate::AtomConst(
      &t->schema(), "d", CmpOp::kLe, Value::MakeDate(util::Date(50))));

  ExpectOk(db.pool.DropAll());
  db.disk.ResetStats();
  SmaScan scan(t, pred, &smas);
  const size_t rows = DrainRows(&scan).size();
  EXPECT_GT(rows, 0u);
  EXPECT_GT(scan.stats().disqualifying_buckets, 0u);
  // Page reads must be far below the table size (SMA files + fetched
  // buckets only).
  EXPECT_LT(db.disk.stats().page_reads, t->num_pages() / 2);
  // Stats partition the buckets.
  EXPECT_EQ(scan.stats().BucketsTotal(), t->num_buckets());
}

TEST_F(ExecTest, SmaScanWithMultiPageBuckets) {
  storage::Table* t = MakeSyntheticTable(&db, 5000,
                                         testing::Layout::kClustered, 7,
                                         /*bucket_pages=*/4, "mpb");
  sma::SmaSet smas(t);
  AddMinMaxSmas(t, &smas, "d");
  const PredicatePtr pred = Unwrap(Predicate::AtomConst(
      &t->schema(), "d", CmpOp::kGe, Value::MakeDate(util::Date(300))));
  TableScan plain(t, pred);
  SmaScan pruned(t, pred, &smas);
  EXPECT_EQ(DrainRows(&plain), DrainRows(&pruned));
}

TEST_F(ExecTest, SmaScanOnEmptyTable) {
  storage::Table* t = Unwrap(
      db.catalog.CreateTable("empty2", testing::SyntheticSchema(), {}));
  sma::SmaSet smas(t);
  SmaScan scan(t, Predicate::True(), &smas);
  EXPECT_TRUE(DrainRows(&scan).empty());
}

// ----------------------------------------------------------------- GAggr --

TEST_F(ExecTest, GAggrMatchesBruteForce) {
  storage::Table* t =
      MakeSyntheticTable(&db, 2500, testing::Layout::kRandom);
  const expr::ExprPtr v = Unwrap(expr::Column(&t->schema(), "v"));
  std::vector<AggSpec> aggs = {AggSpec::Sum(v, "sum_v"),
                               AggSpec::Count("cnt"),
                               AggSpec::Avg(v, "avg_v"),
                               AggSpec::Min(v, "min_v"),
                               AggSpec::Max(v, "max_v")};
  auto scan = std::make_unique<TableScan>(t, Predicate::True());
  auto aggr = Unwrap(GAggr::Make(std::move(scan), {3}, aggs));

  // Brute force.
  struct Ref {
    int64_t sum = 0, cnt = 0, mn = INT64_MAX, mx = INT64_MIN;
  };
  std::map<std::string, Ref> ref;
  for (uint32_t b = 0; b < t->num_buckets(); ++b) {
    ExpectOk(t->ForEachTupleInBucket(
        b, [&](const TupleRef& tup, storage::Rid) {
          Ref& r = ref[std::string(tup.GetString(3))];
          const int64_t x = tup.GetRawInt(2);
          r.sum += x;
          ++r.cnt;
          r.mn = std::min(r.mn, x);
          r.mx = std::max(r.mx, x);
        }));
  }

  const plan::QueryResult result = Unwrap(plan::RunToCompletion(aggr.get()));
  for (const storage::TupleBuffer& buf : result.rows) {
    const TupleRef row = buf.AsRef();
    const std::string key(row.GetString(0));
    ASSERT_TRUE(ref.count(key));
    const Ref& r = ref[key];
    EXPECT_EQ(row.GetDecimal(1).cents(), r.sum);
    EXPECT_EQ(row.GetInt64(2), r.cnt);
    EXPECT_NEAR(row.GetDouble(3),
                (static_cast<double>(r.sum) / 100.0) /
                    static_cast<double>(r.cnt),
                1e-9);
    EXPECT_EQ(row.GetDecimal(4).cents(), r.mn);
    EXPECT_EQ(row.GetDecimal(5).cents(), r.mx);
  }
  EXPECT_EQ(result.rows.size(), ref.size());
}

TEST_F(ExecTest, GAggrGlobalAggregation) {
  storage::Table* t =
      MakeSyntheticTable(&db, 777, testing::Layout::kRandom);
  auto scan = std::make_unique<TableScan>(t, Predicate::True());
  auto aggr =
      Unwrap(GAggr::Make(std::move(scan), {}, {AggSpec::Count("n")}));
  const plan::QueryResult result = Unwrap(plan::RunToCompletion(aggr.get()));
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0].AsRef().GetInt64(0), 777);
}

TEST_F(ExecTest, GAggrOutputSortedByGroupKey) {
  storage::Table* t =
      MakeSyntheticTable(&db, 900, testing::Layout::kRandom);
  auto scan = std::make_unique<TableScan>(t, Predicate::True());
  auto aggr =
      Unwrap(GAggr::Make(std::move(scan), {3}, {AggSpec::Count("n")}));
  const auto rows = DrainRows(aggr.get());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
}

TEST_F(ExecTest, GAggrValidation) {
  storage::Table* t =
      MakeSyntheticTable(&db, 10, testing::Layout::kRandom);
  auto scan = std::make_unique<TableScan>(t, Predicate::True());
  // No aggregates.
  EXPECT_FALSE(GAggr::Make(std::move(scan), {3}, {}).ok());
  // Aggregate over a string column.
  auto scan2 = std::make_unique<TableScan>(t, Predicate::True());
  const expr::ExprPtr tag = Unwrap(expr::Column(&t->schema(), "tag"));
  EXPECT_FALSE(
      GAggr::Make(std::move(scan2), {}, {AggSpec::Sum(tag, "s")}).ok());
}

// -------------------------------------------------------------- SmaGAggr --

struct Q1LikeSetup {
  storage::Table* table;
  std::unique_ptr<sma::SmaSet> smas;
  std::vector<AggSpec> aggs;
  std::vector<size_t> group_by{3};

  Q1LikeSetup(TestDb* db, testing::Layout layout, const std::string& name,
              int64_t rows = 4000) {
    table = MakeSyntheticTable(db, rows, layout, 31, 1, name);
    smas = std::make_unique<sma::SmaSet>(table);
    AddMinMaxSmas(table, smas.get(), "d");
    const expr::ExprPtr v = Unwrap(expr::Column(&table->schema(), "v"));
    ExpectOk(smas->Add(Unwrap(
        sma::BuildSma(table, SmaSpec::Sum("sum_v", v, {3})))));
    ExpectOk(smas->Add(Unwrap(
        sma::BuildSma(table, SmaSpec::Count("cnt", {3})))));
    ExpectOk(smas->Add(Unwrap(
        sma::BuildSma(table, SmaSpec::Min("min_v", v, {3})))));
    ExpectOk(smas->Add(Unwrap(
        sma::BuildSma(table, SmaSpec::Max("max_v", v, {3})))));
    aggs = {AggSpec::Sum(v, "sum_v"), AggSpec::Count("cnt"),
            AggSpec::Avg(v, "avg_v"), AggSpec::Min(v, "min_v"),
            AggSpec::Max(v, "max_v")};
  }
};

TEST_F(ExecTest, SmaGAggrEquivalentToGAggrAllLayoutsAndOps) {
  int tid = 0;
  for (auto layout : {testing::Layout::kClustered, testing::Layout::kNoisy,
                      testing::Layout::kRandom}) {
    Q1LikeSetup setup(&db, layout, "qg" + std::to_string(tid++));
    util::Rng rng(41);
    for (int trial = 0; trial < 8; ++trial) {
      const CmpOp op = static_cast<CmpOp>(rng.Uniform(0, 5));
      const int32_t c = static_cast<int32_t>(rng.Uniform(0, 4000 / 8));
      const PredicatePtr pred = Unwrap(Predicate::AtomConst(
          &setup.table->schema(), "d", op,
          Value::MakeDate(util::Date(c))));

      auto scan = std::make_unique<TableScan>(setup.table, pred);
      auto ref =
          Unwrap(GAggr::Make(std::move(scan), setup.group_by, setup.aggs));
      auto smag = Unwrap(SmaGAggr::Make(setup.table, pred, setup.group_by,
                                        setup.aggs, setup.smas.get()));
      EXPECT_EQ(DrainRows(ref.get()), DrainRows(smag.get()))
          << "layout " << static_cast<int>(layout) << " op "
          << static_cast<int>(op) << " c=" << c;
    }
  }
}

TEST_F(ExecTest, SmaGAggrUsesSummariesNotTuples) {
  // Large enough that the table dwarfs the (14-page) SMA complement.
  Q1LikeSetup setup(&db, testing::Layout::kClustered, "qgsum", 16000);
  // Predicate selecting ~everything: almost all buckets qualify.
  const PredicatePtr pred = Unwrap(Predicate::AtomConst(
      &setup.table->schema(), "d", CmpOp::kGe,
      Value::MakeDate(util::Date(0))));
  ExpectOk(db.pool.DropAll());
  db.disk.ResetStats();
  auto smag = Unwrap(SmaGAggr::Make(setup.table, pred, setup.group_by,
                                    setup.aggs, setup.smas.get()));
  DrainRows(smag.get());
  EXPECT_GT(smag->stats().qualifying_buckets,
            setup.table->num_buckets() - 3);
  // Only SMA pages read; base table untouched except ambivalent buckets.
  EXPECT_LT(db.disk.stats().page_reads, setup.table->num_pages() / 4);
}

TEST_F(ExecTest, SmaGAggrRequiresCountSma) {
  storage::Table* t =
      MakeSyntheticTable(&db, 500, testing::Layout::kClustered, 3, 1, "nocnt");
  sma::SmaSet smas(t);
  AddMinMaxSmas(t, &smas, "d");
  const expr::ExprPtr v = Unwrap(expr::Column(&t->schema(), "v"));
  ExpectOk(smas.Add(Unwrap(sma::BuildSma(t, SmaSpec::Sum("s", v, {3})))));
  auto r = SmaGAggr::Make(t, Predicate::True(), {3},
                          {AggSpec::Sum(v, "s")}, &smas);
  EXPECT_EQ(r.status().code(), util::StatusCode::kNotSupported);
}

TEST_F(ExecTest, SmaGAggrRequiresMatchingAggregates) {
  storage::Table* t = MakeSyntheticTable(&db, 500,
                                         testing::Layout::kClustered, 3, 1,
                                         "nomatch");
  sma::SmaSet smas(t);
  const expr::ExprPtr v = Unwrap(expr::Column(&t->schema(), "v"));
  ExpectOk(smas.Add(Unwrap(sma::BuildSma(t, SmaSpec::Count("c", {3})))));
  // sum(v) has no SMA -> NotSupported.
  auto r = SmaGAggr::Make(t, Predicate::True(), {3},
                          {AggSpec::Sum(v, "s")}, &smas);
  EXPECT_EQ(r.status().code(), util::StatusCode::kNotSupported);
}

TEST_F(ExecTest, SmaGAggrFinerGroupingRefinesQuery) {
  // SMA grouped by (grp, tag) answers a query grouped by (grp) — §2.3's
  // "or a finer grouping".
  storage::Table* t = MakeSyntheticTable(&db, 3000,
                                         testing::Layout::kClustered, 5, 1,
                                         "finer");
  sma::SmaSet smas(t);
  AddMinMaxSmas(t, &smas, "d");
  const expr::ExprPtr v = Unwrap(expr::Column(&t->schema(), "v"));
  ExpectOk(smas.Add(
      Unwrap(sma::BuildSma(t, SmaSpec::Sum("s", v, {3, 4})))));
  ExpectOk(smas.Add(Unwrap(sma::BuildSma(t, SmaSpec::Count("c", {3, 4})))));

  const PredicatePtr pred = Unwrap(Predicate::AtomConst(
      &t->schema(), "d", CmpOp::kLe, Value::MakeDate(util::Date(200))));
  std::vector<AggSpec> aggs = {AggSpec::Sum(v, "sum_v"),
                               AggSpec::Count("cnt")};
  auto smag = Unwrap(SmaGAggr::Make(t, pred, {3}, aggs, &smas));
  auto scan = std::make_unique<TableScan>(t, pred);
  auto ref = Unwrap(GAggr::Make(std::move(scan), {3}, aggs));
  EXPECT_EQ(DrainRows(ref.get()), DrainRows(smag.get()));
}

TEST_F(ExecTest, SmaGAggrDropsGroupsWithNoQualifyingTuples) {
  // Put group "Z" only in the first bucket, then disqualify that bucket.
  storage::Table* t = MakeSyntheticTable(&db, 2000,
                                         testing::Layout::kClustered, 5, 1,
                                         "dropz");
  // First tuple of bucket 0 becomes group Z (d stays small).
  ExpectOk(t->UpdateColumn(storage::Rid{0, 0}, 3, Value::String("Z")));
  sma::SmaSet smas(t);
  AddMinMaxSmas(t, &smas, "d");
  const expr::ExprPtr v = Unwrap(expr::Column(&t->schema(), "v"));
  ExpectOk(smas.Add(Unwrap(sma::BuildSma(t, SmaSpec::Sum("s", v, {3})))));
  ExpectOk(smas.Add(Unwrap(sma::BuildSma(t, SmaSpec::Count("c", {3})))));

  // Predicate excludes the low dates (bucket 0 disqualifies).
  const PredicatePtr pred = Unwrap(Predicate::AtomConst(
      &t->schema(), "d", CmpOp::kGe, Value::MakeDate(util::Date(100))));
  std::vector<AggSpec> aggs = {AggSpec::Sum(v, "s"), AggSpec::Count("c")};
  auto smag = Unwrap(SmaGAggr::Make(t, pred, {3}, aggs, &smas));
  for (const std::string& row : DrainRows(smag.get())) {
    EXPECT_EQ(row.find("Z|"), std::string::npos)
        << "group Z has no qualifying tuples but appeared: " << row;
  }
}

// ------------------------------------------------------------------ Sort --

TEST_F(ExecTest, SortOrdersAscendingAndDescending) {
  storage::Table* t =
      MakeSyntheticTable(&db, 500, testing::Layout::kRandom, 3, 1, "sorted");
  auto asc = Unwrap(Sort::Make(
      std::make_unique<TableScan>(t, Predicate::True()),
      {SortKey{1, false}}));
  const plan::QueryResult ascending = Unwrap(plan::RunToCompletion(asc.get()));
  int32_t prev = INT32_MIN;
  for (const storage::TupleBuffer& row : ascending.rows) {
    const int32_t d = static_cast<int32_t>(row.AsRef().GetRawInt(1));
    EXPECT_GE(d, prev);
    prev = d;
  }
  EXPECT_EQ(ascending.rows.size(), 500u);

  auto desc = Unwrap(Sort::Make(
      std::make_unique<TableScan>(t, Predicate::True()),
      {SortKey{1, true}}));
  prev = INT32_MAX;
  for (const storage::TupleBuffer& row :
       Unwrap(plan::RunToCompletion(desc.get())).rows) {
    const int32_t d = static_cast<int32_t>(row.AsRef().GetRawInt(1));
    EXPECT_LE(d, prev);
    prev = d;
  }
}

TEST_F(ExecTest, SortSecondaryKeyAndLimit) {
  storage::Table* t = MakeSyntheticTable(&db, 300, testing::Layout::kRandom,
                                         5, 1, "sorted2");
  auto sorted = Unwrap(Sort::Make(
      std::make_unique<TableScan>(t, Predicate::True()),
      {SortKey{3, false}, SortKey{0, true}}, /*limit=*/20));
  const plan::QueryResult result =
      Unwrap(plan::RunToCompletion(sorted.get()));
  std::string prev_grp;
  int64_t prev_k = INT64_MAX;
  for (const storage::TupleBuffer& buf : result.rows) {
    const TupleRef row = buf.AsRef();
    const std::string grp(row.GetString(3));
    const int64_t k = row.GetInt64(0);
    if (!prev_grp.empty()) {
      EXPECT_GE(grp, prev_grp);
      if (grp == prev_grp) {
        EXPECT_LE(k, prev_k);
      }
    }
    prev_grp = grp;
    prev_k = k;
  }
  EXPECT_EQ(result.rows.size(), 20u);
}

TEST_F(ExecTest, SortValidation) {
  storage::Table* t = MakeSyntheticTable(&db, 10, testing::Layout::kRandom,
                                         9, 1, "sorted3");
  EXPECT_FALSE(
      Sort::Make(std::make_unique<TableScan>(t, Predicate::True()), {}).ok());
  EXPECT_FALSE(Sort::Make(std::make_unique<TableScan>(t, Predicate::True()),
                          {SortKey{99, false}})
                   .ok());
}

}  // namespace
}  // namespace smadb::exec
