// Batch-execution tests (ctest label `vector`):
//
//   * SelVector unit behaviour — dense fast path, Filter refinement,
//     UnionWith merge.
//   * EvalBatch ≡ Eval — every predicate shape agrees row-for-row with
//     the scalar evaluator, including AND/OR trees and string atoms.
//   * Scans ≡ the row path — SmaScan with and without SMAs (SMA_Scan,
//     TableScan) returns exactly the tuples of the brute-force,
//     tuple-at-a-time reference in tests/test_util.h (and, for range
//     predicates, its bucket census), across predicates × layouts ×
//     consumer batch capacities × bucket sizes.
//   * Aggregation ≡ the row path — SmaGAggr's scan form with and without
//     SMAs (GAggr∘SmaScan, GAggr∘TableScan) and SMA_GAggr produce the
//     reference's groups (and, for range predicates, its bucket census)
//     across predicates × layouts × bucket sizes × DOPs, on tables that end
//     on a short morsel, served through the shared RowEmitter at several
//     consumer batch capacities.
//   * Fault injection — runs return the fault-free rows exactly or a typed
//     error, and mid-run demotion reruns from base data.

#include <gtest/gtest.h>

#include "db/database.h"
#include "db/session.h"
#include "exec/sma_gaggr.h"
#include "exec/sma_scan.h"
#include "planner/planner.h"
#include "tests/test_util.h"
#include "util/fault.h"

namespace smadb {
namespace {

using exec::AggSpec;
using exec::Batch;
using expr::CmpOp;
using expr::Predicate;
using expr::PredicatePtr;
using storage::ColumnBatch;
using storage::SelVector;
using storage::TupleRef;
using testing::AddMinMaxSmas;
using testing::ExpectOk;
using testing::Layout;
using testing::MakeSyntheticTable;
using testing::ReferenceAggregate;
using testing::ReferenceCensus;
using testing::ReferenceSelect;
using testing::RowsOf;
using testing::SameCensus;
using testing::Sorted;
using testing::TestDb;
using testing::Unwrap;
using util::FaultKind;
using util::StatusCode;
using util::Value;

// Serializes a full run pulled with batches of `capacity` rows (full
// projection) — the consumer side of the protocol, which RunToCompletion
// fixes at kDefaultBatchSize.
std::vector<std::string> DrainBatches(exec::Operator* op, size_t capacity) {
  ExpectOk(op->Init());
  std::vector<std::string> rows;
  Batch batch;
  batch.Configure(&op->output_schema(), capacity);
  while (true) {
    auto has = op->NextBatch(&batch);
    EXPECT_TRUE(has.ok()) << has.status().ToString();
    if (!has.ok() || !*has) break;
    for (size_t k = 0; k < batch.sel.count(); ++k) {
      const uint32_t r = batch.sel.row(k);
      std::string row;
      for (size_t c = 0; c < op->output_schema().num_fields(); ++c) {
        row += batch.cols.GetValue(c, r).ToString();
        row += '|';
      }
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

// ------------------------------------------------------- SelVector units --

TEST(SelVectorTest, DenseStateAndAccessors) {
  SelVector sel;
  EXPECT_TRUE(sel.empty());
  sel.SelectAll(5);
  EXPECT_TRUE(sel.dense());
  EXPECT_EQ(sel.count(), 5u);
  EXPECT_EQ(sel.row(3), 3u);
  sel.SelectNone();
  EXPECT_TRUE(sel.empty());
}

TEST(SelVectorTest, FilterKeepingEverythingStaysDense) {
  SelVector sel;
  sel.SelectAll(100);
  sel.Filter([](uint32_t) { return true; });
  EXPECT_TRUE(sel.dense());
  EXPECT_EQ(sel.count(), 100u);
}

TEST(SelVectorTest, FilterMaterializesOnFirstRejection) {
  SelVector sel;
  sel.SelectAll(10);
  sel.Filter([](uint32_t r) { return r % 3 == 0; });  // 0 3 6 9
  EXPECT_FALSE(sel.dense());
  ASSERT_EQ(sel.count(), 4u);
  EXPECT_EQ(sel.row(0), 0u);
  EXPECT_EQ(sel.row(3), 9u);
  sel.Filter([](uint32_t r) { return r >= 3; });  // 3 6 9
  EXPECT_EQ(sel.indices(), (std::vector<uint32_t>{3, 6, 9}));
}

TEST(SelVectorTest, UnionMergesSortedAndDedups) {
  SelVector a;
  a.SelectAll(10);
  a.Filter([](uint32_t r) { return r % 2 == 0; });  // 0 2 4 6 8
  SelVector b;
  b.SelectAll(10);
  b.Filter([](uint32_t r) { return r % 3 == 0; });  // 0 3 6 9
  a.UnionWith(b);
  EXPECT_EQ(a.indices(), (std::vector<uint32_t>{0, 2, 3, 4, 6, 8, 9}));

  SelVector dense;
  dense.SelectAll(10);
  b.UnionWith(dense);  // a dense side absorbs the explicit one
  EXPECT_TRUE(dense.dense());
  EXPECT_TRUE(b.dense());
  EXPECT_EQ(b.count(), 10u);
}

// --------------------------------------------------- EvalBatch ≡ Eval ----

// Builds a ColumnBatch over the first `n` tuples of `t` (full projection)
// and checks that EvalBatch's surviving rows are exactly the rows Eval
// keeps.
void ExpectEvalAgrees(storage::Table* t, int64_t n, const PredicatePtr& pred) {
  ColumnBatch batch;
  batch.Configure(&t->schema(), static_cast<size_t>(n));
  std::vector<bool> want;
  ExpectOk(t->ForEachTupleInBucket(0, [&](const TupleRef& tup, storage::Rid) {
    if (batch.full()) return;
    batch.AppendRow(tup);
    want.push_back(pred->Eval(tup));
  }));
  SelVector sel;
  sel.SelectAll(static_cast<uint32_t>(batch.num_rows()));
  pred->EvalBatch(batch, &sel);
  std::vector<bool> got(batch.num_rows(), false);
  for (size_t k = 0; k < sel.count(); ++k) got[sel.row(k)] = true;
  EXPECT_EQ(got, want) << pred->ToString(&t->schema());
}

TEST(EvalBatchTest, AtomsAndCompositesAgreeWithScalarEval) {
  TestDb db(16384);
  storage::Table* t =
      MakeSyntheticTable(&db, 400, Layout::kRandom, /*seed=*/3,
                         /*bucket_pages=*/16);
  const auto& schema = t->schema();
  const PredicatePtr d_le = Unwrap(Predicate::AtomConst(
      &schema, "d", CmpOp::kLe, Value::MakeDate(util::Date(25))));
  const PredicatePtr k_gt = Unwrap(Predicate::AtomConst(
      &schema, "k", CmpOp::kGt, Value::Int64(100)));
  const PredicatePtr grp_eq =
      Unwrap(Predicate::AtomString(&schema, "grp", CmpOp::kEq, "B"));
  const PredicatePtr tag_ne =
      Unwrap(Predicate::AtomString(&schema, "tag", CmpOp::kNe, "MAIL"));

  ExpectEvalAgrees(t, 400, Predicate::True());
  ExpectEvalAgrees(t, 400, d_le);
  ExpectEvalAgrees(t, 400, k_gt);
  ExpectEvalAgrees(t, 400, grp_eq);
  ExpectEvalAgrees(t, 400, tag_ne);
  ExpectEvalAgrees(t, 400, Predicate::And(d_le, grp_eq));
  ExpectEvalAgrees(t, 400, Predicate::Or(k_gt, grp_eq));
  ExpectEvalAgrees(t, 400, Predicate::Or(Predicate::And(d_le, tag_ne),
                                         Predicate::And(k_gt, grp_eq)));
  for (CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe, CmpOp::kGt,
                   CmpOp::kGe}) {
    ExpectEvalAgrees(t, 400,
                     Unwrap(Predicate::AtomConst(
                         &schema, "d", op, Value::MakeDate(util::Date(20)))));
  }
}

TEST(EvalBatchTest, TwoColumnAtomAgreesWithScalarEval) {
  TestDb db;
  storage::Table* t = Unwrap(db.catalog.CreateTable(
      "two", storage::Schema({storage::Field::Int64("a"),
                              storage::Field::Int64("b")}),
      {}));
  storage::TupleBuffer buf(&t->schema());
  util::Rng rng(9);
  for (int i = 0; i < 300; ++i) {
    buf.SetInt64(0, rng.Uniform(0, 50));
    buf.SetInt64(1, rng.Uniform(0, 50));
    ExpectOk(t->Append(buf));
  }
  for (CmpOp op : {CmpOp::kLt, CmpOp::kLe, CmpOp::kEq}) {
    ExpectEvalAgrees(t, 300,
                     Unwrap(Predicate::AtomTwoCols(&t->schema(), "a", op,
                                                   "b")));
  }
}

// ---------------------------------------------- scans ≡ the row path -----

const Layout kLayouts[] = {Layout::kClustered, Layout::kNoisy,
                           Layout::kRandom};

std::string LayoutName(Layout layout) {
  switch (layout) {
    case Layout::kClustered:
      return "clustered";
    case Layout::kNoisy:
      return "noisy";
    case Layout::kRandom:
      return "random";
  }
  return "?";
}

// The predicate sweep both suites run: everything, SMA-prunable ranges on
// d from either end (d > 500 is empty), an AND with a string atom, and an
// OR with no SMA support at all.
std::vector<PredicatePtr> PredicateSweep(const storage::Schema& schema) {
  return {
      Predicate::True(),
      Unwrap(Predicate::AtomConst(&schema, "d", CmpOp::kLe,
                                  Value::MakeDate(util::Date(125)))),
      Unwrap(Predicate::AtomConst(&schema, "d", CmpOp::kGe,
                                  Value::MakeDate(util::Date(200)))),
      Unwrap(Predicate::AtomConst(&schema, "d", CmpOp::kGt,
                                  Value::MakeDate(util::Date(500)))),
      Predicate::And(
          Unwrap(Predicate::AtomConst(&schema, "d", CmpOp::kLe,
                                      Value::MakeDate(util::Date(125)))),
          Unwrap(Predicate::AtomString(&schema, "grp", CmpOp::kEq, "A"))),
      Predicate::Or(
          Unwrap(Predicate::AtomConst(&schema, "k", CmpOp::kLt,
                                      Value::Int64(64))),
          Unwrap(Predicate::AtomString(&schema, "tag", CmpOp::kEq, "RAIL"))),
  };
}

using ScanParam = std::tuple<size_t /*capacity*/, uint32_t /*bucket_pages*/>;

class BatchScanEquivalenceP : public ::testing::TestWithParam<ScanParam> {};

// "The row path" is the brute-force reference: a tuple-at-a-time walk with
// the scalar evaluator, sharing no code with the operators.
TEST_P(BatchScanEquivalenceP, EveryOperatorReturnsTheRowPathTuples) {
  const auto [capacity, bucket_pages] = GetParam();
  TestDb db(16384);
  for (const Layout layout : kLayouts) {
    SCOPED_TRACE(LayoutName(layout));
    // 38 pages: the scans cross a read-run edge (kRunPages).
    storage::Table* t = MakeSyntheticTable(&db, 6000, layout, /*seed=*/21,
                                           bucket_pages, LayoutName(layout));
    sma::SmaSet smas(t);
    AddMinMaxSmas(t, &smas, "d");
    const std::vector<PredicatePtr> preds = PredicateSweep(t->schema());
    for (size_t p = 0; p < preds.size(); ++p) {
      SCOPED_TRACE(::testing::Message() << "pred " << p);
      const std::vector<std::string> want = ReferenceSelect(t, *preds[p]);
      exec::SmaScan scan(t, preds[p], /*smas=*/nullptr);
      EXPECT_EQ(DrainBatches(&scan, capacity), want);
      EXPECT_EQ(scan.stats().ambivalent_buckets, t->num_buckets());
      exec::SmaScan sma_scan(t, preds[p], &smas);
      EXPECT_EQ(DrainBatches(&sma_scan, capacity), want);
      // PredicateSweep puts True and the ranges on d first: their census is
      // exact.
      if (p < 4) {
        EXPECT_TRUE(
            SameCensus(sma_scan.stats(), ReferenceCensus(t, *preds[p])));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BatchScanEquivalenceP,
    ::testing::Combine(::testing::Values(size_t{1}, size_t{3}, size_t{64},
                                         size_t{1024}),
                       ::testing::Values(1u, 4u)),
    [](const ::testing::TestParamInfo<ScanParam>& info) {
      return "Bs" + std::to_string(std::get<0>(info.param)) + "Bp" +
             std::to_string(std::get<1>(info.param));
    });

// A pipeline breaker serves its materialized rows as batches of whatever
// capacity the consumer configured (here 7 rows), through SmaGAggr's
// RowEmitter.
TEST(BatchDefaultAdapterTest, PipelineBreakerServesBatchesViaDefaultAdapter) {
  TestDb db(16384);
  storage::Table* t = MakeSyntheticTable(&db, 1500, Layout::kNoisy, 31);
  const expr::ExprPtr v = Unwrap(expr::Column(&t->schema(), "v"));
  const std::vector<AggSpec> aggs = {AggSpec::Sum(v, "sum_v"),
                                     AggSpec::Count("cnt")};
  const PredicatePtr pred = Unwrap(Predicate::AtomConst(
      &t->schema(), "d", CmpOp::kLe, Value::MakeDate(util::Date(100))));
  auto op = Unwrap(
      exec::SmaGAggr::MakeScan(t, pred, {0}, aggs, /*smas=*/nullptr, 1));
  const std::vector<std::string> rows = DrainBatches(op.get(), 7);
  EXPECT_GT(rows.size(), 7u);  // several batches, the last one partial
  EXPECT_EQ(Sorted(rows), ReferenceAggregate(t, *pred, {0}, aggs));
}

// Projection pushdown: a consumer-built mask unioned with the predicate's
// columns decodes only those columns, and the decoded values match.
TEST(BatchProjectionTest, PartialProjectionDecodesRequestedColumns) {
  TestDb db(16384);
  storage::Table* t = MakeSyntheticTable(&db, 500, Layout::kClustered, 41);
  const PredicatePtr pred = Unwrap(Predicate::AtomConst(
      &t->schema(), "d", CmpOp::kLe, Value::MakeDate(util::Date(30))));
  exec::SmaScan scan(t, pred, /*smas=*/nullptr);
  std::vector<bool> mask(t->schema().num_fields(), false);
  mask[0] = true;  // consumer reads k
  pred->AddReferencedColumns(&mask);
  EXPECT_TRUE(mask[1]);  // the predicate's column d joined the projection

  ExpectOk(scan.Init());
  Batch batch;
  batch.Configure(&t->schema(), 128, mask);
  const std::vector<std::string> expected = ReferenceSelect(t, *pred);
  size_t row_no = 0;
  while (true) {
    auto has = scan.NextBatch(&batch);
    ExpectOk(has.status());
    if (!*has) break;
    EXPECT_TRUE(batch.cols.decoded(0));
    EXPECT_TRUE(batch.cols.decoded(1));
    EXPECT_FALSE(batch.cols.decoded(2));
    for (size_t k = 0; k < batch.sel.count(); ++k, ++row_no) {
      ASSERT_LT(row_no, expected.size());
      // expected rows are "k|d|v|grp|tag|"; compare the leading k field.
      const std::string k_str =
          batch.cols.GetValue(0, batch.sel.row(k)).ToString();
      EXPECT_EQ(expected[row_no].substr(0, k_str.size() + 1), k_str + "|");
    }
  }
  EXPECT_EQ(row_no, expected.size());
}

// ---------------------------------------- aggregation ≡ the row path -----

using AggrParam = std::tuple<size_t /*capacity*/, size_t /*dop*/>;

class BatchAggrEquivalenceP : public ::testing::TestWithParam<AggrParam> {};

// Every aggregate plan shape against the brute-force reference. The
// pipeline breakers serve their groups through the shared RowEmitter, here
// pulled at the parameter's batch capacity (1 = one group per batch). The
// tables span three morsels, the last one short, at one and three pages
// per bucket; the SMA plans also match the reference census wherever it is
// exact (True and the one-atom ranges on d).
TEST_P(BatchAggrEquivalenceP, RowAndBatchModesProduceIdenticalGroups) {
  const auto [capacity, dop] = GetParam();
  TestDb db(16384);
  for (const auto& [layout, bucket_pages] :
       {std::pair{Layout::kClustered, 1u}, std::pair{Layout::kNoisy, 3u},
        std::pair{Layout::kRandom, 1u}, std::pair{Layout::kRandom, 3u}}) {
    SCOPED_TRACE(::testing::Message() << LayoutName(layout)
                                      << " bucket_pages " << bucket_pages);
    storage::Table* t = MakeSyntheticTable(
        &db, 12000, layout, 17, bucket_pages,
        LayoutName(layout) + std::to_string(bucket_pages));
    ASSERT_EQ(exec::MorselCount(t->num_buckets(), bucket_pages), 3u);
    sma::SmaSet smas(t);
    AddMinMaxSmas(t, &smas, "d");
    const expr::ExprPtr v = Unwrap(expr::Column(&t->schema(), "v"));
    const expr::ExprPtr d = Unwrap(expr::Column(&t->schema(), "d"));
    const expr::ExprPtr v1 = Unwrap(expr::OnePlus(v));  // ArithExpr kernel
    ExpectOk(
        smas.Add(Unwrap(sma::BuildSma(t, sma::SmaSpec::Sum("s", v, {3})))));
    ExpectOk(
        smas.Add(Unwrap(sma::BuildSma(t, sma::SmaSpec::Count("c", {3})))));
    const std::vector<AggSpec> aggs = {
        AggSpec::Sum(v, "sum_v"), AggSpec::Count("cnt"),
        AggSpec::Avg(v, "avg_v"), AggSpec::Min(d, "min_d"),
        AggSpec::Max(v, "max_v"), AggSpec::Sum(v1, "sum_v1")};
    const std::vector<AggSpec> sma_aggs = {AggSpec::Sum(v, "sum_v"),
                                           AggSpec::Count("cnt")};
    const std::vector<PredicatePtr> preds = PredicateSweep(t->schema());
    for (size_t p = 0; p < preds.size(); ++p) {
      SCOPED_TRACE(::testing::Message() << "pred " << p);
      const PredicatePtr& pred = preds[p];
      const std::vector<std::string> want =
          ReferenceAggregate(t, *pred, {3}, aggs);
      // PredicateSweep puts True and the ranges on d first.
      const bool exact_census = p < 4;
      const exec::SmaScanStats census = ReferenceCensus(t, *pred);
      // With SMAs it runs GAggr∘SmaScan, without GAggr∘TableScan.
      const sma::SmaSet* const parallel_smas[] = {&smas, nullptr};
      for (const sma::SmaSet* set : parallel_smas) {
        auto parallel = Unwrap(
            exec::SmaGAggr::MakeScan(t, pred, {3}, aggs, set, dop));
        EXPECT_EQ(Sorted(DrainBatches(parallel.get(), capacity)), want);
        if (set != nullptr && exact_census) {
          EXPECT_TRUE(SameCensus(parallel->stats(), census));
        }
      }
      // SmaGAggr: qualifying buckets answer from SMA entries, only the
      // ambivalent remainder is decoded and folded.
      exec::SmaGAggrOptions options;
      options.degree_of_parallelism = dop;
      auto sma_gaggr = Unwrap(
          exec::SmaGAggr::Make(t, pred, {3}, sma_aggs, &smas, options));
      EXPECT_EQ(Sorted(DrainBatches(sma_gaggr.get(), capacity)),
                ReferenceAggregate(t, *pred, {3}, sma_aggs));
      if (exact_census) {
        EXPECT_TRUE(SameCensus(sma_gaggr->stats(), census));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BatchAggrEquivalenceP,
    ::testing::Combine(::testing::Values(size_t{1}, size_t{64}, size_t{1024}),
                       ::testing::Values(size_t{1}, size_t{2}, size_t{4},
                                         size_t{8})),
    [](const ::testing::TestParamInfo<AggrParam>& info) {
      return "Bs" + std::to_string(std::get<0>(info.param)) + "Dop" +
             std::to_string(std::get<1>(info.param));
    });

// ------------------------------------------------------ session knobs ----

// Session knobs scope and keep answers exact, and `set batch_size` is
// rejected: batch capacity is a constant, not a knob.
TEST(DatabaseKnobTest, SetDopKeepsAnswersAndBatchSizeIsRejected) {
  db::Database database;
  ExpectOk(database.CreateTable("t", testing::SyntheticSchema()).status());
  storage::TupleBuffer tuple(&Unwrap(database.GetTable("t"))->schema());
  for (int64_t i = 0; i < 600; ++i) {
    tuple.SetInt64(0, i);
    tuple.SetDate(1, util::Date(static_cast<int32_t>(i / 8)));
    tuple.SetDecimal(2, util::Decimal(i * 3));
    tuple.SetString(3, i % 2 == 0 ? "A" : "B");
    tuple.SetString(4, "MAIL");
    ExpectOk(database.Insert("t", tuple));
  }
  const std::string sql =
      "select grp, count(*), sum(v) from t where d <= '1970-02-10' "
      "group by grp";
  const plan::QueryResult base = Unwrap(database.Query(sql));

  std::unique_ptr<db::Session> session = database.CreateSession();
  ExpectOk(session->Execute("set dop = 4"));
  EXPECT_EQ(session->knobs().dop, 4u);
  EXPECT_EQ(database.degree_of_parallelism(), 0u);  // session-scoped
  EXPECT_EQ(Unwrap(session->Query(sql)).ToString(), base.ToString());

  for (const char* stmt : {"set batch_size = 1024", "set batch_size = 0"}) {
    const util::Status st = session->Execute(stmt);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << stmt;
    EXPECT_NE(st.message().find("{dop, timeout_ms, memory_limit"),
              std::string::npos)
        << st.ToString();
  }
  EXPECT_FALSE(database.Execute("set batch_size = 1024").ok());
  EXPECT_FALSE(database.Execute("set dop = -5").ok());
  EXPECT_FALSE(database.Execute("set dop to 8").ok());
}

// ------------------------------------------------ faults in batch mode ---

struct VectorFaultTest : ::testing::Test {
  VectorFaultTest() : db(16384) {}
  ~VectorFaultTest() override { util::fault::DisarmAll(); }

  void Setup(const std::string& name) {
    table = MakeSyntheticTable(&db, 4000, Layout::kNoisy, 13, 1, name);
    smas = std::make_unique<sma::SmaSet>(table);
    AddMinMaxSmas(table, smas.get(), "d");
    const expr::ExprPtr v = Unwrap(expr::Column(&table->schema(), "v"));
    ExpectOk(smas->Add(
        Unwrap(sma::BuildSma(table, sma::SmaSpec::Sum("sum_v", v, {3})))));
    ExpectOk(smas->Add(
        Unwrap(sma::BuildSma(table, sma::SmaSpec::Count("cnt", {3})))));
    query.table = table;
    query.pred = Unwrap(Predicate::AtomConst(
        &table->schema(), "d", CmpOp::kLe,
        Value::MakeDate(util::Date(120))));
    query.group_by = {3};
    query.aggs = {AggSpec::Sum(v, "sum_v"), AggSpec::Count("cnt")};
  }

  TestDb db;
  storage::Table* table = nullptr;
  std::unique_ptr<sma::SmaSet> smas;
  plan::AggQuery query;
};

// The fault matrix of fault_test.cc over every aggregate plan shape: every
// run returns the reference rows exactly or the scenario's typed error —
// never silently-wrong rows.
TEST_F(VectorFaultTest, BatchedRunsReturnExactRowsOrTypedError) {
  Setup("vf");
  const std::vector<std::string> expected = ReferenceAggregate(
      table, *query.pred, query.group_by, query.aggs);

  struct Scenario {
    const char* label;
    const char* point;
    util::FaultSpec spec;
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
  const plan::PlanKind kinds[] = {plan::PlanKind::kScanAggr,
                                  plan::PlanKind::kSmaScanAggr,
                                  plan::PlanKind::kSmaGAggr};
  uint64_t seed = 40;
  plan::Planner planner(smas.get());
  for (const Scenario& s : scenarios) {
    for (plan::PlanKind kind : kinds) {
      for (size_t dop : {size_t{1}, size_t{4}}) {
        SCOPED_TRACE(::testing::Message()
                     << s.label << " / " << plan::PlanKindToString(kind)
                     << " / dop=" << dop);
        util::fault::DisarmAll();
        ExpectOk(db.pool.DropAll());
        util::fault::Seed(seed++);
        util::fault::Arm(s.point, s.spec);
        auto op = Unwrap(planner.Build(query, kind, dop));
        auto run = plan::RunToCompletion(op.get());
        util::fault::DisarmAll();
        if (run.ok()) {
          EXPECT_EQ(Sorted(RowsOf(*run)), expected);
        } else {
          EXPECT_EQ(run.status().code(), s.allowed)
              << run.status().ToString();
        }
      }
    }
  }
}

// The degradation ladder: unreadable SMA-files demote the plan to a
// sequential scan, and the rerun's rows are exact.
TEST_F(VectorFaultTest, DegradationLadderDemotesCorrectlyInBatchMode) {
  Setup("vd");
  plan::Planner planner(smas.get());
  const plan::QueryResult healthy = Unwrap(planner.Execute(query));
  EXPECT_EQ(Sorted(RowsOf(healthy)),
            ReferenceAggregate(table, *query.pred, query.group_by,
                               query.aggs));

  ExpectOk(db.pool.DropAll());
  util::fault::Arm("disk.read", {.kind = FaultKind::kPermanent,
                                 .file_filter = "sma."});
  const plan::QueryResult demoted = Unwrap(planner.Execute(query));
  util::fault::DisarmAll();
  EXPECT_EQ(demoted.plan.kind, plan::PlanKind::kScanAggr);
  EXPECT_NE(demoted.plan.explanation.find("demoted"), std::string::npos)
      << demoted.plan.explanation;
  EXPECT_EQ(demoted.ToString(), healthy.ToString());
}

}  // namespace
}  // namespace smadb
