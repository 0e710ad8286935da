// Parameterized property suites (TEST_P sweeps) over the system's core
// invariants:
//
//   * grade soundness     — for every (layout × operator × bucket size),
//                           qualifying buckets contain only matches and
//                           disqualifying buckets none.
//   * scan equivalence    — SMA_Scan returns exactly TableScan's tuples.
//   * aggregate equality  — SMA_GAggr equals GAggr bit-for-bit.
//   * maintenance         — maintained SMAs equal freshly rebuilt ones
//                           under randomized mutation mixes.

#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "exec/gaggr.h"
#include "exec/sma_gaggr.h"
#include "exec/sma_scan.h"
#include "exec/table_scan.h"
#include "sma/maintenance.h"
#include "tests/test_util.h"

namespace smadb {
namespace {

using exec::AggSpec;
using expr::CmpOp;
using expr::Predicate;
using expr::PredicatePtr;
using sma::SmaSpec;
using storage::TupleRef;
using testing::AddMinMaxSmas;
using testing::DrainRows;
using testing::ExpectOk;
using testing::Layout;
using testing::MakeSyntheticTable;
using testing::TestDb;
using testing::Unwrap;
using util::Value;

constexpr int64_t kRows = 2000;

std::string LayoutName(Layout l) {
  switch (l) {
    case Layout::kClustered:
      return "Clustered";
    case Layout::kNoisy:
      return "Noisy";
    case Layout::kRandom:
      return "Random";
  }
  return "?";
}

std::string OpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "Eq";
    case CmpOp::kNe:
      return "Ne";
    case CmpOp::kLt:
      return "Lt";
    case CmpOp::kLe:
      return "Le";
    case CmpOp::kGt:
      return "Gt";
    case CmpOp::kGe:
      return "Ge";
  }
  return "?";
}

// ------------------------------------------------- grade soundness sweep --

using GradeParam = std::tuple<Layout, CmpOp, uint32_t /*bucket_pages*/>;

class GradeSoundnessP : public ::testing::TestWithParam<GradeParam> {};

TEST_P(GradeSoundnessP, AllBucketsSoundAcrossConstants) {
  const auto [layout, op, bucket_pages] = GetParam();
  TestDb db(16384);
  storage::Table* t =
      MakeSyntheticTable(&db, kRows, layout, /*seed=*/101, bucket_pages);
  sma::SmaSet smas(t);
  AddMinMaxSmas(t, &smas, "d");

  // Constants spanning below / inside / above the data range (d in
  // [~-2, kRows/8 + 2]).
  for (int32_t c : {-10, 0, 25, 125, 249, 400}) {
    const PredicatePtr pred = Unwrap(Predicate::AtomConst(
        &t->schema(), "d", op, Value::MakeDate(util::Date(c))));
    auto grader = sma::BucketGrader::Create(pred, &smas);
    for (uint32_t b = 0; b < t->num_buckets(); ++b) {
      testing::ExpectGradeSound(t, b, *pred, Unwrap(grader->GradeBucket(b)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GradeSoundnessP,
    ::testing::Combine(::testing::Values(Layout::kClustered, Layout::kNoisy,
                                         Layout::kRandom),
                       ::testing::Values(CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                                         CmpOp::kLe, CmpOp::kGt, CmpOp::kGe),
                       ::testing::Values(1u, 4u)),
    [](const ::testing::TestParamInfo<GradeParam>& info) {
      return LayoutName(std::get<0>(info.param)) +
             OpName(std::get<1>(info.param)) + "Bp" +
             std::to_string(std::get<2>(info.param));
    });

// ---------------------------------------------- scan equivalence sweep --

using ScanParam = std::tuple<Layout, CmpOp, uint32_t>;

class SmaScanEquivalenceP : public ::testing::TestWithParam<ScanParam> {};

TEST_P(SmaScanEquivalenceP, ReturnsExactlyTheTableScanTuples) {
  const auto [layout, op, bucket_pages] = GetParam();
  TestDb db(16384);
  storage::Table* t =
      MakeSyntheticTable(&db, kRows, layout, /*seed=*/7, bucket_pages);
  sma::SmaSet smas(t);
  AddMinMaxSmas(t, &smas, "d");
  for (int32_t c : {-10, 60, 125, 300}) {
    const PredicatePtr pred = Unwrap(Predicate::AtomConst(
        &t->schema(), "d", op, Value::MakeDate(util::Date(c))));
    exec::TableScan plain(t, pred);
    exec::SmaScan pruned(t, pred, &smas);
    EXPECT_EQ(DrainRows(&plain), DrainRows(&pruned)) << "c=" << c;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SmaScanEquivalenceP,
    ::testing::Combine(::testing::Values(Layout::kClustered, Layout::kNoisy,
                                         Layout::kRandom),
                       ::testing::Values(CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                                         CmpOp::kLe, CmpOp::kGt, CmpOp::kGe),
                       ::testing::Values(1u, 4u)),
    [](const ::testing::TestParamInfo<ScanParam>& info) {
      return LayoutName(std::get<0>(info.param)) +
             OpName(std::get<1>(info.param)) + "Bp" +
             std::to_string(std::get<2>(info.param));
    });

// ----------------------------------------- aggregate equivalence sweep --

using AggrParam = std::tuple<Layout, CmpOp>;

class SmaGAggrEquivalenceP : public ::testing::TestWithParam<AggrParam> {};

TEST_P(SmaGAggrEquivalenceP, MatchesGAggrExactly) {
  const auto [layout, op] = GetParam();
  TestDb db(16384);
  storage::Table* t = MakeSyntheticTable(&db, kRows, layout, /*seed=*/77);
  sma::SmaSet smas(t);
  AddMinMaxSmas(t, &smas, "d");
  const expr::ExprPtr v = Unwrap(expr::Column(&t->schema(), "v"));
  ExpectOk(smas.Add(Unwrap(sma::BuildSma(t, SmaSpec::Sum("s", v, {3})))));
  ExpectOk(smas.Add(Unwrap(sma::BuildSma(t, SmaSpec::Count("c", {3})))));
  ExpectOk(smas.Add(Unwrap(sma::BuildSma(t, SmaSpec::Min("mn", v, {3})))));
  ExpectOk(smas.Add(Unwrap(sma::BuildSma(t, SmaSpec::Max("mx", v, {3})))));
  const std::vector<AggSpec> aggs = {
      AggSpec::Sum(v, "sum_v"), AggSpec::Count("cnt"), AggSpec::Avg(v, "avg"),
      AggSpec::Min(v, "min_v"), AggSpec::Max(v, "max_v")};

  for (int32_t c : {-10, 60, 125, 300}) {
    const PredicatePtr pred = Unwrap(Predicate::AtomConst(
        &t->schema(), "d", op, Value::MakeDate(util::Date(c))));
    auto scan = std::make_unique<exec::TableScan>(t, pred);
    auto ref = Unwrap(exec::GAggr::Make(std::move(scan), {3}, aggs));
    auto smag = Unwrap(exec::SmaGAggr::Make(t, pred, {3}, aggs, &smas));
    EXPECT_EQ(DrainRows(ref.get()), DrainRows(smag.get())) << "c=" << c;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SmaGAggrEquivalenceP,
    ::testing::Combine(::testing::Values(Layout::kClustered, Layout::kNoisy,
                                         Layout::kRandom),
                       ::testing::Values(CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                                         CmpOp::kLe, CmpOp::kGt, CmpOp::kGe)),
    [](const ::testing::TestParamInfo<AggrParam>& info) {
      return LayoutName(std::get<0>(info.param)) +
             OpName(std::get<1>(info.param));
    });

// ----------------------------------------------- forced-ambivalence sweep --

class ForcedAmbivalenceP : public ::testing::TestWithParam<double> {};

TEST_P(ForcedAmbivalenceP, DemotionNeverChangesResults) {
  const double fraction = GetParam();
  TestDb db(16384);
  storage::Table* t =
      MakeSyntheticTable(&db, kRows, Layout::kClustered, /*seed=*/5);
  sma::SmaSet smas(t);
  AddMinMaxSmas(t, &smas, "d");
  const expr::ExprPtr v = Unwrap(expr::Column(&t->schema(), "v"));
  ExpectOk(smas.Add(Unwrap(sma::BuildSma(t, SmaSpec::Sum("s", v, {3})))));
  ExpectOk(smas.Add(Unwrap(sma::BuildSma(t, SmaSpec::Count("c", {3})))));
  const std::vector<AggSpec> aggs = {AggSpec::Sum(v, "sum_v"),
                                     AggSpec::Count("cnt")};
  const PredicatePtr pred = Unwrap(Predicate::AtomConst(
      &t->schema(), "d", CmpOp::kLe, Value::MakeDate(util::Date(125))));

  auto plain = Unwrap(exec::SmaGAggr::Make(t, pred, {3}, aggs, &smas));
  exec::SmaGAggrOptions options;
  options.force_ambivalent_fraction = fraction;
  auto forced =
      Unwrap(exec::SmaGAggr::Make(t, pred, {3}, aggs, &smas, options));
  EXPECT_EQ(DrainRows(plain.get()), DrainRows(forced.get()));
  if (fraction == 1.0) {
    EXPECT_EQ(forced->stats().ambivalent_buckets, t->num_buckets());
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ForcedAmbivalenceP,
                         ::testing::Values(0.0, 0.1, 0.5, 0.9, 1.0),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "Pct" +
                                  std::to_string(static_cast<int>(
                                      info.param * 100));
                         });

// ------------------------------------------------- maintenance seeds sweep --

class MaintenanceSeedP : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MaintenanceSeedP, MaintainedEqualsRebuilt) {
  const uint64_t seed = GetParam();
  TestDb db(8192);
  storage::Table* t = Unwrap(
      db.catalog.CreateTable("m", testing::SyntheticSchema(), {}));
  sma::SmaSet smas(t);
  const expr::ExprPtr d = Unwrap(expr::Column(&t->schema(), "d"));
  const expr::ExprPtr v = Unwrap(expr::Column(&t->schema(), "v"));
  ExpectOk(smas.Add(Unwrap(sma::BuildSma(t, SmaSpec::Min("mn", d)))));
  ExpectOk(smas.Add(Unwrap(sma::BuildSma(t, SmaSpec::Max("mx", d)))));
  ExpectOk(smas.Add(Unwrap(sma::BuildSma(t, SmaSpec::Sum("s", v, {3})))));
  ExpectOk(smas.Add(Unwrap(sma::BuildSma(t, SmaSpec::Count("c", {3})))));
  sma::SmaMaintainer maintainer(t, &smas);

  util::Rng rng(seed);
  storage::TupleBuffer buf(&t->schema());
  for (int step = 0; step < 800; ++step) {
    if (t->num_tuples() == 0 || rng.NextBool(0.75)) {
      buf.SetInt64(0, step);
      buf.SetDate(1, util::Date(static_cast<int32_t>(rng.Uniform(0, 200))));
      buf.SetDecimal(2, util::Decimal(rng.Uniform(-100, 1000)));
      const char grp[2] = {static_cast<char>('A' + rng.Uniform(0, 3)), 0};
      buf.SetString(3, grp);
      buf.SetString(4, "MAIL");
      ExpectOk(maintainer.Insert(buf));
    } else {
      const uint32_t page =
          static_cast<uint32_t>(rng.Uniform(0, t->num_pages() - 1));
      auto guard = Unwrap(t->FetchPage(page));
      const uint16_t count = storage::Table::PageTupleCount(*guard.page());
      guard.Release();
      if (count == 0) continue;
      const storage::Rid rid{
          page, static_cast<uint16_t>(rng.Uniform(0, count - 1))};
      {
        auto g2 = Unwrap(t->FetchPage(page));
        if (storage::Table::PageSlotDeleted(*g2.page(), rid.slot)) continue;
      }
      if (rng.NextBool(0.3)) {
        ExpectOk(maintainer.Delete(rid));
        continue;
      }
      const size_t col = rng.NextBool(0.5) ? 1 : 2;
      const Value val =
          col == 1 ? Value::MakeDate(
                         util::Date(static_cast<int32_t>(rng.Uniform(0, 200))))
                   : Value::MakeDecimal(
                         util::Decimal(rng.Uniform(-100, 1000)));
      ExpectOk(maintainer.UpdateColumn(rid, col, val));
    }
  }

  // Every SMA equals a fresh rebuild over the final state.
  for (const sma::Sma* sma : smas.all()) {
    testing::ExpectSmaEqualsRebuild(t, *sma);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaintenanceSeedP,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

}  // namespace
}  // namespace smadb
