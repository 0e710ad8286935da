// Tests for the grade procedure (paper §3.1): the atom rules, the boolean
// combination rules, count-by-value grading, and randomized soundness
// properties of BucketGrader against brute force.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "exec/bucket_source.h"
#include "sma/grade.h"
#include "tests/test_util.h"

namespace smadb::sma {
namespace {

using expr::CmpOp;
using expr::Predicate;
using expr::PredicatePtr;
using testing::AddMinMaxSmas;
using testing::ExpectGradeSound;
using testing::ExpectOk;
using testing::MakeSyntheticTable;
using testing::TestDb;
using testing::Unwrap;
using util::Value;

// ---------------------------------------------------- combination tables --

TEST(GradeCombineTest, AndTableMatchesPaper) {
  using enum Grade;
  // BUq = BUq1 ∩ BUq2; BUd = BUd1 ∪ BUd2; rest ambivalent.
  EXPECT_EQ(CombineAnd(kQualifies, kQualifies), kQualifies);
  EXPECT_EQ(CombineAnd(kQualifies, kAmbivalent), kAmbivalent);
  EXPECT_EQ(CombineAnd(kQualifies, kDisqualifies), kDisqualifies);
  EXPECT_EQ(CombineAnd(kAmbivalent, kAmbivalent), kAmbivalent);
  EXPECT_EQ(CombineAnd(kAmbivalent, kDisqualifies), kDisqualifies);
  EXPECT_EQ(CombineAnd(kDisqualifies, kDisqualifies), kDisqualifies);
}

TEST(GradeCombineTest, OrTableMatchesPaper) {
  using enum Grade;
  // BUq = BUq1 ∪ BUq2; BUd = BUd1 ∩ BUd2; rest ambivalent.
  EXPECT_EQ(CombineOr(kQualifies, kQualifies), kQualifies);
  EXPECT_EQ(CombineOr(kQualifies, kAmbivalent), kQualifies);
  EXPECT_EQ(CombineOr(kQualifies, kDisqualifies), kQualifies);
  EXPECT_EQ(CombineOr(kAmbivalent, kAmbivalent), kAmbivalent);
  EXPECT_EQ(CombineOr(kAmbivalent, kDisqualifies), kAmbivalent);
  EXPECT_EQ(CombineOr(kDisqualifies, kDisqualifies), kDisqualifies);
}

TEST(GradeCombineTest, CommutativityProperty) {
  const Grade all[] = {Grade::kQualifies, Grade::kDisqualifies,
                       Grade::kAmbivalent};
  for (Grade a : all) {
    for (Grade b : all) {
      EXPECT_EQ(CombineAnd(a, b), CombineAnd(b, a));
      EXPECT_EQ(CombineOr(a, b), CombineOr(b, a));
    }
  }
}

// ------------------------------------------------------------ atom rules --

// Paper §3.1, A <= c: max <= c -> qualifies; min > c -> disqualifies.
TEST(GradeAtomTest, LeRules) {
  EXPECT_EQ(GradeMinMaxConst(CmpOp::kLe, 5, 10, 10), Grade::kQualifies);
  EXPECT_EQ(GradeMinMaxConst(CmpOp::kLe, 5, 10, 4), Grade::kDisqualifies);
  EXPECT_EQ(GradeMinMaxConst(CmpOp::kLe, 5, 10, 7), Grade::kAmbivalent);
  EXPECT_EQ(GradeMinMaxConst(CmpOp::kLe, 5, 10, 5), Grade::kAmbivalent);
}

TEST(GradeAtomTest, LtRules) {
  EXPECT_EQ(GradeMinMaxConst(CmpOp::kLt, 5, 10, 11), Grade::kQualifies);
  EXPECT_EQ(GradeMinMaxConst(CmpOp::kLt, 5, 10, 10), Grade::kAmbivalent);
  EXPECT_EQ(GradeMinMaxConst(CmpOp::kLt, 5, 10, 5), Grade::kDisqualifies);
  EXPECT_EQ(GradeMinMaxConst(CmpOp::kLt, 5, 10, 4), Grade::kDisqualifies);
}

TEST(GradeAtomTest, GeGtRules) {
  EXPECT_EQ(GradeMinMaxConst(CmpOp::kGe, 5, 10, 5), Grade::kQualifies);
  EXPECT_EQ(GradeMinMaxConst(CmpOp::kGe, 5, 10, 11), Grade::kDisqualifies);
  EXPECT_EQ(GradeMinMaxConst(CmpOp::kGe, 5, 10, 7), Grade::kAmbivalent);
  EXPECT_EQ(GradeMinMaxConst(CmpOp::kGt, 5, 10, 4), Grade::kQualifies);
  EXPECT_EQ(GradeMinMaxConst(CmpOp::kGt, 5, 10, 10), Grade::kDisqualifies);
  EXPECT_EQ(GradeMinMaxConst(CmpOp::kGt, 5, 10, 5), Grade::kAmbivalent);
}

TEST(GradeAtomTest, EqRulesWithRefinement) {
  // Paper: c outside [min, max] -> disqualifies, else ambivalent.
  EXPECT_EQ(GradeMinMaxConst(CmpOp::kEq, 5, 10, 4), Grade::kDisqualifies);
  EXPECT_EQ(GradeMinMaxConst(CmpOp::kEq, 5, 10, 11), Grade::kDisqualifies);
  EXPECT_EQ(GradeMinMaxConst(CmpOp::kEq, 5, 10, 7), Grade::kAmbivalent);
  // Refinement: min == max == c qualifies.
  EXPECT_EQ(GradeMinMaxConst(CmpOp::kEq, 7, 7, 7), Grade::kQualifies);
}

TEST(GradeAtomTest, NeDualRules) {
  EXPECT_EQ(GradeMinMaxConst(CmpOp::kNe, 5, 10, 4), Grade::kQualifies);
  EXPECT_EQ(GradeMinMaxConst(CmpOp::kNe, 5, 10, 11), Grade::kQualifies);
  EXPECT_EQ(GradeMinMaxConst(CmpOp::kNe, 7, 7, 7), Grade::kDisqualifies);
  EXPECT_EQ(GradeMinMaxConst(CmpOp::kNe, 5, 10, 7), Grade::kAmbivalent);
}

TEST(GradeAtomTest, MissingSidesLimitConclusions) {
  // With only max: A <= c can still qualify, never disqualify.
  EXPECT_EQ(GradeMinMaxConst(CmpOp::kLe, std::nullopt, 10, 12),
            Grade::kQualifies);
  EXPECT_EQ(GradeMinMaxConst(CmpOp::kLe, std::nullopt, 10, 4),
            Grade::kAmbivalent);
  // With only min: A <= c can disqualify, never qualify.
  EXPECT_EQ(GradeMinMaxConst(CmpOp::kLe, 5, std::nullopt, 4),
            Grade::kDisqualifies);
  EXPECT_EQ(GradeMinMaxConst(CmpOp::kLe, 5, std::nullopt, 100),
            Grade::kAmbivalent);
  // With neither, always ambivalent.
  for (CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe, CmpOp::kGt,
                   CmpOp::kGe}) {
    EXPECT_EQ(GradeMinMaxConst(op, std::nullopt, std::nullopt, 0),
              Grade::kAmbivalent);
  }
}

// Exhaustive soundness of the const rules over small ranges: for every
// [mn, mx] ⊆ [0,6] and c in [-1, 7], a qualifying grade must hold for every
// possible value in the range and a disqualifying one for none.
TEST(GradeAtomTest, ExhaustiveSoundnessSmallDomain) {
  for (CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe, CmpOp::kGt,
                   CmpOp::kGe}) {
    for (int64_t mn = 0; mn <= 6; ++mn) {
      for (int64_t mx = mn; mx <= 6; ++mx) {
        for (int64_t c = -1; c <= 7; ++c) {
          const Grade g = GradeMinMaxConst(op, mn, mx, c);
          bool all = true, any = false;
          for (int64_t v = mn; v <= mx; ++v) {
            const bool sat = expr::CompareInt(v, op, c);
            all &= sat;
            any |= sat;
          }
          if (g == Grade::kQualifies) {
            EXPECT_TRUE(all) << "op=" << static_cast<int>(op) << " [" << mn
                             << "," << mx << "] c=" << c;
          }
          if (g == Grade::kDisqualifies) {
            EXPECT_FALSE(any) << "op=" << static_cast<int>(op) << " [" << mn
                              << "," << mx << "] c=" << c;
          }
        }
      }
    }
  }
}

// Same exhaustive soundness for the two-column rules. The hidden semantics:
// each tuple has a pair (a, b) with a in [mn_a, mx_a], b in [mn_b, mx_b];
// qualification must hold for ALL pairs, disqualification for NONE.
TEST(GradeAtomTest, ExhaustiveTwoColsSoundness) {
  for (CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe, CmpOp::kGt,
                   CmpOp::kGe}) {
    for (int64_t mn_a = 0; mn_a <= 4; ++mn_a) {
      for (int64_t mx_a = mn_a; mx_a <= 4; ++mx_a) {
        for (int64_t mn_b = 0; mn_b <= 4; ++mn_b) {
          for (int64_t mx_b = mn_b; mx_b <= 4; ++mx_b) {
            const Grade g = GradeMinMaxTwoCols(op, mn_a, mx_a, mn_b, mx_b);
            bool all = true, any = false;
            for (int64_t a = mn_a; a <= mx_a; ++a) {
              for (int64_t b = mn_b; b <= mx_b; ++b) {
                const bool sat = expr::CompareInt(a, op, b);
                all &= sat;
                any |= sat;
              }
            }
            if (g == Grade::kQualifies) {
              EXPECT_TRUE(all);
            }
            if (g == Grade::kDisqualifies) {
              EXPECT_FALSE(any);
            }
          }
        }
      }
    }
  }
}

// Paper's exact A <= B rules.
TEST(GradeAtomTest, TwoColsPaperRules) {
  // max(A) <= min(B) -> qualifies
  EXPECT_EQ(GradeMinMaxTwoCols(CmpOp::kLe, 1, 5, 5, 9), Grade::kQualifies);
  // min(A) > max(B) -> disqualifies
  EXPECT_EQ(GradeMinMaxTwoCols(CmpOp::kLe, 10, 12, 5, 9),
            Grade::kDisqualifies);
  EXPECT_EQ(GradeMinMaxTwoCols(CmpOp::kLe, 4, 8, 5, 9), Grade::kAmbivalent);
}

// ----------------------------------------------------- BucketGrader e2e --

struct GraderTest : ::testing::Test {
  GraderTest() : db(8192) {}
  TestDb db;
};

/// Grades `t` for `pred` in ranges through one grader — one bucket at a
/// time, BucketsPerMorsel buckets at a time, ranges that straddle every
/// SMA page edge (1024 four-byte or 512 eight-byte entries per page),
/// ranges that end at or straddle the coverage edge `covered`, and the
/// whole table — and expects every grade to equal the per-bucket grader's.
void ExpectRangesMatchBuckets(storage::Table* t, const PredicatePtr& pred,
                              const SmaSet* smas,
                              uint64_t covered = UINT64_MAX) {
  const uint64_t n = t->num_buckets();
  auto per_bucket = BucketGrader::Create(pred, smas);
  std::vector<Grade> want(n);
  for (uint64_t b = 0; b < n; ++b) {
    want[b] = Unwrap(per_bucket->GradeBucket(b));
  }
  auto grader = BucketGrader::Create(pred, smas);
  const auto check = [&](uint64_t first, uint64_t end) {
    end = std::min(end, n);
    if (first >= end) return;
    std::vector<Grade> got(end - first);
    ExpectOk(grader->GradeRange(first, end, got.data()));
    for (uint64_t b = first; b < end; ++b) {
      EXPECT_EQ(got[b - first], want[b])
          << pred->ToString() << ": bucket " << b << " of range [" << first
          << ", " << end << ")";
    }
  };
  const uint64_t per = exec::BucketsPerMorsel(t->bucket_pages());
  for (const uint64_t step : {uint64_t{1}, per}) {
    for (uint64_t first = 0; first < n; first += step) {
      check(first, first + step);
    }
  }
  for (uint64_t edge = 512; edge < n; edge += 512) {
    check(edge - 1, edge + 1);
    check(edge - 5, edge + 7);
  }
  if (covered < n) {
    check(covered - std::min(covered, per), covered);
    check(covered - std::min(covered, uint64_t{2}), covered + 3);
  }
  check(0, n);
}

TEST_F(GraderTest, StreamedGradesAreSoundOnAllLayouts) {
  for (auto layout : {testing::Layout::kClustered, testing::Layout::kNoisy,
                      testing::Layout::kRandom}) {
    storage::Table* t = MakeSyntheticTable(
        &db, 3000, layout, /*seed=*/17,
        /*bucket_pages=*/1,
        "t" + std::to_string(static_cast<int>(layout)));
    SmaSet smas(t);
    AddMinMaxSmas(t, &smas, "d");

    util::Rng rng(3);
    for (int trial = 0; trial < 20; ++trial) {
      const CmpOp op = static_cast<CmpOp>(rng.Uniform(0, 5));
      const int32_t c = static_cast<int32_t>(rng.Uniform(-10, 3000 / 8 + 10));
      const PredicatePtr pred = Unwrap(Predicate::AtomConst(
          &t->schema(), "d", op, Value::MakeDate(util::Date(c))));
      auto grader = BucketGrader::Create(pred, &smas);
      EXPECT_TRUE(grader->has_sma_support());
      for (uint32_t b = 0; b < t->num_buckets(); ++b) {
        ExpectGradeSound(t, b, *pred, Unwrap(grader->GradeBucket(b)));
      }
      ExpectRangesMatchBuckets(t, pred, &smas);
    }
  }
}

TEST_F(GraderTest, ClusteredLayoutActuallyPrunes) {
  // Over 1024 buckets, so the date SMAs (four-byte entries) span two pages.
  storage::Table* t =
      MakeSyntheticTable(&db, 180000, testing::Layout::kClustered);
  ASSERT_GT(t->num_buckets(), 1024u);
  SmaSet smas(t);
  AddMinMaxSmas(t, &smas, "d");
  const PredicatePtr pred = Unwrap(Predicate::AtomConst(
      &t->schema(), "d", CmpOp::kLe, Value::MakeDate(util::Date(100))));
  auto grader = BucketGrader::Create(pred, &smas);
  uint64_t q = 0, d = 0, a = 0;
  for (uint32_t b = 0; b < t->num_buckets(); ++b) {
    switch (Unwrap(grader->GradeBucket(b))) {
      case Grade::kQualifies:
        ++q;
        break;
      case Grade::kDisqualifies:
        ++d;
        break;
      case Grade::kAmbivalent:
        ++a;
        break;
    }
  }
  EXPECT_GT(q, 0u);
  EXPECT_GT(d, 0u);
  EXPECT_LE(a, 2u);  // clustered: at most the boundary bucket is ambivalent
  ExpectRangesMatchBuckets(t, pred, &smas);
  // A window whose ends fall on both SMA pages.
  const int32_t edge_day = static_cast<int32_t>(
      Unwrap((*smas.Find("min_d"))->group_file(0)->Get(1024)));
  ExpectRangesMatchBuckets(
      t,
      Predicate::And(
          Unwrap(Predicate::AtomConst(&t->schema(), "d", CmpOp::kGe,
                                      Value::MakeDate(util::Date(
                                          edge_day - 400)))),
          Unwrap(Predicate::AtomConst(&t->schema(), "d", CmpOp::kLt,
                                      Value::MakeDate(util::Date(
                                          edge_day + 400))))),
      &smas);
}

TEST_F(GraderTest, WithoutSmasEverythingAmbivalent) {
  storage::Table* t =
      MakeSyntheticTable(&db, 500, testing::Layout::kClustered);
  SmaSet smas(t);  // empty
  const PredicatePtr pred = Unwrap(Predicate::AtomConst(
      &t->schema(), "d", CmpOp::kLe, Value::MakeDate(util::Date(10))));
  auto grader = BucketGrader::Create(pred, &smas);
  EXPECT_FALSE(grader->has_sma_support());
  for (uint32_t b = 0; b < t->num_buckets(); ++b) {
    EXPECT_EQ(Unwrap(grader->GradeBucket(b)), Grade::kAmbivalent);
  }
  ExpectRangesMatchBuckets(t, pred, &smas);
}

TEST_F(GraderTest, TruePredicateAlwaysQualifies) {
  storage::Table* t =
      MakeSyntheticTable(&db, 200, testing::Layout::kClustered);
  SmaSet smas(t);
  auto grader = BucketGrader::Create(Predicate::True(), &smas);
  for (uint32_t b = 0; b < t->num_buckets(); ++b) {
    EXPECT_EQ(Unwrap(grader->GradeBucket(b)), Grade::kQualifies);
  }
  ExpectRangesMatchBuckets(t, Predicate::True(), &smas);
}

TEST_F(GraderTest, GroupedMinMaxAlsoPrunes) {
  // §3.1: grouped min/max SMAs are exploitable by taking the extreme over
  // all groups.
  storage::Table* t =
      MakeSyntheticTable(&db, 3000, testing::Layout::kClustered);
  SmaSet smas(t);
  const expr::ExprPtr d = Unwrap(expr::Column(&t->schema(), "d"));
  ExpectOk(smas.Add(Unwrap(BuildSma(t, SmaSpec::Min("gmin", d, {3})))));
  ExpectOk(smas.Add(Unwrap(BuildSma(t, SmaSpec::Max("gmax", d, {3})))));
  const PredicatePtr pred = Unwrap(Predicate::AtomConst(
      &t->schema(), "d", CmpOp::kLe, Value::MakeDate(util::Date(150))));
  auto grader = BucketGrader::Create(pred, &smas);
  EXPECT_TRUE(grader->has_sma_support());
  uint64_t pruned = 0;
  for (uint32_t b = 0; b < t->num_buckets(); ++b) {
    const Grade g = Unwrap(grader->GradeBucket(b));
    ExpectGradeSound(t, b, *pred, g);
    pruned += g != Grade::kAmbivalent;
  }
  EXPECT_GT(pruned, 0u);
  ExpectRangesMatchBuckets(t, pred, &smas);
}

TEST_F(GraderTest, CountByValueGrading) {
  // A count SMA grouped solely by a low-cardinality column can grade
  // equality predicates on it even without min/max SMAs.
  storage::Table* t =
      MakeSyntheticTable(&db, 2000, testing::Layout::kClustered);
  SmaSet smas(t);
  // Count by date value: column 1. Dates repeat ~8x, clustered.
  ExpectOk(smas.Add(Unwrap(BuildSma(t, SmaSpec::Count("cbv", {1})))));
  const PredicatePtr eq = Unwrap(Predicate::AtomConst(
      &t->schema(), "d", CmpOp::kEq, Value::MakeDate(util::Date(3))));
  auto grader = BucketGrader::Create(eq, &smas);
  EXPECT_TRUE(grader->has_sma_support());
  uint64_t disq = 0, qual = 0;
  for (uint32_t b = 0; b < t->num_buckets(); ++b) {
    const Grade g = Unwrap(grader->GradeBucket(b));
    ExpectGradeSound(t, b, *eq, g);
    disq += g == Grade::kDisqualifies;
    qual += g == Grade::kQualifies;
  }
  // Most buckets have no tuple with d == 3 -> disqualified via counts.
  EXPECT_GT(disq, t->num_buckets() / 2);
  (void)qual;
  ExpectRangesMatchBuckets(t, eq, &smas);
  ExpectRangesMatchBuckets(
      t,
      Unwrap(Predicate::AtomConst(&t->schema(), "d", CmpOp::kLe,
                                  Value::MakeDate(util::Date(100)))),
      &smas);
}

TEST_F(GraderTest, BooleanPredicatesSound) {
  storage::Table* t =
      MakeSyntheticTable(&db, 4000, testing::Layout::kNoisy);
  SmaSet smas(t);
  AddMinMaxSmas(t, &smas, "d");
  util::Rng rng(11);
  for (int trial = 0; trial < 15; ++trial) {
    auto atom = [&]() {
      const CmpOp op = static_cast<CmpOp>(rng.Uniform(0, 5));
      const int32_t c = static_cast<int32_t>(rng.Uniform(0, 4000 / 8));
      return Unwrap(Predicate::AtomConst(&t->schema(), "d", op,
                                         Value::MakeDate(util::Date(c))));
    };
    PredicatePtr pred = rng.NextBool(0.5)
                            ? Predicate::And(atom(), atom())
                            : Predicate::Or(atom(), atom());
    if (rng.NextBool(0.3)) pred = Predicate::And(pred, atom());
    auto grader = BucketGrader::Create(pred, &smas);
    for (uint32_t b = 0; b < t->num_buckets(); ++b) {
      ExpectGradeSound(t, b, *pred, Unwrap(grader->GradeBucket(b)));
    }
    ExpectRangesMatchBuckets(t, pred, &smas);
  }
}

TEST_F(GraderTest, TwoColumnAtomSound) {
  // Compare k-derived decimal v against itself... use columns d (date) is
  // incompatible with v (decimal); build a dedicated two-int table.
  storage::Schema s({storage::Field::Int64("a"), storage::Field::Int64("b")});
  storage::Table* t = Unwrap(db.catalog.CreateTable("two", s, {}));
  util::Rng rng(5);
  storage::TupleBuffer buf(&s);
  // Over 512 buckets, so the int64 SMAs (eight-byte entries) span two
  // pages; a crosses b's band at the start.
  for (int i = 0; i < 140000; ++i) {
    buf.SetInt64(0, i / 4);                 // a grows with position
    buf.SetInt64(1, rng.Uniform(400, 420)); // b stays in a narrow band
    ExpectOk(t->Append(buf));
  }
  ASSERT_GT(t->num_buckets(), 512u);
  SmaSet smas(t);
  AddMinMaxSmas(t, &smas, "a");
  AddMinMaxSmas(t, &smas, "b");
  for (CmpOp op : {CmpOp::kLe, CmpOp::kLt, CmpOp::kGe, CmpOp::kGt, CmpOp::kEq,
                   CmpOp::kNe}) {
    const PredicatePtr pred =
        Unwrap(Predicate::AtomTwoCols(&s, "a", op, "b"));
    auto grader = BucketGrader::Create(pred, &smas);
    EXPECT_TRUE(grader->has_sma_support());
    uint64_t settled = 0;
    for (uint32_t b = 0; b < t->num_buckets(); ++b) {
      const Grade g = Unwrap(grader->GradeBucket(b));
      ExpectGradeSound(t, b, *pred, g);
      settled += g != Grade::kAmbivalent;
    }
    if (op == CmpOp::kLe || op == CmpOp::kGt) {
      EXPECT_GT(settled, 0u);  // a grows past b's range: prunable
    }
    ExpectRangesMatchBuckets(t, pred, &smas);
  }
}

TEST_F(GraderTest, StringAtomsGradeThroughCountByValue) {
  storage::Table* t =
      MakeSyntheticTable(&db, 2000, testing::Layout::kClustered);
  // Make group membership position-dependent so count-by-value can prune:
  // first half of the table becomes group "X".
  for (uint32_t p = 0; p < t->num_pages() / 2; ++p) {
    auto guard = Unwrap(t->FetchPage(p));
    const uint16_t n = storage::Table::PageTupleCount(*guard.page());
    guard.Release();
    for (uint16_t s = 0; s < n; ++s) {
      ExpectOk(t->UpdateColumn(storage::Rid{p, s}, 3,
                               Value::String("X")));
    }
  }
  SmaSet smas(t);
  ExpectOk(smas.Add(Unwrap(BuildSma(t, SmaSpec::Count("cbv", {3})))));

  const PredicatePtr eq = Unwrap(expr::Predicate::AtomString(
      &t->schema(), "grp", CmpOp::kEq, "X"));
  auto grader = BucketGrader::Create(eq, &smas);
  EXPECT_TRUE(grader->has_sma_support());
  uint64_t q = 0, d = 0;
  for (uint32_t b = 0; b < t->num_buckets(); ++b) {
    const Grade g = Unwrap(grader->GradeBucket(b));
    ExpectGradeSound(t, b, *eq, g);
    q += g == Grade::kQualifies;
    d += g == Grade::kDisqualifies;
  }
  // The first half qualifies wholesale, the second half disqualifies.
  EXPECT_GT(q, 0u);
  EXPECT_GT(d, 0u);

  // The negation is also sound (and prunes the other way).
  const PredicatePtr ne = Unwrap(expr::Predicate::AtomString(
      &t->schema(), "grp", CmpOp::kNe, "X"));
  auto grader_ne = BucketGrader::Create(ne, &smas);
  for (uint32_t b = 0; b < t->num_buckets(); ++b) {
    ExpectGradeSound(t, b, *ne, Unwrap(grader_ne->GradeBucket(b)));
  }
  ExpectRangesMatchBuckets(t, eq, &smas);
  ExpectRangesMatchBuckets(t, ne, &smas);

  // Without a count-by-value SMA there is no support.
  SmaSet empty(t);
  auto no_support = BucketGrader::Create(eq, &empty);
  EXPECT_FALSE(no_support->has_sma_support());
}

TEST_F(GraderTest, StaleSmaCoverageGradesAmbivalent) {
  storage::Table* t =
      MakeSyntheticTable(&db, 1000, testing::Layout::kClustered);
  SmaSet smas(t);
  AddMinMaxSmas(t, &smas, "d");
  // Append more tuples AFTER building the SMAs (no maintenance).
  storage::TupleBuffer buf(&t->schema());
  buf.SetInt64(0, 999999);
  buf.SetDate(1, util::Date(0));
  buf.SetDecimal(2, util::Decimal(1));
  buf.SetString(3, "A");
  buf.SetString(4, "MAIL");
  const uint32_t old_buckets = t->num_buckets();
  for (int i = 0; i < 500; ++i) ExpectOk(t->Append(buf));
  ASSERT_GT(t->num_buckets(), old_buckets);

  const PredicatePtr pred = Unwrap(Predicate::AtomConst(
      &t->schema(), "d", CmpOp::kGe, Value::MakeDate(util::Date(1000))));
  auto grader = BucketGrader::Create(pred, &smas);
  for (uint32_t b = old_buckets; b < t->num_buckets(); ++b) {
    EXPECT_EQ(Unwrap(grader->GradeBucket(b)), Grade::kAmbivalent);
  }
  ExpectRangesMatchBuckets(t, pred, &smas, old_buckets);
  ExpectRangesMatchBuckets(
      t,
      Unwrap(Predicate::AtomConst(&t->schema(), "d", CmpOp::kLe,
                                  Value::MakeDate(util::Date(1000)))),
      &smas, old_buckets);
}

}  // namespace
}  // namespace smadb::sma
