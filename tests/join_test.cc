// Tests for HashJoin and the SMA-reduced semi-join operator.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "exec/gaggr.h"
#include "exec/join.h"
#include "exec/table_scan.h"
#include "tests/test_util.h"
#include "util/string_util.h"

namespace smadb::exec {
namespace {

using expr::CmpOp;
using expr::Predicate;
using expr::PredicatePtr;
using storage::Rid;
using storage::TupleBuffer;
using storage::TupleRef;
using testing::AddMinMaxSmas;
using testing::DrainRows;
using testing::ExpectOk;
using testing::MakeSyntheticTable;
using testing::TestDb;
using testing::Unwrap;
using util::Value;

// -------------------------------------------------------------- HashJoin --

struct JoinFixture : ::testing::Test {
  JoinFixture() : db(8192) {
    // Parent table: (k, d, v, grp, tag); child joins on k % 50.
    parent = MakeSyntheticTable(&db, 50, testing::Layout::kClustered, 3, 1,
                                "parent");
    child = Unwrap(
        db.catalog.CreateTable("child", testing::SyntheticSchema(), {}));
    util::Rng rng(17);
    TupleBuffer t(&child->schema());
    for (int i = 0; i < 400; ++i) {
      const int64_t fk = rng.Uniform(0, 69);  // 0..49 match, 50..69 dangle
      t.SetInt64(0, fk);
      t.SetDate(1, util::Date(static_cast<int32_t>(i)));
      t.SetDecimal(2, util::Decimal(i));
      t.SetString(3, "C");
      t.SetString(4, "MAIL");
      ExpectOk(child->Append(t));
      fk_counts[fk] += 1;
    }
  }

  TestDb db;
  storage::Table* parent = nullptr;
  storage::Table* child = nullptr;
  std::map<int64_t, int> fk_counts;
};

TEST_F(JoinFixture, InnerJoinCardinalityAndContent) {
  auto join = Unwrap(HashJoin::Make(
      std::make_unique<TableScan>(child, Predicate::True()), 0,
      std::make_unique<TableScan>(parent, Predicate::True()), 0));
  // Output schema is the concatenation.
  EXPECT_EQ(join->output_schema().num_fields(),
            child->schema().num_fields() + parent->schema().num_fields());

  size_t expected = 0;
  for (const auto& [fk, n] : fk_counts) {
    if (fk < 50) expected += static_cast<size_t>(n);
  }
  const plan::QueryResult result = Unwrap(plan::RunToCompletion(join.get()));
  for (const TupleBuffer& row : result.rows) {
    // Join keys agree on both sides.
    EXPECT_EQ(row.AsRef().GetInt64(0), row.AsRef().GetInt64(5));
  }
  EXPECT_EQ(result.rows.size(), expected);
}

TEST_F(JoinFixture, DuplicateBuildKeysProduceCrossProduct) {
  // Join child with itself on the fk column: each row matches
  // fk_counts[fk] rows.
  auto join = Unwrap(HashJoin::Make(
      std::make_unique<TableScan>(child, Predicate::True()), 0,
      std::make_unique<TableScan>(child, Predicate::True()), 0));
  size_t expected = 0;
  for (const auto& [fk, n] : fk_counts) {
    expected += static_cast<size_t>(n) * static_cast<size_t>(n);
  }
  EXPECT_EQ(DrainRows(join.get()).size(), expected);
}

TEST_F(JoinFixture, JoinFeedsAggregation) {
  // count joined rows per parent grp — exercises GAggr over a join.
  auto join = Unwrap(HashJoin::Make(
      std::make_unique<TableScan>(child, Predicate::True()), 0,
      std::make_unique<TableScan>(parent, Predicate::True()), 0));
  const size_t grp_col = child->schema().num_fields() + 3;
  auto aggr = Unwrap(GAggr::Make(std::move(join), {grp_col},
                                 {AggSpec::Count("n")}));
  int64_t total = 0;
  for (const TupleBuffer& row :
       Unwrap(plan::RunToCompletion(aggr.get())).rows) {
    total += row.AsRef().GetInt64(1);
  }
  size_t expected = 0;
  for (const auto& [fk, n] : fk_counts) {
    if (fk < 50) expected += static_cast<size_t>(n);
  }
  EXPECT_EQ(static_cast<size_t>(total), expected);
}

TEST_F(JoinFixture, RejectsNonIntegralKeys) {
  EXPECT_FALSE(HashJoin::Make(
                   std::make_unique<TableScan>(child, Predicate::True()), 3,
                   std::make_unique<TableScan>(parent, Predicate::True()), 3)
                   .ok());
  EXPECT_FALSE(HashJoin::Make(
                   std::make_unique<TableScan>(child, Predicate::True()), 99,
                   std::make_unique<TableScan>(parent, Predicate::True()), 0)
                   .ok());
}

// ------------------------------------------------------------ SmaSemiJoin --

struct SemiJoinOpFixture : ::testing::Test {
  SemiJoinOpFixture() : db(16384) {
    r = MakeSyntheticTable(&db, 4000, testing::Layout::kClustered, 3, 1, "r");
    r_smas = std::make_unique<sma::SmaSet>(r);
    AddMinMaxSmas(r, r_smas.get(), "d");
    s = Unwrap(db.catalog.CreateTable("s", testing::SyntheticSchema(), {}));
    util::Rng rng(5);
    TupleBuffer t(&s->schema());
    for (int i = 0; i < 200; ++i) {
      t.SetInt64(0, i);
      t.SetDate(1, util::Date(static_cast<int32_t>(rng.Uniform(200, 260))));
      t.SetDecimal(2, util::Decimal(1));
      t.SetString(3, "A");
      t.SetString(4, "MAIL");
      ExpectOk(s->Append(t));
    }
  }

  // Brute-force reference semi-join.
  std::vector<std::string> Reference(CmpOp op) {
    std::set<int64_t> s_vals;
    for (uint32_t b = 0; b < s->num_buckets(); ++b) {
      EXPECT_TRUE(s->ForEachTupleInBucket(b, [&](const TupleRef& t, Rid) {
                     s_vals.insert(t.GetRawInt(1));
                   }).ok());
    }
    std::vector<std::string> out;
    for (uint32_t b = 0; b < r->num_buckets(); ++b) {
      EXPECT_TRUE(r->ForEachTupleInBucket(b, [&](const TupleRef& t, Rid) {
                     const int64_t a = t.GetRawInt(1);
                     bool match = false;
                     for (int64_t v : s_vals) {
                       if (expr::CompareInt(a, op, v)) {
                         match = true;
                         break;
                       }
                     }
                     if (!match) return;
                     std::string row;
                     for (size_t c = 0; c < r->schema().num_fields(); ++c) {
                       row += t.GetValue(c).ToString();
                       row += '|';
                     }
                     out.push_back(std::move(row));
                   }).ok());
    }
    return out;
  }

  TestDb db;
  storage::Table* r = nullptr;
  storage::Table* s = nullptr;
  std::unique_ptr<sma::SmaSet> r_smas;
};

TEST_F(SemiJoinOpFixture, MatchesBruteForceForAllOps) {
  for (CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLe, CmpOp::kLt, CmpOp::kGe,
                   CmpOp::kGt}) {
    auto join =
        Unwrap(SmaSemiJoin::Make(r, 1, op, s, 1, r_smas.get()));
    EXPECT_EQ(DrainRows(join.get()), Reference(op))
        << "op " << static_cast<int>(op);
  }
}

TEST_F(SemiJoinOpFixture, PrunesBucketsWithSmas) {
  auto join = Unwrap(SmaSemiJoin::Make(r, 1, CmpOp::kEq, s, 1, r_smas.get()));
  (void)DrainRows(join.get());
  EXPECT_GT(join->buckets_pruned(), 0u);
}

TEST_F(SemiJoinOpFixture, WorksWithoutSmas) {
  auto with = Unwrap(SmaSemiJoin::Make(r, 1, CmpOp::kEq, s, 1, r_smas.get()));
  auto without = Unwrap(SmaSemiJoin::Make(r, 1, CmpOp::kEq, s, 1, nullptr));
  EXPECT_EQ(DrainRows(with.get()), DrainRows(without.get()));
  EXPECT_EQ(without->buckets_pruned(), 0u);
}

TEST_F(SemiJoinOpFixture, AllMatchBucketsSkipProbing) {
  auto join = Unwrap(SmaSemiJoin::Make(r, 1, CmpOp::kLe, s, 1, r_smas.get()));
  (void)DrainRows(join.get());
  // Low-d buckets are provably all-matching for d <= max(S).
  EXPECT_GT(join->buckets_unprobed(), 0u);
}

TEST_F(SemiJoinOpFixture, RSidePredicateFiltersAndPrunes) {
  // R restricted to d >= 150: combined with the semi-join reduction, both
  // prunings apply and results match filter-then-probe brute force.
  const expr::PredicatePtr r_pred = Unwrap(expr::Predicate::AtomConst(
      &r->schema(), "d", CmpOp::kGe, Value::MakeDate(util::Date(150))));
  auto join = Unwrap(SmaSemiJoin::Make(r, 1, CmpOp::kEq, s, 1, r_smas.get(),
                                       nullptr, r_pred));
  std::vector<std::string> expected;
  for (const std::string& row : Reference(CmpOp::kEq)) {
    // Reference rows serialize d at field index 1.
    const auto fields = util::Split(row, '|');
    const auto d = util::Date::Parse(fields[1]);
    ASSERT_TRUE(d.ok());
    if (d->days() >= 150) expected.push_back(row);
  }
  EXPECT_EQ(DrainRows(join.get()), expected);
  EXPECT_GT(join->buckets_pruned(), 0u);
}

TEST_F(SemiJoinOpFixture, SSidePredicateShrinksPartnerSet) {
  // Only S tuples with even id count as partners; the filtered minimax
  // must drive the reduction (soundness of all_match depends on it).
  const expr::PredicatePtr s_pred = Unwrap(expr::Predicate::AtomConst(
      &s->schema(), "v", CmpOp::kLe,
      Value::MakeDecimal(util::Decimal(100))));
  for (CmpOp op : {CmpOp::kEq, CmpOp::kLe, CmpOp::kGe}) {
    auto join = Unwrap(SmaSemiJoin::Make(r, 1, op, s, 1, r_smas.get(),
                                         nullptr, nullptr, s_pred));
    // Brute force against the filtered S.
    std::set<int64_t> s_vals;
    for (uint32_t b = 0; b < s->num_buckets(); ++b) {
      ExpectOk(s->ForEachTupleInBucket(b, [&](const TupleRef& t, Rid) {
        if (s_pred->Eval(t)) s_vals.insert(t.GetRawInt(1));
      }));
    }
    std::vector<std::string> expected;
    for (uint32_t b = 0; b < r->num_buckets(); ++b) {
      ExpectOk(r->ForEachTupleInBucket(b, [&](const TupleRef& t, Rid) {
        const int64_t a = t.GetRawInt(1);
        bool match = false;
        for (int64_t v : s_vals) {
          if (expr::CompareInt(a, op, v)) {
            match = true;
            break;
          }
        }
        if (!match) return;
        std::string row;
        for (size_t c = 0; c < r->schema().num_fields(); ++c) {
          row += t.GetValue(c).ToString();
          row += '|';
        }
        expected.push_back(std::move(row));
      }));
    }
    EXPECT_EQ(DrainRows(join.get()), expected) << static_cast<int>(op);
  }
}

TEST_F(SemiJoinOpFixture, EmptySYieldsNothing) {
  storage::Table* empty = Unwrap(
      db.catalog.CreateTable("s_empty", testing::SyntheticSchema(), {}));
  for (CmpOp op : {CmpOp::kEq, CmpOp::kLe, CmpOp::kNe}) {
    auto join = Unwrap(SmaSemiJoin::Make(r, 1, op, empty, 1, r_smas.get()));
    EXPECT_TRUE(DrainRows(join.get()).empty());
  }
}

}  // namespace
}  // namespace smadb::exec
