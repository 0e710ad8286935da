// Tests for the baseline structures: B+-tree, projection index, data cube.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "baseline/bptree.h"
#include "baseline/datacube.h"
#include "baseline/projection_index.h"
#include "tests/test_util.h"
#include "util/string_util.h"

namespace smadb::baseline {
namespace {

using expr::CmpOp;
using storage::Rid;
using testing::ExpectOk;
using testing::MakeSyntheticTable;
using testing::TestDb;
using testing::Unwrap;
using util::Value;

// ---------------------------------------------------------------- B+tree --

struct BPlusTreeTest : ::testing::Test {
  BPlusTreeTest() : db(16384) {}
  TestDb db;
};

std::vector<BPlusTree::Entry> MakeEntries(int n, uint64_t seed,
                                          int64_t key_range) {
  util::Rng rng(seed);
  std::vector<BPlusTree::Entry> entries;
  entries.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    entries.push_back(BPlusTree::Entry{
        rng.Uniform(0, key_range),
        Rid{static_cast<uint32_t>(i / 100), static_cast<uint16_t>(i % 100)}});
  }
  return entries;
}

TEST_F(BPlusTreeTest, BulkBuildAndPointLookup) {
  auto entries = MakeEntries(20000, 5, 5000);
  std::vector<BPlusTree::Entry> sorted = entries;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const auto& a, const auto& b) { return a.key < b.key; });
  auto tree = Unwrap(BPlusTree::BulkBuild(&db.pool, "t", sorted));
  EXPECT_EQ(tree->num_entries(), entries.size());
  EXPECT_GE(tree->height(), 2);

  std::map<int64_t, size_t> key_counts;
  for (const auto& e : entries) ++key_counts[e.key];
  for (int64_t key : {int64_t{0}, int64_t{17}, int64_t{2500}, int64_t{5000},
                      int64_t{12345}}) {
    const auto rids = Unwrap(tree->Lookup(key));
    const auto it = key_counts.find(key);
    EXPECT_EQ(rids.size(), it == key_counts.end() ? 0 : it->second)
        << "key " << key;
  }
}

TEST_F(BPlusTreeTest, RangeLookupMatchesBruteForce) {
  auto entries = MakeEntries(8000, 9, 2000);
  std::vector<BPlusTree::Entry> sorted = entries;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const auto& a, const auto& b) { return a.key < b.key; });
  auto tree = Unwrap(BPlusTree::BulkBuild(&db.pool, "t", sorted));
  util::Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    int64_t lo = rng.Uniform(-100, 2100);
    int64_t hi = rng.Uniform(-100, 2100);
    if (lo > hi) std::swap(lo, hi);
    size_t expected = 0;
    for (const auto& e : entries) expected += e.key >= lo && e.key <= hi;
    EXPECT_EQ(Unwrap(tree->RangeLookup(lo, hi)).size(), expected)
        << "[" << lo << ", " << hi << "]";
  }
  // Degenerate ranges.
  EXPECT_TRUE(Unwrap(tree->RangeLookup(10, 5)).empty());
}

TEST_F(BPlusTreeTest, EmptyTree) {
  auto tree = Unwrap(BPlusTree::Create(&db.pool, "t"));
  EXPECT_TRUE(Unwrap(tree->Lookup(5)).empty());
  EXPECT_TRUE(Unwrap(tree->RangeLookup(0, 100)).empty());
  EXPECT_EQ(tree->num_entries(), 0u);
}

TEST_F(BPlusTreeTest, InsertsWithSplitsMatchBruteForce) {
  auto tree = Unwrap(BPlusTree::Create(&db.pool, "t"));
  util::Rng rng(13);
  std::map<int64_t, size_t> key_counts;
  // Enough inserts to force leaf and internal splits (capacity 255/340).
  for (int i = 0; i < 30000; ++i) {
    const int64_t key = rng.Uniform(0, 3000);
    ExpectOk(tree->Insert(
        key, Rid{static_cast<uint32_t>(i), static_cast<uint16_t>(i % 7)}));
    ++key_counts[key];
  }
  EXPECT_GE(tree->height(), 2);
  for (int64_t key = 0; key <= 3000; key += 111) {
    const auto it = key_counts.find(key);
    EXPECT_EQ(Unwrap(tree->Lookup(key)).size(),
              it == key_counts.end() ? 0 : it->second);
  }
  // Full range returns everything in key order.
  const auto all = Unwrap(tree->RangeLookup(INT64_MIN + 1, INT64_MAX));
  EXPECT_EQ(all.size(), 30000u);
}

TEST_F(BPlusTreeTest, MixedBulkThenInserts) {
  auto sorted = MakeEntries(5000, 21, 1000);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const auto& a, const auto& b) { return a.key < b.key; });
  auto tree = Unwrap(BPlusTree::BulkBuild(&db.pool, "t", sorted));
  for (int i = 0; i < 5000; ++i) {
    ExpectOk(tree->Insert(i % 1000, Rid{0, 0}));
  }
  EXPECT_EQ(tree->num_entries(), 10000u);
  EXPECT_EQ(Unwrap(tree->RangeLookup(INT64_MIN + 1, INT64_MAX)).size(),
            10000u);
}

TEST_F(BPlusTreeTest, BuildForColumnAndSizeComparison) {
  storage::Table* t =
      MakeSyntheticTable(&db, 20000, testing::Layout::kRandom);
  auto tree = Unwrap(BPlusTree::BuildForColumn(t, 1, "d_idx"));
  EXPECT_EQ(tree->num_entries(), 20000u);
  // The paper's observation: the B+-tree dwarfs min/max SMAs.
  sma::SmaSet smas(t);
  testing::AddMinMaxSmas(t, &smas, "d");
  EXPECT_GT(tree->SizeBytes(), smas.TotalSizeBytes() * 10);
}

TEST_F(BPlusTreeTest, RejectsBadFillFactor) {
  EXPECT_FALSE(BPlusTree::BulkBuild(&db.pool, "t", {}, 0.0).ok());
  EXPECT_FALSE(BPlusTree::BulkBuild(&db.pool, "t2", {}, 1.5).ok());
}

// ------------------------------------------------------- ProjectionIndex --

struct ProjectionIndexTest : ::testing::Test {
  ProjectionIndexTest() : db(8192) {}
  TestDb db;
};

TEST_F(ProjectionIndexTest, ValuesMatchTable) {
  storage::Table* t =
      MakeSyntheticTable(&db, 3000, testing::Layout::kRandom);
  auto idx = Unwrap(ProjectionIndex::Build(t, 1));
  EXPECT_EQ(idx->num_values(), 3000u);
  // Spot-check positional agreement.
  uint64_t i = 0;
  for (uint32_t b = 0; b < t->num_buckets(); ++b) {
    ExpectOk(t->ForEachTupleInBucket(
        b, [&](const storage::TupleRef& tup, Rid) {
          EXPECT_EQ(Unwrap(idx->Get(i)), tup.GetRawInt(1));
          ++i;
        }));
  }
}

TEST_F(ProjectionIndexTest, CountsMatchScan) {
  storage::Table* t =
      MakeSyntheticTable(&db, 2000, testing::Layout::kRandom);
  auto idx = Unwrap(ProjectionIndex::Build(t, 2));
  for (CmpOp op : {CmpOp::kLe, CmpOp::kGt, CmpOp::kEq}) {
    const int64_t c = 3000;
    uint64_t expected = 0;
    for (uint32_t b = 0; b < t->num_buckets(); ++b) {
      ExpectOk(t->ForEachTupleInBucket(
          b, [&](const storage::TupleRef& tup, Rid) {
            expected += expr::CompareInt(tup.GetRawInt(2), op, c);
          }));
    }
    EXPECT_EQ(Unwrap(idx->CountMatching(op, c)), expected);
    EXPECT_EQ(Unwrap(idx->MatchingPositions(op, c)).Count(), expected);
  }
}

TEST_F(ProjectionIndexTest, IsSmallerThanBaseData) {
  storage::Table* t =
      MakeSyntheticTable(&db, 10000, testing::Layout::kRandom);
  auto idx = Unwrap(ProjectionIndex::Build(t, 1));  // 4-byte dates
  EXPECT_LT(idx->SizeBytes(), t->SizeBytes() / 5);
}

TEST_F(ProjectionIndexTest, RejectsStringColumns) {
  storage::Table* t =
      MakeSyntheticTable(&db, 10, testing::Layout::kRandom);
  EXPECT_FALSE(ProjectionIndex::Build(t, 3).ok());
  EXPECT_FALSE(ProjectionIndex::Build(t, 99).ok());
}

// -------------------------------------------------------------- DataCube --

TEST(CubeSizingTest, ReproducesPaperNumbers) {
  CubeSizing sizing;  // 4 flag combos, 2556 days, 48-byte entries
  // §2.4: 479.25 KB / 1196.25 MB / 2985.95 GB for 1/2/3 date dimensions.
  EXPECT_NEAR(sizing.SizeBytes(1) / 1024.0, 479.25, 0.01);
  EXPECT_NEAR(sizing.SizeBytes(2) / (1024.0 * 1024.0), 1196.25, 0.26);
  EXPECT_NEAR(sizing.SizeBytes(3) / (1024.0 * 1024.0 * 1024.0), 2985.95,
              0.7);
}

struct DataCubeTest : ::testing::Test {
  DataCubeTest() : db(8192) {
    table = MakeSyntheticTable(&db, 3000, testing::Layout::kRandom);
    const expr::ExprPtr v = Unwrap(expr::Column(&table->schema(), "v"));
    aggs = {exec::AggSpec::Sum(v, "sum_v"), exec::AggSpec::Count("cnt")};
  }

  TestDb db;
  storage::Table* table = nullptr;
  std::vector<exec::AggSpec> aggs;
};

TEST_F(DataCubeTest, CellAggregatesMatchGAggr) {
  auto cube = Unwrap(DataCube::Build(table, {3, 4}, aggs));
  // Each group of the brute-force GAggr reference on the same grouping,
  // serialized "grp|tag|sum|count|", is one cell with the same aggregates.
  const std::vector<std::string> groups = testing::ReferenceAggregate(
      table, *expr::Predicate::True(), {3, 4}, aggs);
  for (const std::string& group : groups) {
    const std::vector<std::string> fields = util::Split(group, '|');
    const std::vector<Value> dims = {Value::String(fields[0]),
                                     Value::String(fields[1])};
    const auto got = Unwrap(cube->CellAggregates(dims));
    EXPECT_EQ(testing::RowString({dims[0], dims[1], got[0], got[1]}), group);
  }
  EXPECT_EQ(cube->num_cells(), groups.size());
}

TEST_F(DataCubeTest, MissingCellIsNotFound) {
  auto cube = Unwrap(DataCube::Build(table, {3}, aggs));
  EXPECT_EQ(cube->CellAggregates({Value::String("ZZZ")}).status().code(),
            util::StatusCode::kNotFound);
  EXPECT_FALSE(cube->CellAggregates({}).ok());  // arity mismatch
}

TEST_F(DataCubeTest, SliceAggregatesMatchScan) {
  auto cube = Unwrap(DataCube::Build(table, {1}, aggs));  // dim = date
  const int64_t c = 150;
  int64_t ref_sum = 0, ref_cnt = 0;
  for (uint32_t b = 0; b < table->num_buckets(); ++b) {
    ExpectOk(table->ForEachTupleInBucket(
        b, [&](const storage::TupleRef& tup, Rid) {
          if (tup.GetRawInt(1) <= c) {
            ref_sum += tup.GetRawInt(2);
            ++ref_cnt;
          }
        }));
  }
  const auto got = Unwrap(cube->SliceAggregates(0, CmpOp::kLe, c));
  EXPECT_EQ(got[0].AsDecimal().cents(), ref_sum);
  EXPECT_EQ(got[1].AsInt64(), ref_cnt);
}

TEST_F(DataCubeTest, InflexibilityIsExplicit) {
  // The paper's core criticism: a cube over (grp) cannot answer queries
  // restricting the date column.
  auto cube = Unwrap(DataCube::Build(table, {3}, aggs));
  EXPECT_TRUE(cube->CheckApplicable(3).ok());
  EXPECT_EQ(cube->CheckApplicable(1).code(),
            util::StatusCode::kNotSupported);
}

TEST_F(DataCubeTest, ValidatesInput) {
  EXPECT_FALSE(DataCube::Build(table, {}, aggs).ok());
  EXPECT_FALSE(DataCube::Build(table, {99}, aggs).ok());
  EXPECT_FALSE(DataCube::Build(table, {3}, {}).ok());
}

}  // namespace
}  // namespace smadb::baseline
