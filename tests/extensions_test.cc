// Tests for the §4 extension that smadb keeps: hierarchical (two-level)
// SMAs.

#include <gtest/gtest.h>

#include "sma/builder.h"
#include "sma/hierarchical.h"
#include "tests/test_util.h"

namespace smadb::sma {
namespace {

using expr::CmpOp;
using testing::AddMinMaxSmas;
using testing::ExpectOk;
using testing::MakeSyntheticTable;
using testing::TestDb;
using testing::Unwrap;

// ---------------------------------------------------------- Hierarchical --

struct HierarchicalTest : ::testing::Test {
  HierarchicalTest() : db(32768) {}

  void Setup(int64_t rows, testing::Layout layout) {
    table = MakeSyntheticTable(&db, rows, layout);
    smas = std::make_unique<SmaSet>(table);
    AddMinMaxSmas(table, smas.get(), "d");
    min_sma = smas->FindMinMax(AggFunc::kMin, 1);
    max_sma = smas->FindMinMax(AggFunc::kMax, 1);
    hier = Unwrap(HierarchicalMinMax::Build(min_sma, max_sma));
  }

  TestDb db;
  storage::Table* table = nullptr;
  std::unique_ptr<SmaSet> smas;
  const Sma* min_sma = nullptr;
  const Sma* max_sma = nullptr;
  std::unique_ptr<HierarchicalMinMax> hier;
};

TEST_F(HierarchicalTest, RejectsWrongInputs) {
  Setup(500, testing::Layout::kClustered);
  EXPECT_FALSE(HierarchicalMinMax::Build(min_sma, min_sma).ok());
  EXPECT_FALSE(HierarchicalMinMax::Build(nullptr, max_sma).ok());
  const expr::ExprPtr d = Unwrap(expr::Column(&table->schema(), "d"));
  auto grouped = Unwrap(BuildSma(table, SmaSpec::Min("g", d, {3})));
  EXPECT_FALSE(HierarchicalMinMax::Build(grouped.get(), max_sma).ok());
}

TEST_F(HierarchicalTest, GradesIdenticalToFlatAcrossSweep) {
  // Enough rows for several L1 pages (1024 buckets each → need >> 170k
  // rows with 163 tuples/page; use noisy layout for mixed grades).
  Setup(400'000, testing::Layout::kNoisy);
  ASSERT_GT(min_sma->group_file(0)->num_pages(), 1u);
  for (CmpOp op : {CmpOp::kLe, CmpOp::kLt, CmpOp::kGe, CmpOp::kGt, CmpOp::kEq,
                   CmpOp::kNe}) {
    for (int64_t c : {-5L, 100L, 25000L, 50000L, 70000L}) {
      std::vector<Grade> flat, hierarchical;
      uint64_t flat_pages = 0, hier_pages = 0;
      ExpectOk(hier->GradeAllFlat(op, c, &flat, &flat_pages));
      ExpectOk(hier->GradeAll(op, c, &hierarchical, &hier_pages));
      EXPECT_EQ(flat, hierarchical)
          << "op " << static_cast<int>(op) << " c=" << c;
      EXPECT_LE(hier_pages, flat_pages);
    }
  }
}

TEST_F(HierarchicalTest, SavesL1PagesAtExtremeSelectivities) {
  Setup(400'000, testing::Layout::kClustered);
  // Very low cut-off: nearly everything disqualifies at level 2 already.
  std::vector<Grade> grades;
  uint64_t flat_pages = 0, hier_pages = 0;
  ExpectOk(hier->GradeAllFlat(CmpOp::kLe, 10, &grades, &flat_pages));
  ExpectOk(hier->GradeAll(CmpOp::kLe, 10, &grades, &hier_pages));
  EXPECT_LT(hier_pages, flat_pages / 2)
      << "second level should settle most first-level pages";
}

TEST_F(HierarchicalTest, Level2IsTiny) {
  Setup(400'000, testing::Layout::kClustered);
  // §4: "second level SMA-files will be very small".
  EXPECT_LE(hier->level2_min()->num_pages(), 1u);
  EXPECT_LE(hier->level2_max()->num_pages(), 1u);
}

TEST_F(HierarchicalTest, EmptyTable) {
  storage::Table* empty = Unwrap(
      db.catalog.CreateTable("e", testing::SyntheticSchema(), {}));
  SmaSet smas2(empty);
  AddMinMaxSmas(empty, &smas2, "d");
  auto h = Unwrap(HierarchicalMinMax::Build(
      smas2.FindMinMax(AggFunc::kMin, 1), smas2.FindMinMax(AggFunc::kMax, 1)));
  std::vector<Grade> grades;
  uint64_t pages = 0;
  ExpectOk(h->GradeAll(CmpOp::kLe, 5, &grades, &pages));
  EXPECT_TRUE(grades.empty());
}

}  // namespace
}  // namespace smadb::sma
