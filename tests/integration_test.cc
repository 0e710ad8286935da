// End-to-end integration: TPC-D Query 1 and Query 6 across clusterings and
// plans, the Fig. 4 SMA complement, and maintained mutation consistency.

#include <gtest/gtest.h>

#include "planner/planner.h"
#include "sma/maintenance.h"
#include "tests/test_util.h"
#include "tpch/loader.h"
#include "workloads/q1.h"

namespace smadb {
namespace {

using plan::AggQuery;
using plan::Planner;
using plan::PlanKind;
using plan::QueryResult;
using plan::RunToCompletion;
using testing::ExpectOk;
using testing::TestDb;
using testing::Unwrap;

struct Q1Integration : ::testing::Test {
  Q1Integration() : db(32768) {}

  storage::Table* Load(tpch::ClusterMode mode, const std::string& name) {
    tpch::LoadOptions load;
    load.mode = mode;
    return Unwrap(tpch::GenerateAndLoadLineItem(&db.catalog, {0.004, 42},
                                                load, nullptr, name));
  }

  std::string Run(sma::SmaSet* smas, const AggQuery& q, PlanKind kind) {
    Planner planner(smas);
    auto op = Unwrap(planner.Build(q, kind));
    return Unwrap(RunToCompletion(op.get())).ToString();
  }

  TestDb db;
};

TEST_F(Q1Integration, Fig4SmaComplementHas26Files) {
  storage::Table* t = Load(tpch::ClusterMode::kShipdateSorted, "li");
  sma::SmaSet smas(t);
  ExpectOk(workloads::BuildQ1Smas(t, &smas));
  EXPECT_EQ(smas.size(), 8u);  // 8 SMA definitions (Fig. 4)
  uint64_t files = 0;
  for (const sma::Sma* s : smas.all()) files += s->num_groups();
  EXPECT_EQ(files, 26u);  // 2 ungrouped + 6 grouped x 4 groups (§2.3)
  // Space: SMAs are a small fraction of the base data even at tiny scale.
  EXPECT_LT(smas.TotalSizeBytes(), t->SizeBytes() / 5);
}

TEST_F(Q1Integration, AllPlansAgreeOnAllClusterings) {
  int i = 0;
  for (tpch::ClusterMode mode :
       {tpch::ClusterMode::kShipdateSorted, tpch::ClusterMode::kDiagonal,
        tpch::ClusterMode::kOrderKey}) {
    storage::Table* t = Load(mode, "li" + std::to_string(i++));
    sma::SmaSet smas(t);
    ExpectOk(workloads::BuildQ1Smas(t, &smas));
    const AggQuery q1 = Unwrap(workloads::MakeQ1Query(t, 90));
    const std::string scan = Run(&smas, q1, PlanKind::kScanAggr);
    EXPECT_EQ(scan, Run(&smas, q1, PlanKind::kSmaScanAggr));
    EXPECT_EQ(scan, Run(&smas, q1, PlanKind::kSmaGAggr));
    EXPECT_NE(scan.find("A | F"), std::string::npos);
    EXPECT_NE(scan.find("N | O"), std::string::npos);
  }
}

TEST_F(Q1Integration, DeltaSweepAgreesAndShrinks) {
  storage::Table* t = Load(tpch::ClusterMode::kShipdateSorted, "li_delta");
  sma::SmaSet smas(t);
  ExpectOk(workloads::BuildQ1Smas(t, &smas));
  int64_t prev_count = INT64_MAX;
  for (int delta : {60, 90, 400, 1200}) {
    const AggQuery q1 = Unwrap(workloads::MakeQ1Query(t, delta));
    const std::string scan = Run(&smas, q1, PlanKind::kScanAggr);
    EXPECT_EQ(scan, Run(&smas, q1, PlanKind::kSmaGAggr)) << delta;
    // Larger delta = earlier cutoff = fewer qualifying rows.
    Planner planner(&smas);
    auto op = Unwrap(planner.Build(q1, PlanKind::kScanAggr));
    QueryResult r = Unwrap(RunToCompletion(op.get()));
    int64_t total = 0;
    const size_t count_col = r.schema->num_fields() - 1;
    for (const auto& row : r.rows) {
      total += row.AsRef().GetInt64(count_col);
    }
    EXPECT_LE(total, prev_count);
    prev_count = total;
  }
}

TEST_F(Q1Integration, PlannerPicksSmaGAggrForQ1) {
  storage::Table* t = Load(tpch::ClusterMode::kShipdateSorted, "li_plan");
  sma::SmaSet smas(t);
  ExpectOk(workloads::BuildQ1Smas(t, &smas));
  Planner planner(&smas);
  const AggQuery q1 = Unwrap(workloads::MakeQ1Query(t, 90));
  EXPECT_EQ(Unwrap(planner.Choose(q1)).kind, PlanKind::kSmaGAggr);
}

TEST_F(Q1Integration, Q6AgreesAcrossPlansAndPrunes) {
  storage::Table* t = Load(tpch::ClusterMode::kShipdateSorted, "li_q6");
  sma::SmaSet smas(t);
  ExpectOk(workloads::BuildQ1Smas(t, &smas));
  ExpectOk(workloads::BuildQ6Smas(t, &smas));
  const AggQuery q6 = Unwrap(workloads::MakeQ6Query(t, 1994, 6, 24));
  const std::string scan = Run(&smas, q6, PlanKind::kScanAggr);
  EXPECT_EQ(scan, Run(&smas, q6, PlanKind::kSmaScanAggr));
  EXPECT_EQ(scan, Run(&smas, q6, PlanKind::kSmaGAggr));

  // Q6's one-year range on sorted data prunes ~6/7 of the buckets.
  Planner planner(&smas);
  const plan::PlanChoice choice = Unwrap(planner.Choose(q6));
  EXPECT_GT(choice.disqualifying, choice.total_buckets() / 2);
}

TEST_F(Q1Integration, MaintainedInsertsKeepQ1Consistent) {
  storage::Table* t = Load(tpch::ClusterMode::kShipdateSorted, "li_maint");
  sma::SmaSet smas(t);
  ExpectOk(workloads::BuildQ1Smas(t, &smas));
  sma::SmaMaintainer maintainer(t, &smas);

  // Append a fresh batch of lineitems through the maintainer.
  tpch::Dbgen gen({0.0005, 1234});
  std::vector<tpch::OrderRow> orders;
  std::vector<tpch::LineItemRow> lis;
  gen.GenOrdersAndLineItems(&orders, &lis);
  for (const auto& row : lis) {
    ExpectOk(
        maintainer.Insert(tpch::LineItemTuple(&t->schema(), row)));
  }

  const AggQuery q1 = Unwrap(workloads::MakeQ1Query(t, 90));
  const std::string scan = Run(&smas, q1, PlanKind::kScanAggr);
  EXPECT_EQ(scan, Run(&smas, q1, PlanKind::kSmaGAggr));
}

TEST_F(Q1Integration, ColdVsWarmPageReads) {
  storage::Table* t = Load(tpch::ClusterMode::kShipdateSorted, "li_cold");
  sma::SmaSet smas(t);
  ExpectOk(workloads::BuildQ1Smas(t, &smas));
  const AggQuery q1 = Unwrap(workloads::MakeQ1Query(t, 90));
  Planner planner(&smas);

  // Cold: everything faulted from disk.
  ExpectOk(db.pool.DropAll());
  db.disk.ResetStats();
  auto op = Unwrap(planner.Build(q1, PlanKind::kSmaGAggr));
  (void)Unwrap(RunToCompletion(op.get()));
  const uint64_t cold_reads = db.disk.stats().page_reads;

  // Warm: SMA files resident from the cold run.
  db.disk.ResetStats();
  auto op2 = Unwrap(planner.Build(q1, PlanKind::kSmaGAggr));
  (void)Unwrap(RunToCompletion(op2.get()));
  const uint64_t warm_reads = db.disk.stats().page_reads;

  EXPECT_GT(cold_reads, 0u);
  EXPECT_LT(warm_reads, cold_reads / 2);  // paper: 4.9 s cold vs 1.9 s warm
  // And both are tiny next to the table itself.
  EXPECT_LT(cold_reads, t->num_pages() / 4);
}

}  // namespace
}  // namespace smadb
