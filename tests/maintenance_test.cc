// Tests for incremental SMA maintenance (paper §2.1): after any sequence of
// maintained inserts and updates, every SMA must equal what a fresh bulk
// build over the final table state would produce.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "sma/maintenance.h"
#include "tests/test_util.h"
#include "util/fault.h"

namespace smadb::sma {
namespace {

using storage::Rid;
using storage::TupleBuffer;
using testing::ExpectOk;
using testing::SyntheticSchema;
using testing::TestDb;
using testing::Unwrap;
using util::Status;
using util::Value;

using testing::ExpectSmaEqualsRebuild;

TupleBuffer MakeRow(const storage::Schema* schema, int64_t k, int32_t day,
                    int64_t cents, const char* grp, const char* tag) {
  TupleBuffer t(schema);
  t.SetInt64(0, k);
  t.SetDate(1, util::Date(day));
  t.SetDecimal(2, util::Decimal(cents));
  t.SetString(3, grp);
  t.SetString(4, tag);
  return t;
}

struct MaintenanceTest : ::testing::Test {
  MaintenanceTest() : db(4096) {
    table = Unwrap(db.catalog.CreateTable("m", SyntheticSchema(), {}));
    smas = std::make_unique<SmaSet>(table);
    const expr::ExprPtr d = Unwrap(expr::Column(&table->schema(), "d"));
    const expr::ExprPtr v = Unwrap(expr::Column(&table->schema(), "v"));
    ExpectOk(smas->Add(Unwrap(BuildSma(table, SmaSpec::Min("min_d", d)))));
    ExpectOk(smas->Add(Unwrap(BuildSma(table, SmaSpec::Max("max_d", d)))));
    ExpectOk(
        smas->Add(Unwrap(BuildSma(table, SmaSpec::Sum("sum_v", v, {3})))));
    ExpectOk(
        smas->Add(Unwrap(BuildSma(table, SmaSpec::Count("cnt", {3})))));
    maintainer = std::make_unique<SmaMaintainer>(table, smas.get());
  }

  void ExpectAllSmasConsistent() {
    for (const Sma* sma : smas->all()) {
      ExpectSmaEqualsRebuild(table, *sma);
    }
  }

  TestDb db;
  storage::Table* table = nullptr;
  std::unique_ptr<SmaSet> smas;
  std::unique_ptr<SmaMaintainer> maintainer;
};

TEST_F(MaintenanceTest, InsertsIntoEmptyTable) {
  ExpectOk(maintainer->Insert(
      MakeRow(&table->schema(), 1, 10, 100, "A", "MAIL")));
  ExpectOk(maintainer->Insert(
      MakeRow(&table->schema(), 2, 5, 250, "B", "RAIL")));
  EXPECT_EQ(table->num_tuples(), 2u);
  for (const Sma* sma : smas->all()) {
    EXPECT_EQ(sma->num_buckets(), 1u);
  }
  EXPECT_EQ(Unwrap(Unwrap(smas->Find("min_d"))->group_file(0)->Get(0)), 5);
  EXPECT_EQ(Unwrap(Unwrap(smas->Find("max_d"))->group_file(0)->Get(0)), 10);
  ExpectAllSmasConsistent();
}

TEST_F(MaintenanceTest, ManyInsertsSpanningBuckets) {
  util::Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const char grp[2] = {static_cast<char>('A' + rng.Uniform(0, 3)), 0};
    ExpectOk(maintainer->Insert(MakeRow(
        &table->schema(), i, static_cast<int32_t>(rng.Uniform(0, 400)),
        rng.Uniform(0, 10000), grp, "MAIL")));
  }
  EXPECT_GT(table->num_buckets(), 3u);
  ExpectAllSmasConsistent();
}

TEST_F(MaintenanceTest, InsertDiscoversNewGroupWithBackfill) {
  for (int i = 0; i < 500; ++i) {
    ExpectOk(maintainer->Insert(
        MakeRow(&table->schema(), i, i / 8, i, "A", "MAIL")));
  }
  const size_t groups_before = Unwrap(smas->Find("cnt"))->num_groups();
  // A brand-new group arrives late; earlier buckets must be backfilled.
  ExpectOk(maintainer->Insert(
      MakeRow(&table->schema(), 999, 60, 1, "Q", "MAIL")));
  const Sma* cnt = Unwrap(smas->Find("cnt"));
  EXPECT_EQ(cnt->num_groups(), groups_before + 1);
  ExpectAllSmasConsistent();
}

TEST_F(MaintenanceTest, UpdateAggregatedColumnRecomputes) {
  for (int i = 0; i < 1000; ++i) {
    ExpectOk(maintainer->Insert(
        MakeRow(&table->schema(), i, i / 8, i, "A", "MAIL")));
  }
  // Shrink a date that was the bucket minimum: only recompute can fix it.
  ExpectOk(maintainer->UpdateColumn(Rid{3, 0}, 1,
                                    Value::MakeDate(util::Date(9999))));
  ExpectOk(maintainer->UpdateColumn(Rid{5, 2}, 1,
                                    Value::MakeDate(util::Date(-50))));
  ExpectAllSmasConsistent();
}

TEST_F(MaintenanceTest, UpdateGroupingColumnMovesTupleBetweenGroups) {
  for (int i = 0; i < 1000; ++i) {
    const char* grp = i % 2 == 0 ? "A" : "B";
    ExpectOk(maintainer->Insert(
        MakeRow(&table->schema(), i, i / 8, i, grp, "MAIL")));
  }
  ExpectOk(maintainer->UpdateColumn(Rid{0, 1}, 3, Value::String("C")));
  ExpectAllSmasConsistent();
}

TEST_F(MaintenanceTest, UpdateUnrelatedColumnTouchesNothing) {
  for (int i = 0; i < 300; ++i) {
    ExpectOk(maintainer->Insert(
        MakeRow(&table->schema(), i, i / 8, i, "A", "MAIL")));
  }
  db.disk.ResetStats();
  // Column k (0) is not aggregated and not a group key: the update must not
  // rewrite any SMA pages. (tag (4) is also unrelated but k is cheapest.)
  ExpectOk(maintainer->UpdateColumn(Rid{0, 0}, 0, Value::Int64(424242)));
  ExpectAllSmasConsistent();
}

TEST_F(MaintenanceTest, MixedWorkloadStaysConsistent) {
  util::Rng rng(77);
  for (int step = 0; step < 1500; ++step) {
    if (table->num_tuples() == 0 || rng.NextBool(0.7)) {
      const char grp[2] = {static_cast<char>('A' + rng.Uniform(0, 4)), 0};
      ExpectOk(maintainer->Insert(MakeRow(
          &table->schema(), step, static_cast<int32_t>(rng.Uniform(0, 300)),
          rng.Uniform(-500, 5000), grp, "SHIP")));
    } else {
      const uint32_t page = static_cast<uint32_t>(
          rng.Uniform(0, table->num_pages() - 1));
      auto guard = Unwrap(table->FetchPage(page));
      const uint16_t count = storage::Table::PageTupleCount(*guard.page());
      guard.Release();
      if (count == 0) continue;
      const Rid rid{page,
                    static_cast<uint16_t>(rng.Uniform(0, count - 1))};
      switch (rng.Uniform(0, 2)) {
        case 0:
          ExpectOk(maintainer->UpdateColumn(
              rid, 1,
              Value::MakeDate(
                  util::Date(static_cast<int32_t>(rng.Uniform(0, 300))))));
          break;
        case 1:
          ExpectOk(maintainer->UpdateColumn(
              rid, 2, Value::MakeDecimal(
                          util::Decimal(rng.Uniform(-500, 5000)))));
          break;
        default: {
          const char grp[2] = {static_cast<char>('A' + rng.Uniform(0, 4)),
                               0};
          ExpectOk(maintainer->UpdateColumn(rid, 3, Value::String(grp)));
          break;
        }
      }
    }
  }
  ExpectAllSmasConsistent();
}

TEST_F(MaintenanceTest, DeleteRecomputesAllSmas) {
  for (int i = 0; i < 1000; ++i) {
    const char* grp = i % 3 == 0 ? "A" : "B";
    ExpectOk(maintainer->Insert(
        MakeRow(&table->schema(), i, i / 8, i, grp, "MAIL")));
  }
  // Delete the bucket minimum and a few arbitrary tuples.
  ExpectOk(maintainer->Delete(Rid{0, 0}));
  ExpectOk(maintainer->Delete(Rid{2, 5}));
  ExpectOk(maintainer->Delete(Rid{4, 1}));
  ExpectAllSmasConsistent();
  // Double delete propagates the storage error.
  EXPECT_EQ(maintainer->Delete(Rid{0, 0}).code(),
            util::StatusCode::kNotFound);
}

TEST_F(MaintenanceTest, DeleteWholeGroupFromBucket) {
  // Removing every tuple of a group from a bucket must leave identity /
  // undefined entries behind.
  for (int i = 0; i < 200; ++i) {
    ExpectOk(maintainer->Insert(
        MakeRow(&table->schema(), i, 5, 10, i < 100 ? "A" : "B", "MAIL")));
  }
  // Delete all "A" rows (they came first).
  uint64_t deleted = 0;
  for (uint32_t p = 0; p < table->num_pages(); ++p) {
    auto guard = Unwrap(table->FetchPage(p));
    const uint16_t n = storage::Table::PageTupleCount(*guard.page());
    std::vector<Rid> to_delete;
    for (uint16_t s = 0; s < n; ++s) {
      if (table->PageTuple(*guard.page(), s).GetString(3) == "A") {
        to_delete.push_back(Rid{p, s});
      }
    }
    guard.Release();
    for (Rid rid : to_delete) {
      ExpectOk(maintainer->Delete(rid));
      ++deleted;
    }
  }
  EXPECT_EQ(deleted, 100u);
  const Sma* cnt = Unwrap(smas->Find("cnt"));
  const int64_t ga = cnt->FindGroup({util::Value::String("A")});
  ASSERT_GE(ga, 0);
  for (uint64_t b = 0; b < cnt->num_buckets(); ++b) {
    EXPECT_EQ(Unwrap(cnt->group_file(static_cast<size_t>(ga))->Get(b)), 0);
  }
  ExpectAllSmasConsistent();
}

TEST_F(MaintenanceTest, VacuumPreservesSmaCorrespondence) {
  // In-page compaction keeps every page (hence bucket) in place, so the
  // SMAs must stay exactly consistent without any repair.
  util::Rng rng(21);
  for (int i = 0; i < 1200; ++i) {
    const char grp[2] = {static_cast<char>('A' + rng.Uniform(0, 2)), 0};
    ExpectOk(maintainer->Insert(MakeRow(
        &table->schema(), i, static_cast<int32_t>(rng.Uniform(0, 200)),
        rng.Uniform(0, 999), grp, "MAIL")));
  }
  for (int i = 0; i < 150; ++i) {
    const uint32_t page =
        static_cast<uint32_t>(rng.Uniform(0, table->num_pages() - 1));
    auto guard = Unwrap(table->FetchPage(page));
    const uint16_t count = storage::Table::PageTupleCount(*guard.page());
    const uint16_t slot =
        static_cast<uint16_t>(rng.Uniform(0, count - 1));
    const bool deleted =
        storage::Table::PageSlotDeleted(*guard.page(), slot);
    guard.Release();
    if (deleted) continue;
    ExpectOk(maintainer->Delete(Rid{page, slot}));
  }
  ExpectOk(table->Vacuum());
  ExpectAllSmasConsistent();
}

TEST_F(MaintenanceTest, InsertCostIsBounded) {
  // §2.1: "At most one additional page access is needed for an updated
  // tuple" — per SMA-file. Measure page I/O of one insert into a warm pool.
  for (int i = 0; i < 500; ++i) {
    ExpectOk(maintainer->Insert(
        MakeRow(&table->schema(), i, i / 8, i, "A", "MAIL")));
  }
  ExpectOk(db.pool.FlushAll());
  db.disk.ResetStats();
  ExpectOk(maintainer->Insert(
      MakeRow(&table->schema(), 9999, 62, 77, "A", "MAIL")));
  // Everything is buffer-resident: no disk reads at all.
  EXPECT_EQ(db.disk.stats().page_reads, 0u);
}

// A planner checks staleness without latches (SmaSet::TrustIssue) and
// demotes its query to a full scan on a stale SMA, so the maintainer stamps
// every SMA before the table write: a reader polling while inserts, updates
// and deletes run must never see one stale.
TEST_F(MaintenanceTest, SmasNeverLookStaleMidMutation) {
  std::atomic<bool> done{false};
  uint64_t polls = 0;
  std::string first_issue;  // written by the reader until joined
  std::thread reader([&] {
    while (!done.load()) {
      std::string issue = smas->TrustIssue();
      ++polls;
      if (!issue.empty() && first_issue.empty()) first_issue = issue;
    }
  });
  std::vector<Rid> rids;
  for (int i = 0; i < 2000; ++i) {
    Rid rid;
    ExpectOk(maintainer->Insert(
        MakeRow(&table->schema(), i, i / 8, i, i % 3 == 0 ? "A" : "B",
                "MAIL"),
        &rid));
    rids.push_back(rid);
  }
  for (size_t i = 0; i < rids.size(); i += 7) {
    ExpectOk(maintainer->UpdateColumn(rids[i], 2,
                                      Value::MakeDecimal(util::Decimal(5))));
  }
  for (size_t i = 3; i < rids.size(); i += 11) {
    ExpectOk(maintainer->Delete(rids[i]));
  }
  done.store(true);
  reader.join();
  EXPECT_GT(polls, 0u);
  EXPECT_EQ(first_issue, "");
  ExpectAllSmasConsistent();
}

// A failed table write takes its early stamps back: an SMA left stamped
// ahead of the table would hide the next mutation made behind its back.
TEST_F(MaintenanceTest, FailedWriteLeavesNoStampAhead) {
  for (int i = 0; i < 100; ++i) {
    ExpectOk(maintainer->Insert(
        MakeRow(&table->schema(), i, i / 8, i, "A", "MAIL")));
  }
  const uint64_t epoch = table->epoch();
  EXPECT_EQ(maintainer->Delete(Rid{999, 0}).code(),
            util::StatusCode::kOutOfRange);
  ExpectOk(maintainer->Delete(Rid{0, 0}));
  EXPECT_EQ(maintainer->Delete(Rid{0, 0}).code(),
            util::StatusCode::kNotFound);
  EXPECT_EQ(maintainer->UpdateColumn(Rid{0, 0}, 2, Value::Int64(1)).code(),
            util::StatusCode::kNotFound);
  EXPECT_EQ(table->epoch(), epoch + 1);
  for (const Sma* sma : smas->all()) {
    EXPECT_EQ(sma->built_epoch(), epoch + 1) << sma->spec().name;
  }
  // A mutation behind the maintainer's back is still detected.
  ExpectOk(table->Append(MakeRow(&table->schema(), 7, 1, 1, "A", "MAIL")));
  EXPECT_NE(smas->TrustIssue().find("stale"), std::string::npos);
}

// A fold that fails distrusts its SMA; the SMAs it never reached keep their
// old stamp (stale), and Rebuild() repairs both kinds.
TEST_F(MaintenanceTest, FailedFoldLeavesUnfoldedSmasStale) {
  for (int i = 0; i < 100; ++i) {
    ExpectOk(maintainer->Insert(
        MakeRow(&table->schema(), i, i / 8, i, "A", "MAIL")));
  }
  ExpectOk(db.pool.DropAll());  // the fold must read SMA pages from disk
  {
    util::fault::ScopedFault fail("disk.read", {.file_filter = "sma.m.sum_v"});
    const Status st = maintainer->Insert(
        MakeRow(&table->schema(), 100, 12, 100, "A", "MAIL"));
    EXPECT_EQ(st.code(), util::StatusCode::kIOError) << st.ToString();
  }
  const Sma* min_d = Unwrap(smas->Find("min_d"));
  const Sma* sum_v = Unwrap(smas->Find("sum_v"));
  const Sma* cnt = Unwrap(smas->Find("cnt"));
  EXPECT_TRUE(min_d->trusted());
  EXPECT_FALSE(min_d->stale());
  EXPECT_FALSE(sum_v->trusted());
  EXPECT_TRUE(cnt->trusted());
  EXPECT_TRUE(cnt->stale());
  ExpectOk(maintainer->Rebuild());
  for (const Sma* sma : smas->all()) {
    EXPECT_TRUE(sma->trusted()) << sma->spec().name;
    EXPECT_FALSE(sma->stale()) << sma->spec().name;
  }
  ExpectAllSmasConsistent();
}

}  // namespace
}  // namespace smadb::sma
