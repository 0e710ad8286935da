// Quickstart: create a table, define SMAs, and watch a selection query skip
// most of the data.
//
// Mirrors the paper's running example (§2.2): a count(*) query restricted on
// a date column over an (approximately) date-clustered relation.

#include <cstdio>

#include "exec/sma_scan.h"
#include "expr/predicate.h"
#include "planner/planner.h"
#include "sma/builder.h"
#include "sma/sma_set.h"
#include "storage/catalog.h"
#include "util/date.h"
#include "util/rng.h"

using namespace smadb;  // NOLINT: example brevity

namespace {

void Check(const util::Status& s) {
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
T Check(util::Result<T> r) {
  Check(r.status());
  return std::move(r).value();
}

}  // namespace

int main() {
  // --- 1. A database: simulated disk + buffer pool + catalog. -------------
  storage::SimulatedDisk disk;
  storage::BufferPool pool(&disk, /*capacity_pages=*/2048);
  storage::Catalog catalog(&pool);

  // --- 2. A shipments table, appended in (roughly) shipdate order. --------
  storage::Schema schema({
      storage::Field::Int64("id"),
      storage::Field::Date("shipdate"),
      storage::Field::Decimal("amount"),
  });
  storage::Table* shipments =
      Check(catalog.CreateTable("shipments", schema, {}));

  const util::Date start = util::Date::FromYmd(1997, 1, 1);
  util::Rng rng(42);
  storage::TupleBuffer t(&shipments->schema());
  for (int64_t i = 0; i < 200'000; ++i) {
    t.SetInt64(0, i);
    // Time-of-creation clustering: dates advance with row position, with a
    // little jitter (the paper's "imperfect but still exploitable").
    t.SetDate(1, start.AddDays(static_cast<int32_t>(i / 1000 +
                                                    rng.Uniform(0, 3))));
    t.SetDecimal(2, util::Decimal(rng.Uniform(100, 99999)));
    Check(shipments->Append(t));
  }
  std::printf("loaded %llu tuples on %u pages (%u buckets)\n",
              static_cast<unsigned long long>(shipments->num_tuples()),
              shipments->num_pages(), shipments->num_buckets());

  // --- 3. Define SMAs:  define sma min select min(shipdate) ... ----------
  sma::SmaSet smas(shipments);
  const expr::ExprPtr shipdate = Check(expr::Column(&schema, "shipdate"));
  Check(smas.Add(
      Check(sma::BuildSma(shipments, sma::SmaSpec::Min("min", shipdate)))));
  Check(smas.Add(
      Check(sma::BuildSma(shipments, sma::SmaSpec::Max("max", shipdate)))));
  Check(smas.Add(
      Check(sma::BuildSma(shipments, sma::SmaSpec::Count("count")))));
  std::printf("built 3 SMAs occupying %llu pages (%.2f%% of the table)\n",
              static_cast<unsigned long long>(smas.TotalPages()),
              100.0 * static_cast<double>(smas.TotalPages()) /
                  shipments->num_pages());

  // --- 4. Query: count shipments of one week. -----------------------------
  const util::Date lo = util::Date::FromYmd(1997, 5, 1);
  const util::Date hi = util::Date::FromYmd(1997, 5, 7);
  expr::PredicatePtr pred = expr::Predicate::And(
      Check(expr::Predicate::AtomConst(&schema, "shipdate", expr::CmpOp::kGe,
                                       util::Value::MakeDate(lo))),
      Check(expr::Predicate::AtomConst(&schema, "shipdate", expr::CmpOp::kLe,
                                       util::Value::MakeDate(hi))));

  // Plain scan (cold: nothing cached).
  Check(pool.DropAll());
  disk.ResetStats();
  uint64_t count_scan = 0;
  {
    exec::SmaScan scan(shipments, pred, /*smas=*/nullptr);
    count_scan = Check(plan::RunToCompletion(&scan)).rows.size();
  }
  Check(pool.DropAll());
  const uint64_t scan_reads = disk.stats().page_reads;

  // SMA scan.
  disk.ResetStats();
  exec::SmaScan sma_scan(shipments, pred, &smas);
  const uint64_t count_sma =
      Check(plan::RunToCompletion(&sma_scan)).rows.size();
  const uint64_t sma_reads = disk.stats().page_reads;

  std::printf("\nselect count(*) where shipdate in [%s, %s]\n",
              lo.ToString().c_str(), hi.ToString().c_str());
  std::printf("  plain scan : count=%llu, %llu page reads\n",
              static_cast<unsigned long long>(count_scan),
              static_cast<unsigned long long>(scan_reads));
  std::printf("  SMA scan   : count=%llu, %llu page reads "
              "(%llu buckets skipped, %llu ambivalent)\n",
              static_cast<unsigned long long>(count_sma),
              static_cast<unsigned long long>(sma_reads),
              static_cast<unsigned long long>(
                  sma_scan.stats().disqualifying_buckets),
              static_cast<unsigned long long>(
                  sma_scan.stats().ambivalent_buckets));
  if (count_scan != count_sma) {
    std::fprintf(stderr, "MISMATCH!\n");
    return 1;
  }
  std::printf("\nsame answer, %.1fx fewer page reads\n",
              static_cast<double>(scan_reads) /
                  static_cast<double>(std::max<uint64_t>(1, sma_reads)));
  return 0;
}
