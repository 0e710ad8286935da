// Experiment X6 — morsel-parallel scaling on the Table-3 Q1 workload.
//
// The paper's engine is single-threaded; this extension runs the same
// Query 1 (LINEITEM sorted on l_shipdate, Fig. 4 SMAs) at degrees of
// parallelism 1, 2, 4, and 8 and reports the wall-clock speedup over dop 1.
// Morsels are runs of consecutive buckets spanning one 32-page read run;
// workers claim them through ParallelFor and merge per-worker partial
// aggregates at the end, so every DOP returns bit-identical results
// (verified below).
//
// Three sweeps:
//   * warm — a 65 536-frame pool holds everything, so the plans are
//     CPU-bound;
//   * pool — the full scan streams through the default 2 048-frame pool
//     (the paper's 8 MB buffer), cold for every run, as smabench's
//     `adhoc_scan` does: every page is read from the simulated disk, and
//     the modeled 1997-disk seconds show whether the workers' page reads
//     stay sequential;
//   * pool_filter — `adhoc_scan`'s filter query (two restrictions on
//     columns without SMAs, three aggregates) through the same cold pool.
//     Q1's eight aggregates keep each worker busy folding; this query
//     folds little per page, so its speedup shows how well pool misses
//     overlap (the pool and backend mutexes on the miss path).
//
// `--smoke` (first argument) runs a tiny scale once and exits 1 when any
// DOP's rows differ from DOP 1's; it gates correctness, not timing.

#include <algorithm>
#include <cstring>
#include <thread>

#include "bench/bench_util.h"
#include "db/sql.h"
#include "planner/planner.h"
#include "tpch/loader.h"
#include "workloads/q1.h"

using namespace smadb;  // NOLINT
using bench::Check;

namespace {

constexpr size_t kDops[] = {1, 2, 4, 8};

struct Loaded {
  storage::Table* lineitem = nullptr;
  std::unique_ptr<sma::SmaSet> smas;
};

Loaded Load(bench::BenchDb* db, double sf) {
  tpch::LoadOptions load;
  load.mode = tpch::ClusterMode::kShipdateSorted;
  Loaded l;
  l.lineitem = Check(
      tpch::GenerateAndLoadLineItem(&db->catalog, {sf, 19980401}, load));
  l.smas = std::make_unique<sma::SmaSet>(l.lineitem);
  Check(workloads::BuildQ1Smas(l.lineitem, l.smas.get()));
  return l;
}

// smabench `adhoc_scan`'s filter query at one of its settings: every bucket
// is ambivalent, so each plan is a full scan.
plan::AggQuery FilterQuery(storage::Table* lineitem) {
  db::ParsedQuery parsed = Check(db::ParseQuery(
      &lineitem->schema(),
      "select l_returnflag, l_linestatus, sum(l_extendedprice) as sum_price, "
      "avg(l_quantity) as avg_qty, count(*) as n from lineitem where "
      "l_quantity < 30 and l_discount >= 0.02 "
      "group by l_returnflag, l_linestatus"));
  plan::AggQuery q;
  q.table = lineitem;
  q.pred = parsed.pred;
  q.group_by = parsed.group_by;
  q.aggs = parsed.aggs;
  return q;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReporter report(argv[0]);
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const double sf = smoke ? 0.01 : bench::ScaleFromArgs(argc, argv, 0.05);

  bench::PrintHeader(util::Format(
      "X6: parallel scaling of Q1 (Table-3 workload), SF %.3f%s", sf,
      smoke ? " (smoke)" : ""));
  std::printf("hardware_concurrency: %u\n",
              std::thread::hardware_concurrency());

  bool mismatch = false;
  // Runs one plan at every DOP; `cold` drops the pool before each run.
  // Returns the wall seconds per DOP and flags rows that differ from DOP 1.
  const auto sweep = [&](bench::BenchDb* db, const Loaded& l,
                         const plan::AggQuery& query, plan::PlanKind kind,
                         bool cold, const std::string& key) {
    plan::Planner planner(l.smas.get());
    std::printf("\n%s: %s%s\n%-8s %10s %10s %12s %10s\n", key.c_str(),
                std::string(plan::PlanKindToString(kind)).c_str(),
                cold ? ", cold through the pool" : ", warm", "dop", "wall",
                "speedup", "modeled_s", "rows");
    std::string reference;
    double serial_wall = 0;
    for (const size_t dop : kDops) {
      auto op = Check(planner.Build(query, kind, dop));
      if (cold) {
        Check(db->pool.DropAll());
        db->disk.ResetAccessPositions();
      } else {
        Check(op->Init());  // warm the pool (and its frame table) once
      }
      const storage::IoStats base = db->disk.stats();
      util::Stopwatch watch;
      plan::QueryResult r = Check(plan::RunToCompletion(op.get()));
      const double wall = watch.ElapsedSeconds();
      const double modeled = db->ModeledSeconds(base);
      if (dop == 1) {
        reference = r.ToString();
        serial_wall = wall;
      } else if (r.ToString() != reference) {
        std::fprintf(stderr, "RESULT MISMATCH: %s at dop %zu\n", key.c_str(),
                     dop);
        mismatch = true;
      }
      const double speedup = serial_wall / std::max(1e-9, wall);
      std::printf("%-8zu %9.3fs %9.2fx %11.2fs %10zu\n", dop, wall, speedup,
                  modeled, r.rows.size());
      report.Add(util::Format("%s_dop%zu_speedup", key.c_str(), dop),
                 speedup);
      if (cold) {
        report.Add(util::Format("%s_dop%zu_modeled_s", key.c_str(), dop),
                   modeled);
      }
    }
  };

  {
    bench::BenchDb warm(/*pool_pages=*/65536);  // everything resident
    const Loaded l = Load(&warm, sf);
    std::printf("LINEITEM %u pages, %u buckets\n", l.lineitem->num_pages(),
                l.lineitem->num_buckets());
    // The scan-aggregate plan carries the parallel work (every bucket is
    // fetched and folded); SMA_GAggr is also swept to show that the pruned
    // plan keeps its lead at every DOP.
    const plan::AggQuery q1 = Check(workloads::MakeQ1Query(l.lineitem, 90));
    sweep(&warm, l, q1, plan::PlanKind::kScanAggr, /*cold=*/false,
          "warm_scan");
    sweep(&warm, l, q1, plan::PlanKind::kSmaGAggr, /*cold=*/false,
          "warm_sma_gaggr");
  }
  {
    bench::BenchDb pool(/*pool_pages=*/2048);  // the paper's 8 MB buffer
    const Loaded l = Load(&pool, sf);
    const plan::AggQuery q1 = Check(workloads::MakeQ1Query(l.lineitem, 90));
    sweep(&pool, l, q1, plan::PlanKind::kScanAggr, /*cold=*/true,
          "pool_scan");
    sweep(&pool, l, FilterQuery(l.lineitem), plan::PlanKind::kScanAggr,
          /*cold=*/true, "pool_filter");
  }

  bench::PrintPaperNote(
      "not in the paper (its engine is single-threaded). Extension: morsels "
      "of consecutive buckets read a 32-page run at a time; every DOP "
      "returns identical Q1 rows, and the modeled disk seconds of the cold "
      "scan stay near DOP 1's because each run is one request. "
      "EXPERIMENTS.md X6 records the measured speedups.");
  return mismatch ? 1 : 0;
}
