// Experiment X8 — throughput of the batch engine, in tuples/s per core.
//
// Not in the paper (its engine is tuple-at-a-time): this extension measures
// how fast smadb's one execution protocol — column batches, selection
// vectors, fused aggregate kernels — processes the paper's own workload.
//
//   1. Query 1 over a 100%-ambivalent scan (GAggr over TableScan, dop 1,
//      warm): every tuple is fetched, filtered and folded, so this is the
//      pure per-tuple cost of decode, predicate and aggregate kernels.
//   2. Fig. 5-style ambivalence sweep: SMA_GAggr with forced ambivalent
//      fractions x = 0, 0.25, 0.5, 1 (dop 1, warm). Qualifying buckets are
//      answered from SMA entries; only the forced-ambivalent share is
//      decoded, so throughput falls from the SMA-only rate towards the
//      scan rate as x grows.
//
// Each figure is LINEITEM tuples answered per second of warm best-of-3
// wall clock on one core, recorded as a *_tuples_per_s key in
// BENCH_x8_vectorized.json. `--smoke` (first argument) runs a tiny scale
// (CI mode) and exits non-zero when any answer differs from the forced
// GAggr∘TableScan answer.

#include <cstring>

#include "bench/bench_util.h"
#include "planner/planner.h"
#include "tpch/loader.h"
#include "util/stopwatch.h"
#include "workloads/q1.h"

using namespace smadb;  // NOLINT
using bench::Check;

namespace {

// Warm best-of-`iters` wall clock of one operator shape; result out-param.
template <typename MakeOp>
double TimeRun(MakeOp make_op, std::string* result, int iters) {
  double best = 1e99;
  for (int i = 0; i <= iters; ++i) {  // iteration 0 warms the pool
    auto op = make_op();
    util::Stopwatch watch;
    plan::QueryResult r = Check(plan::RunToCompletion(op.get()));
    const double wall = watch.ElapsedSeconds();
    if (i > 0 && wall < best) best = wall;
    *result = r.ToString();
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReporter report(argv[0]);
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const double sf =
      smoke ? 0.01 : bench::ScaleFromArgs(argc, argv, 0.05);
  const int iters = smoke ? 1 : 3;
  bench::BenchDb db(65536);  // warm: everything resident, CPU-bound

  bench::PrintHeader(util::Format(
      "X8: batch-engine throughput, tuples/s per core, SF %.3f%s", sf,
      smoke ? " (smoke)" : ""));

  tpch::LoadOptions load;
  load.mode = tpch::ClusterMode::kShipdateSorted;
  storage::Table* lineitem = Check(
      tpch::GenerateAndLoadLineItem(&db.catalog, {sf, 19980401}, load));
  sma::SmaSet smas(lineitem);
  Check(workloads::BuildQ1Smas(lineitem, &smas));
  const plan::AggQuery q1 = Check(workloads::MakeQ1Query(lineitem, 90));
  const double tuples = static_cast<double>(lineitem->num_tuples());
  std::printf("LINEITEM %llu tuples, %u pages, %u buckets\n",
              static_cast<unsigned long long>(lineitem->num_tuples()),
              lineitem->num_pages(), lineitem->num_buckets());

  // --- 1. Q1, 100%-ambivalent scan -------------------------------------
  plan::Planner planner(&smas);
  std::string scan_result;
  const double scan_wall = TimeRun(
      [&] { return Check(planner.Build(q1, plan::PlanKind::kScanAggr, 1)); },
      &scan_result, iters);
  std::printf("\n%-34s %10s %16s\n", "plan (dop 1, warm)", "wall",
              "tuples/s/core");
  std::printf("%-34s %9.3fs %16.3g\n", "GAggr o TableScan (100% ambivalent)",
              scan_wall, tuples / scan_wall);
  report.Add("q1_scan_tuples_per_s", tuples / scan_wall);

  // --- 2. Fig. 5-style ambivalence sweep --------------------------------
  bool mismatch = false;
  for (double x : {0.0, 0.25, 0.5, 1.0}) {
    exec::SmaGAggrOptions options;
    options.force_ambivalent_fraction = x;
    std::string result;
    const double wall = TimeRun(
        [&] {
          return Check(exec::SmaGAggr::Make(q1.table, q1.pred, q1.group_by,
                                            q1.aggs, &smas, options));
        },
        &result, iters);
    if (result != scan_result) {
      std::fprintf(stderr, "RESULT MISMATCH: SMA_GAggr at x=%.2f\n", x);
      mismatch = true;
    }
    std::printf("%-34s %9.3fs %16.3g\n",
                util::Format("SMA_GAggr, x = %3.0f%% ambivalent", x * 100.0)
                    .c_str(),
                wall, tuples / wall);
    report.Add(util::Format("sma_gaggr_x%.0f_tuples_per_s", x * 100.0),
               tuples / wall);
  }
  if (mismatch) return 1;

  if (smoke) {
    std::printf("\nSMOKE OK: every plan returned the forced-scan Q1 rows\n");
    return 0;
  }
  bench::PrintPaperNote(
      "not in the paper (its engine is tuple-at-a-time). Extension: the "
      "scan rate is the per-tuple cost of the batch kernels; with SMAs, "
      "pruning removes I/O and grading work, and the kernels only run on "
      "whatever must still be investigated, so SMA_GAggr's rate falls "
      "towards the scan rate as the forced-ambivalent share x grows.");
  return 0;
}
