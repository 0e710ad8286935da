// Pure helpers of the smadb benchmark: workload configuration, the seeded
// query-instance generator and request streams, order statistics, and the
// answer comparator. Everything here is deterministic in its inputs and
// free of engine state, so the self-tests can pin it down.

#ifndef SMABENCH_HARNESS_H_
#define SMABENCH_HARNESS_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.h"

namespace smabench {

/// One workload's fixed shape. Only the seed varies between runs.
struct WorkloadConfig {
  std::string name;
  double scale_factor = 0.1;
  /// TCP reader connections, each a closed loop.
  int clients = 1;
  /// Session dop sent as `set dop = <n>`; 0 = engine default (auto).
  size_t session_dop = 0;
  /// File backend with WAL group commit instead of the simulated disk.
  bool file_backend = false;
  /// One in-process writer Session appending LINEITEM rows at this
  /// offered rate (rows/s); 0 = no writer.
  double append_rows_per_s = 0;
  /// Latest day any read window may touch (exclusive), as YYYY-MM-DD.
  std::string read_horizon = "1998-12-01";
  /// Measure a share of the timed phase on each set-up of a run instead of
  /// all of it on the last one. Where the engine's heap placement varies
  /// from process to process (and with it a latch false-sharing effect, see
  /// README), pooling several placements steadies the run.
  bool serve_every_setup = false;
};

/// The three workloads; nullopt for an unknown name.
std::optional<WorkloadConfig> FindWorkload(std::string_view name);
std::vector<std::string> WorkloadNames();

/// Independent sub-seeds derived from the run seed (dbgen, clustering lag,
/// query parameters, per-client streams, appended rows).
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// One query the workload may send, with the class it was drawn from.
struct QueryInstance {
  std::string cls;
  std::string sql;
};

/// The seeded pool of query instances a workload draws its requests from.
/// The class mix is fixed per workload; parameters are stratified over
/// their range with seeded jitter, so every seed sees the same spread of
/// work and only the exact values move.
std::vector<QueryInstance> MakeInstances(const WorkloadConfig& w,
                                         uint64_t seed);

/// A client's request order: endless passes over the instance pool, each
/// pass a fresh seeded permutation, so every instance is sent equally often.
class RequestStream {
 public:
  RequestStream(size_t pool_size, uint64_t seed, int client);
  size_t Next();

 private:
  smadb::util::Rng rng_;
  std::vector<size_t> order_;
  size_t pos_;
};

/// Median (mean of the two middle values for an even count); 0 when empty.
double Median(std::vector<double> v);

/// Nearest-rank percentile, p in (0, 1]: the smallest value with at least
/// p of the sample at or below it; 0 when empty.
double Percentile(std::vector<double> v, double p);

/// First, second and third quartiles by the method of Python's
/// statistics.quantiles(data, n=4) ("exclusive"); needs two or more values.
std::array<double, 3> Quartiles(std::vector<double> v);

/// The highest of p50/p90/p95/p99 with at least ten samples beyond it, as a
/// label ("p95"), or "none" for fewer than twenty samples.
std::string SupportedPercentile(size_t samples);

/// A result table as a row set: the header line, then the data rows sorted.
/// `text` is QueryResult::ToString() output or a reply's lines before `OK`.
struct RowSet {
  std::string header;
  std::vector<std::string> rows;

  bool operator==(const RowSet& other) const {
    return header == other.header && rows == other.rows;
  }
  bool operator!=(const RowSet& other) const { return !(*this == other); }
};
RowSet ToRowSet(std::string_view text);

/// Shortest round-trip decimal form of a double (JSON-safe for finite
/// values).
std::string FormatNumber(double v);

}  // namespace smabench

#endif  // SMABENCH_HARNESS_H_
