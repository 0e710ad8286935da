#include "harness.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "util/date.h"
#include "util/string_util.h"

namespace smabench {

using smadb::util::Date;
using smadb::util::Rng;

namespace {

// Dates of the generated data: shipments start in January 1992; windows
// start a month later so none straddles the empty beginning.
const Date kFirstWindowDay = Date::FromYmd(1992, 2, 1);
// TPC-H Q1's anchor: l_shipdate <= 1998-12-01 - delta days.
const Date kQ1Anchor = Date::FromYmd(1998, 12, 1);

std::string Lit(Date d) { return "date '" + d.ToString() + "'"; }

// Month arithmetic on (year, month) pairs counted from January 1992.
Date MonthStart(int month_index) {
  return Date::FromYmd(1992 + month_index / 12, 1 + month_index % 12, 1);
}
int MonthIndex(Date d) {
  const std::string s = d.ToString();  // YYYY-MM-DD
  return (std::stoi(s.substr(0, 4)) - 1992) * 12 + std::stoi(s.substr(5, 2)) -
         1;
}

// Stratified draw: the i-th of n values spread over [lo, hi] with seeded
// jitter inside its stratum, so every seed covers the whole range evenly.
int64_t Stratified(Rng* rng, size_t i, size_t n, int64_t lo, int64_t hi) {
  const double span = static_cast<double>(hi - lo + 1);
  const double x = (static_cast<double>(i) + rng->NextDouble()) /
                   static_cast<double>(n) * span;
  return std::min(hi, lo + static_cast<int64_t>(x));
}

const char* kFlags = "l_returnflag, l_linestatus";

std::string Q1(int delta) {
  return std::string("select l_returnflag, l_linestatus, ") +
         "sum(l_quantity) as sum_qty, "
         "sum(l_extendedprice) as sum_base_price, "
         "sum(l_extendedprice * (1.00 - l_discount)) as sum_disc_price, "
         "sum(l_extendedprice * (1.00 - l_discount) * (1.00 + l_tax)) "
         "as sum_charge, "
         "avg(l_quantity) as avg_qty, avg(l_extendedprice) as avg_price, "
         "avg(l_discount) as avg_disc, count(*) as count_order "
         "from lineitem where l_shipdate <= " +
         Lit(kQ1Anchor.AddDays(-delta)) + " group by " + kFlags;
}

// Grouped sum/count/avg over [from, to): every aggregate has a Fig. 4 SMA.
std::string GroupedWindow(Date from, Date to) {
  return std::string("select l_returnflag, l_linestatus, ") +
         "sum(l_quantity) as sum_qty, sum(l_extendedprice) as sum_price, "
         "avg(l_discount) as avg_disc, count(*) as n from lineitem "
         "where l_shipdate >= " +
         Lit(from) + " and l_shipdate < " + Lit(to) + " group by " + kFlags;
}

void AddDashboardMix(const WorkloadConfig& w, Rng* rng,
                     std::vector<QueryInstance>* out) {
  const Date horizon = *Date::Parse(w.read_horizon);
  // Q1's cutoff must stay before the horizon too.
  const int min_delta =
      std::max(60, kQ1Anchor.days() - horizon.days() + 1);
  const int last_month = MonthIndex(horizon);  // windows end by its start
  const int first_month = MonthIndex(kFirstWindowDay);
  for (size_t i = 0; i < 8; ++i) {
    out->push_back({"q1", Q1(static_cast<int>(
                              Stratified(rng, i, 8, min_delta, 120)))});
  }
  for (size_t i = 0; i < 16; ++i) {
    const int m = static_cast<int>(
        Stratified(rng, i, 16, first_month, last_month - 1));
    out->push_back({"month", GroupedWindow(MonthStart(m), MonthStart(m + 1))});
  }
  for (size_t i = 0; i < 8; ++i) {
    const int m = static_cast<int>(
        Stratified(rng, i, 8, first_month, last_month - 3));
    out->push_back(
        {"quarter", GroupedWindow(MonthStart(m), MonthStart(m + 3))});
  }
  for (size_t i = 0; i < 8; ++i) {
    const Date from = Date(static_cast<int32_t>(Stratified(
        rng, i, 8, kFirstWindowDay.days(), horizon.days() - 7)));
    out->push_back({"week", "select count(*) as n from lineitem where "
                            "l_shipdate >= " +
                                Lit(from) + " and l_shipdate < " +
                                Lit(from.AddDays(7))});
  }
}

void AddAdhocMix(Rng* rng, std::vector<QueryInstance>* out) {
  // TPC-H Q6: one year, discount band, quantity cap. No SMA covers its sum,
  // so at best the date SMAs prune buckets (GAggr o SMA_Scan).
  for (size_t i = 0; i < 4; ++i) {
    const int year = static_cast<int>(Stratified(rng, i, 4, 1993, 1997));
    const int disc = static_cast<int>(rng->Uniform(2, 9));
    const int qty = static_cast<int>(rng->Uniform(24, 25));
    out->push_back(
        {"q6",
         "select sum(l_extendedprice * l_discount) as revenue from lineitem "
         "where l_shipdate >= " +
             Lit(Date::FromYmd(year, 1, 1)) + " and l_shipdate < " +
             Lit(Date::FromYmd(year + 1, 1, 1)) + " and l_discount >= " +
             smadb::util::Format("0.%02d", disc - 1) +
             " and l_discount <= " + smadb::util::Format("0.%02d", disc + 1) +
             " and l_quantity < " + std::to_string(qty)});
  }
  // 1-2 year windows whose fetch fraction straddles the 25 % break-even;
  // sum(l_tax) and max() have no SMA, so SMA_GAggr is never eligible.
  for (size_t i = 0; i < 4; ++i) {
    const int len = static_cast<int>(Stratified(rng, i, 4, 365, 730));
    const int last_start = Date::FromYmd(1998, 8, 1).days() - len;
    const Date from = Date(static_cast<int32_t>(
        rng->Uniform(kFirstWindowDay.days(), last_start)));
    out->push_back(
        {"window",
         "select l_returnflag, sum(l_tax) as sum_tax, "
         "max(l_extendedprice) as max_price, count(*) as n from lineitem "
         "where l_shipdate >= " +
             Lit(from) + " and l_shipdate < " + Lit(from.AddDays(len)) +
             " group by l_returnflag"});
  }
  // Restrictions only on columns without SMAs: every bucket is ambivalent,
  // so the plan is GAggr o TableScan over the whole table.
  for (size_t i = 0; i < 16; ++i) {
    const int qty = static_cast<int>(Stratified(rng, i, 16, 10, 50));
    const int disc = static_cast<int>(rng->Uniform(0, 5));
    out->push_back(
        {"filter",
         std::string("select l_returnflag, l_linestatus, ") +
             "sum(l_extendedprice) as sum_price, avg(l_quantity) as avg_qty, "
             "count(*) as n from lineitem where l_quantity < " +
             std::to_string(qty) + " and l_discount >= " +
             smadb::util::Format("0.%02d", disc) + " group by " + kFlags});
  }
}

}  // namespace

std::optional<WorkloadConfig> FindWorkload(std::string_view name) {
  WorkloadConfig w;
  w.name = std::string(name);
  if (name == "dashboard") {
    w.clients = 4;
    w.session_dop = 1;
  } else if (name == "adhoc_scan") {
    w.clients = 1;
    w.session_dop = 0;
  } else if (name == "ingest") {
    w.scale_factor = 0.05;
    w.clients = 2;
    w.session_dop = 1;
    w.file_backend = true;
    w.append_rows_per_s = 300;
    w.read_horizon = "1998-09-01";
    w.serve_every_setup = true;
  } else {
    return std::nullopt;
  }
  return w;
}

std::vector<std::string> WorkloadNames() {
  return {"dashboard", "adhoc_scan", "ingest"};
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  Rng rng(seed * 0x100000001B3ULL + stream);
  return rng.Next();
}

std::vector<QueryInstance> MakeInstances(const WorkloadConfig& w,
                                         uint64_t seed) {
  Rng rng(SubSeed(seed, 3));
  std::vector<QueryInstance> out;
  if (w.name == "adhoc_scan") {
    AddAdhocMix(&rng, &out);
  } else {
    AddDashboardMix(w, &rng, &out);
  }
  return out;
}

RequestStream::RequestStream(size_t pool_size, uint64_t seed, int client)
    : rng_(SubSeed(seed, 100 + static_cast<uint64_t>(client))),
      order_(pool_size),
      pos_(pool_size) {
  for (size_t i = 0; i < pool_size; ++i) order_[i] = i;
}

size_t RequestStream::Next() {
  if (pos_ == order_.size()) {
    // Fisher-Yates with the seeded generator (std::shuffle's use of the
    // engine is implementation-defined).
    for (size_t i = order_.size(); i > 1; --i) {
      const size_t j = static_cast<size_t>(
          rng_.Uniform(0, static_cast<int64_t>(i) - 1));
      std::swap(order_[i - 1], order_[j]);
    }
    pos_ = 0;
  }
  return order_[pos_++];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

std::array<double, 3> Quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const int64_t ld = static_cast<int64_t>(v.size());
  const int64_t m = ld + 1;
  std::array<double, 3> out{};
  for (int64_t i = 1; i < 4; ++i) {
    int64_t j = i * m / 4;
    j = std::clamp<int64_t>(j, 1, ld - 1);
    const int64_t delta = i * m - j * 4;
    out[i - 1] = (v[j - 1] * static_cast<double>(4 - delta) +
                  v[j] * static_cast<double>(delta)) /
                 4.0;
  }
  return out;
}

std::string SupportedPercentile(size_t samples) {
  const std::array<std::pair<double, const char*>, 4> levels = {
      {{0.99, "p99"}, {0.95, "p95"}, {0.90, "p90"}, {0.50, "p50"}}};
  for (const auto& [p, label] : levels) {
    if (static_cast<double>(samples) * (1.0 - p) >= 10.0) return label;
  }
  return "none";
}

RowSet ToRowSet(std::string_view text) {
  RowSet set;
  bool first = true;
  size_t start = 0;
  while (start < text.size()) {
    size_t nl = text.find('\n', start);
    if (nl == std::string_view::npos) nl = text.size();
    std::string line(text.substr(start, nl - start));
    start = nl + 1;
    if (first) {
      set.header = std::move(line);
      first = false;
    } else {
      set.rows.push_back(std::move(line));
    }
  }
  std::sort(set.rows.begin(), set.rows.end());
  return set;
}

std::string FormatNumber(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace smabench
