// Experiment X14 — serving-layer latency and shedding under client load
// (extension, not in the paper; DESIGN.md §15):
//
//   1. Per-concurrency sweep: C clients hammer the server over loopback
//      with the same SMA-graded aggregate, each on its own connection.
//      Reported: end-to-end (send → `OK`) p50/p99 per concurrency level.
//      At C=1 this is the protocol's floor; at C=8 the bounded worker pool
//      is saturated and the numbers show queueing, not collapse.
//   2. Saturation: 64 clients against max_connections=32. The extra 32 must
//      be shed at accept with `ERR busy` — the headline is that the served
//      half keeps its latency while the overflow fails fast (never hangs),
//      and the process memory stays bounded (bounded buffers, no queues).
//
// Emits BENCH_x14_server.json. The server runs in-process on an ephemeral
// loopback port; all state is in-memory.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "db/database.h"
#include "net/server.h"
#include "util/stopwatch.h"

using namespace smadb;  // NOLINT
using bench::Check;

namespace {

storage::Schema BenchSchema() {
  return storage::Schema({
      storage::Field::Int64("k"),
      storage::Field::Date("d"),
      storage::Field::Decimal("v"),
      storage::Field::String("grp", 1),
      storage::Field::String("tag", 4),
  });
}

double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  const size_t idx = static_cast<size_t>(p * (v->size() - 1) + 0.5);
  return (*v)[std::min(idx, v->size() - 1)];
}

/// Minimal blocking protocol client (mirrors what smadb_cli does).
class Client {
 public:
  bool Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      Close();
      return false;
    }
    return true;
  }

  ~Client() { Close(); }
  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buf_.clear();
  }

  bool Send(const std::string& line) {
    const std::string out = line + "\n";
    size_t off = 0;
    while (off < out.size()) {
      const ssize_t n =
          ::send(fd_, out.data() + off, out.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads until the `OK`/`ERR` terminator; returns it ("" on EOF).
  std::string ReadResponse() {
    char chunk[8192];
    for (;;) {
      size_t nl;
      while ((nl = buf_.find('\n')) != std::string::npos) {
        const std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        if (line == "OK" || line.rfind("ERR", 0) == 0) return line;
      }
      ssize_t n;
      do {
        n = ::recv(fd_, chunk, sizeof(chunk), 0);
      } while (n < 0 && errno == EINTR);
      if (n <= 0) return "";
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

struct SweepResult {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double requests_per_s = 0.0;
};

/// `clients` connections each issue `per_client` queries; per-request
/// end-to-end latencies are pooled across clients.
SweepResult RunSweep(uint16_t port, int clients, int per_client,
                     const std::string& sql) {
  std::vector<std::vector<double>> per_thread(clients);
  std::atomic<bool> failed{false};
  util::Stopwatch wall;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      Client c;
      if (!c.Connect(port)) {
        failed.store(true);
        return;
      }
      for (int i = 0; i < per_client; ++i) {
        util::Stopwatch watch;
        if (!c.Send(sql) || c.ReadResponse() != "OK") {
          failed.store(true);
          return;
        }
        per_thread[t].push_back(watch.ElapsedSeconds() * 1e3);
      }
      c.Send("quit");
    });
  }
  for (std::thread& t : threads) t.join();
  if (failed.load()) {
    std::fprintf(stderr, "a sweep client failed\n");
    std::exit(1);
  }
  std::vector<double> all;
  for (auto& v : per_thread) all.insert(all.end(), v.begin(), v.end());
  SweepResult r;
  r.p50_ms = Percentile(&all, 0.50);
  r.p99_ms = Percentile(&all, 0.99);
  r.requests_per_s = all.size() / wall.ElapsedSeconds();
  return r;
}

/// Waits, for at most two seconds, until the server has reaped every
/// connection of the previous stage, and exits 1 if it has not. A client's
/// close reaches the server's I/O thread asynchronously: without the wait
/// a stage that connects at once can find the last stage's connections
/// still counted against max_connections, and be shed with `ERR busy`.
void WaitForNoConnections(const net::Server& server) {
  for (int ms = 0; ms < 2000; ++ms) {
    if (server.connections_active() == 0) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::fprintf(stderr, "%zu connections still open after 2 s\n",
               server.connections_active());
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReporter report(argv[0]);
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const int64_t n_rows = smoke ? 4000 : 40000;
  const int per_client_1 = smoke ? 40 : 400;
  const int per_client_8 = smoke ? 10 : 100;
  const int saturation_clients = smoke ? 16 : 64;
  const size_t saturation_cap = smoke ? 8 : 32;

  bench::PrintHeader(util::Format("X14: serving layer under client load%s",
                                  smoke ? " (smoke)" : ""));

  db::Database db;
  storage::Table* table = Check(db.CreateTable("t", BenchSchema()));
  {
    storage::TupleBuffer buf(&table->schema());
    for (int64_t i = 0; i < n_rows; ++i) {
      buf.SetInt64(0, i);
      buf.SetDate(1, util::Date(static_cast<int32_t>(i / 8)));
      buf.SetDecimal(2, util::Decimal(i * 3));
      const char grp = static_cast<char>('A' + (i % 3));
      buf.SetString(3, std::string_view(&grp, 1));
      buf.SetString(4, "MAIL");
      Check(db.Insert("t", buf));
    }
  }
  Check(db.Execute("define sma mn select min(d) from t"));
  Check(db.Execute("define sma mx select max(d) from t"));

  const std::string sql =
      "select grp, sum(v) as total, count(*) as n from t group by grp";

  // ---- 1. latency sweep at 1 and 8 clients --------------------------------
  net::ServerOptions options;
  options.port = 0;
  options.worker_threads = 4;
  options.max_connections = saturation_cap;
  options.checkpoint_on_drain = false;
  net::Server server(&db, options);
  Check(server.Start());

  const SweepResult c1 = RunSweep(server.port(), 1, per_client_1, sql);
  std::printf("c=1:  p50 %.3f ms   p99 %.3f ms   %.0f req/s\n", c1.p50_ms,
              c1.p99_ms, c1.requests_per_s);
  WaitForNoConnections(server);
  const SweepResult c8 = RunSweep(server.port(), 8, per_client_8, sql);
  std::printf("c=8:  p50 %.3f ms   p99 %.3f ms   %.0f req/s\n", c8.p50_ms,
              c8.p99_ms, c8.requests_per_s);

  // ---- 2. saturation: 2x the connection cap -------------------------------
  // Every client connects at once and tries one query. Exactly the ones
  // over the cap must be shed with a typed `ERR busy` — fail fast, never
  // hang — while the admitted ones are served normally.
  WaitForNoConnections(server);
  std::atomic<int> served{0};
  std::atomic<int> shed{0};
  std::atomic<int> anomalies{0};
  std::vector<std::vector<double>> served_ms(saturation_clients);
  {
    std::vector<std::thread> threads;
    threads.reserve(saturation_clients);
    for (int t = 0; t < saturation_clients; ++t) {
      threads.emplace_back([&, t] {
        Client c;
        if (!c.Connect(server.port())) {
          ++anomalies;
          return;
        }
        util::Stopwatch watch;
        if (!c.Send(sql)) {
          ++anomalies;
          return;
        }
        const std::string r = c.ReadResponse();
        if (r == "OK") {
          served_ms[t].push_back(watch.ElapsedSeconds() * 1e3);
          ++served;
          c.Send("quit");
        } else if (r == "ERR busy") {
          ++shed;
        } else {
          ++anomalies;
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  std::vector<double> sat_all;
  for (auto& v : served_ms) sat_all.insert(sat_all.end(), v.begin(), v.end());
  const double sat_p99 = Percentile(&sat_all, 0.99);
  const double shed_rate =
      static_cast<double>(shed.load()) / saturation_clients;
  std::printf(
      "c=%d (cap %zu): served %d, shed %d (%.0f%%), anomalies %d, "
      "served p99 %.3f ms\n",
      saturation_clients, saturation_cap, served.load(), shed.load(),
      shed_rate * 100.0, anomalies.load(), sat_p99);
  if (served.load() == 0 || shed.load() == 0 || anomalies.load() != 0) {
    std::fprintf(stderr,
                 "saturation stage must both serve and shed, cleanly\n");
    return 1;
  }
  const net::Server::Stats stats = server.stats();
  std::printf("server: %llu conns, %llu requests, %llu shed\n",
              static_cast<unsigned long long>(stats.connections_total),
              static_cast<unsigned long long>(stats.requests_total),
              static_cast<unsigned long long>(stats.shed));

  Check(server.Shutdown());

  report.Add("rows", static_cast<double>(n_rows));
  report.Add("c1_p50_ms", c1.p50_ms);
  report.Add("c1_p99_ms", c1.p99_ms);
  report.Add("c1_requests_per_s", c1.requests_per_s);
  report.Add("c8_p50_ms", c8.p50_ms);
  report.Add("c8_p99_ms", c8.p99_ms);
  report.Add("c8_requests_per_s", c8.requests_per_s);
  report.Add("saturation_clients", static_cast<double>(saturation_clients));
  report.Add("saturation_served", static_cast<double>(served.load()));
  report.Add("saturation_shed", static_cast<double>(shed.load()));
  report.Add("saturation_shed_rate", shed_rate);
  report.Add("saturation_served_p99_ms", sat_p99);
  return 0;
}
