// The smadb network server: a thin main over net::Server (DESIGN.md §15).
//
// One shared Database, one Session per TCP connection, a poll-driven I/O
// thread feeding a bounded worker pool — no detached threads, bounded
// buffers, read/idle and write deadlines, a connection cap that sheds with
// `ERR busy`, and graceful drain on SIGTERM/SIGINT (stop accepting, finish
// or cancel in-flight requests, checkpoint, exit 0).
//
// Protocol (newline-delimited text, one statement per line):
//   - every line is one statement of one grammar (select, explain
//     [analyze], show, scrub, set, define sma, kill query), keywords in
//     any case; statements with a result (select, explain, show, scrub)
//     write the table back line by line;
//   - `ping` answers `OK`; `health` reports read-only/draining/session
//     state; each request ends with a line `OK` or `ERR <message>`;
//   - `quit` (or EOF) closes the connection.
//
// Telemetry plane (DESIGN.md §16): a second HTTP listener on --http-port
// serves GET /metrics, /healthz, /statusz, /debug/queries, /debug/trace.
// Every statement carries a trace id (minted here or supplied by the
// client as `trace <hex> select ...`) that links the request log line, the
// trace spans, and the profile.
//
// `set dop = 2` and friends scope to the issuing connection's session;
// `set max_concurrent_queries = N` and other global knobs change the
// shared engine — try it from two `smadb_cli` windows at once.
//
// Usage: smadb_server [port] [--http-port N] [--rows N] [--slow-query-ms N]
//   port            SQL port (default 7878; 0 = ephemeral, printed)
//   --http-port N   telemetry port (default port+1; 0 = ephemeral, printed)
//   --rows N        demo table size (default 50000; bigger = longer scans,
//                   which is how the CI smoke test gets a query worth
//                   killing)
//   --slow-query-ms N  arm the WARN slow-query log at N milliseconds
//   -q              quiet: connection lifecycle at DEBUG instead of INFO

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "db/database.h"
#include "net/server.h"
#include "storage/table.h"
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

/// The demo dataset: the quickstart's sales table, so a fresh client has
/// something to query (and SMAs to define) immediately.
void SeedSales(db::Database* db, int64_t rows) {
  storage::Schema schema({
      storage::Field::Int64("id"),
      storage::Field::Date("saledate"),
      storage::Field::Decimal("amount"),
      storage::Field::String("region", 8),
  });
  storage::Table* sales = Check(db->CreateTable("sales", schema));
  util::Rng rng(1);
  static const char* kRegions[] = {"NORTH", "SOUTH", "EAST", "WEST"};
  storage::TupleBuffer row(&sales->schema());
  for (int64_t i = 0; i < rows; ++i) {
    row.SetInt64(0, i);
    row.SetDate(1, util::Date::FromYmd(1996, 1, 1)
                       .AddDays(static_cast<int32_t>(i / 150)));
    row.SetDecimal(2, util::Decimal(rng.Uniform(100, 500000)));
    row.SetString(3, kRegions[rng.Uniform(0, 3)]);
    Check(db->Insert("sales", row));
  }
  Check(db->Execute("define sma mindate select min(saledate) from sales"));
  Check(db->Execute("define sma maxdate select max(saledate) from sales"));
}

// SIGTERM/SIGINT request a drain; the handler must stay async-signal-safe,
// which net::Server::RequestShutdown is (one atomic store + a pipe write).
net::Server* g_server = nullptr;

void HandleSignal(int) {
  if (g_server != nullptr) g_server->RequestShutdown();
}

}  // namespace

int main(int argc, char** argv) {
  int port = 7878;
  int http_port = -1;  // default: port + 1
  int64_t rows = 50'000;
  int64_t slow_query_ms = 0;
  bool verbose = true;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--http-port") == 0 && i + 1 < argc) {
      http_port = std::atoi(argv[++i]);
    } else if (std::strcmp(arg, "--rows") == 0 && i + 1 < argc) {
      rows = std::atoll(argv[++i]);
    } else if (std::strcmp(arg, "--slow-query-ms") == 0 && i + 1 < argc) {
      slow_query_ms = std::atoll(argv[++i]);
    } else if (std::strcmp(arg, "-q") == 0) {
      verbose = false;
    } else if (arg[0] != '-') {
      port = std::atoi(arg);
    } else {
      std::fprintf(stderr,
                   "usage: smadb_server [port] [--http-port N] [--rows N] "
                   "[--slow-query-ms N] [-q]\n");
      return 2;
    }
  }

  db::DatabaseOptions db_options;
  db_options.slow_query_ms = slow_query_ms;
  db::Database database(db_options);
  SeedSales(&database, rows);

  net::ServerOptions options;
  options.port = static_cast<uint16_t>(port);
  options.http_port = static_cast<uint16_t>(
      http_port >= 0 ? http_port : (port == 0 ? 0 : port + 1));
  options.verbose = verbose;
  net::Server server(&database, options);
  g_server = &server;

  struct sigaction sa{};
  sa.sa_handler = HandleSignal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  Check(server.Start());
  std::printf("smadb_server: %lld sales rows ready on %s:%u\n",
              static_cast<long long>(rows), options.host.c_str(),
              server.port());
  std::printf("telemetry: http://%s:%u/metrics (/healthz /statusz "
              "/debug/queries /debug/trace)\n",
              options.host.c_str(), server.http_port());
  std::printf("connect with: smadb_cli %u   (SIGTERM/Ctrl-C drains)\n",
              server.port());
  std::fflush(stdout);  // CI smoke greps these lines through a pipe

  server.Wait();  // until a signal requests the drain
  std::printf("smadb_server: draining...\n");
  Check(server.Shutdown());  // joins every thread, checkpoints via Close()
  std::printf("smadb_server: drained, checkpointed, bye\n");
  return 0;
}
