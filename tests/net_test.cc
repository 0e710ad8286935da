// Network serving layer tests: the socket-facing contract of DESIGN.md §15.
//
// The contract under test: a client — cooperative, slow, dead, or actively
// hostile — can make the server refuse it with a typed `ERR` line, but never
// make it hang, leak a session, grow a buffer without bound, or crash. Every
// test ends with the same invariants: connections_active() back to 0,
// Database::sessions_active() back to 0, and a fresh connection served.
//
// The suite runs under ThreadSanitizer in CI (the I/O-thread/worker hand-off
// is exactly the kind of code TSan referees); keep iteration counts modest.

#include <poll.h>
#include <sys/socket.h>
#include <netinet/in.h>
#include <arpa/inet.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "db/database.h"
#include "net/server.h"
#include "tests/test_util.h"
#include "util/fault.h"
#include "util/rng.h"

namespace smadb {
namespace {

using testing::ExpectOk;
using testing::SyntheticSchema;
using testing::Unwrap;

using Clock = std::chrono::steady_clock;

/// Spins until `cond` holds or `timeout` elapses; true when it held.
template <typename Cond>
bool WaitFor(Cond cond, std::chrono::milliseconds timeout =
                            std::chrono::milliseconds(5000)) {
  const Clock::time_point deadline = Clock::now() + timeout;
  while (!cond()) {
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

/// A deliberately low-level test client: raw fd, poll-based reads with
/// deadlines, and the ability to misbehave (half-close, vanish, stall).
class TestClient {
 public:
  TestClient() = default;
  ~TestClient() { Close(); }
  TestClient(const TestClient&) = delete;
  TestClient& operator=(const TestClient&) = delete;

  bool Connect(uint16_t port, int rcvbuf_bytes = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    if (rcvbuf_bytes > 0) {
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                   sizeof(rcvbuf_bytes));
    }
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

  bool SendRaw(const std::string& data) {
    size_t off = 0;
    while (off < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  bool SendLine(const std::string& line) { return SendRaw(line + "\n"); }

  /// Next '\n'-terminated line, or nullopt on EOF/timeout.
  std::optional<std::string> ReadLine(
      std::chrono::milliseconds timeout = std::chrono::milliseconds(5000)) {
    const Clock::time_point deadline = Clock::now() + timeout;
    for (;;) {
      const size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      const int64_t left =
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                Clock::now())
              .count();
      if (left <= 0) return std::nullopt;
      pollfd p{fd_, POLLIN, 0};
      const int pr = ::poll(&p, 1, static_cast<int>(left));
      if (pr <= 0) {
        if (pr < 0 && errno == EINTR) continue;
        return std::nullopt;  // timeout
      }
      char chunk[4096];
      ssize_t n;
      do {
        n = ::recv(fd_, chunk, sizeof(chunk), 0);
      } while (n < 0 && errno == EINTR);
      if (n <= 0) return std::nullopt;  // EOF / reset
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

  /// Reads lines until the `OK`/`ERR ...` terminator; returns the
  /// terminator ("" on EOF/timeout) and collects body lines into `body`.
  std::string ReadResponse(std::vector<std::string>* body = nullptr) {
    for (;;) {
      auto line = ReadLine();
      if (!line.has_value()) return "";
      if (*line == "OK" || line->rfind("ERR", 0) == 0) return *line;
      if (body != nullptr) body->push_back(*line);
    }
  }

  /// True when the server has closed the connection (recv sees EOF within
  /// the timeout, with no stray bytes other than `allow_line` responses).
  bool WaitForClose(std::chrono::milliseconds timeout =
                        std::chrono::milliseconds(5000)) {
    const Clock::time_point deadline = Clock::now() + timeout;
    for (;;) {
      const int64_t left =
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                Clock::now())
              .count();
      if (left <= 0) return false;
      pollfd p{fd_, POLLIN, 0};
      const int pr = ::poll(&p, 1, static_cast<int>(left));
      if (pr <= 0) {
        if (pr < 0 && errno == EINTR) continue;
        return false;
      }
      char chunk[4096];
      ssize_t n;
      do {
        n = ::recv(fd_, chunk, sizeof(chunk), 0);
      } while (n < 0 && errno == EINTR);
      if (n == 0) return true;   // orderly EOF
      if (n < 0) return true;    // reset also counts as closed
    }
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buf_.clear();
  }

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  std::string buf_;
};

/// One in-memory database (4000 synthetic rows) plus a server on an
/// ephemeral port, torn down and invariant-checked after every test.
class NetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = Unwrap(database_.CreateTable("t", SyntheticSchema()));
    storage::TupleBuffer buf(&table_->schema());
    util::Rng rng(7);
    static const char* kTags[] = {"MAIL", "RAIL", "SHIP", "AIR"};
    for (int64_t i = 0; i < 4000; ++i) {
      buf.SetInt64(0, i);
      buf.SetDate(1, util::Date(static_cast<int32_t>(rng.Uniform(0, 500))));
      buf.SetDecimal(2, util::Decimal(i * 3));
      const char grp[2] = {static_cast<char>('A' + rng.Uniform(0, 2)), 0};
      buf.SetString(3, grp);
      buf.SetString(4, kTags[rng.Uniform(0, 3)]);
      ExpectOk(database_.Insert("t", buf));
    }
  }

  void TearDown() override {
    util::fault::DisarmAll();
    if (server_ != nullptr) {
      ExpectOk(server_->Shutdown());
      // The end-state invariants every scenario must restore.
      EXPECT_EQ(server_->connections_active(), 0u);
      EXPECT_EQ(database_.sessions_active(), 0u);
    }
  }

  net::Server* StartServer(net::ServerOptions options = {}) {
    options.port = 0;  // ephemeral; server_->port() is the real one
    options.checkpoint_on_drain = false;  // in-memory db, nothing to flush
    server_ = std::make_unique<net::Server>(&database_, options);
    ExpectOk(server_->Start());
    return server_.get();
  }

  /// Connects and fails the test if the server is unreachable.
  void Connect(TestClient* c, int rcvbuf_bytes = 0) {
    ASSERT_TRUE(c->Connect(server_->port(), rcvbuf_bytes));
  }

  db::Database database_;
  storage::Table* table_ = nullptr;
  std::unique_ptr<net::Server> server_;
};

// ---------------------------------------------------------------------------
// Request/response matrix: every protocol verb over a live socket.

TEST_F(NetTest, RequestResponseMatrix) {
  StartServer();
  TestClient c;
  Connect(&c);

  // ping -> bare OK.
  ASSERT_TRUE(c.SendLine("ping"));
  EXPECT_EQ(c.ReadResponse(), "OK");

  // health -> one status line + OK.
  ASSERT_TRUE(c.SendLine("health"));
  std::vector<std::string> health;
  EXPECT_EQ(c.ReadResponse(&health), "OK");
  ASSERT_EQ(health.size(), 1u);
  EXPECT_NE(health[0].find("health: ok"), std::string::npos) << health[0];
  EXPECT_NE(health[0].find("read_only=0"), std::string::npos);
  EXPECT_NE(health[0].find("draining=0"), std::string::npos);

  // A query -> result table then OK, identical to the in-process answer.
  const std::string sql = "select grp, sum(v) as total from t group by grp";
  const std::string want = Unwrap(database_.Query(sql)).ToString();
  ASSERT_TRUE(c.SendLine(sql));
  std::vector<std::string> body;
  EXPECT_EQ(c.ReadResponse(&body), "OK");
  std::string got;
  for (const std::string& line : body) got += line + "\n";
  EXPECT_EQ(got, want);

  // A statement -> OK; a bad statement -> ERR with the engine status.
  ASSERT_TRUE(c.SendLine("define sma mind select min(d) from t"));
  EXPECT_EQ(c.ReadResponse(), "OK");
  ASSERT_TRUE(c.SendLine("select nonsense"));
  EXPECT_EQ(c.ReadResponse().rfind("ERR ", 0), 0u);
  ASSERT_TRUE(c.SendLine("set no_such_knob = 1"));
  EXPECT_EQ(c.ReadResponse().rfind("ERR ", 0), 0u);

  // The connection survived every error above.
  ASSERT_TRUE(c.SendLine("ping"));
  EXPECT_EQ(c.ReadResponse(), "OK");

  // quit -> orderly close.
  ASSERT_TRUE(c.SendLine("quit"));
  EXPECT_TRUE(c.WaitForClose());
  EXPECT_TRUE(WaitFor([&] { return server_->connections_active() == 0; }));
}

// ---------------------------------------------------------------------------
// The statement surface, pinned: one fixed lowercase script over one
// connection. Deterministic responses (rows at dop 1, bare OKs, explain,
// scrub on the simulated backend, kill's error) must match byte for byte;
// `show storage`/`show metrics` line by line on a prefix; malformed lines on
// their `ERR <code>:` prefix.

TEST_F(NetTest, StatementTranscriptIsPinned) {
  enum class Match { kExact, kLinePrefix, kErrPrefix };
  struct Step {
    const char* line;
    Match match;
    const char* want;  // kLinePrefix: one '\n'-terminated prefix per line
  };
  const Step kScript[] = {
      {"set dop = 1", Match::kExact, "OK\n"},
      {"select grp, count(*) as n, sum(v) as total from t group by grp",
       Match::kExact,
       "grp | n | total\n"
       "A | 1342 | 81082.62\n"
       "B | 1313 | 81255.42\n"
       "C | 1345 | 77601.96\n"
       "OK\n"},
      {"select count(*), min(d), max(d), avg(v) from t where k < 100",
       Match::kExact,
       "count_1 | min_2 | max_3 | avg_4\n"
       "100 | 1970-01-05 | 1971-05-14 | 1.485\n"
       "OK\n"},
      {"select * from t where k < 3", Match::kExact,
       "k | d | v | grp | tag\n"
       "0 | 1971-03-09 | 0.00 | A | AIR\n"
       "1 | 1970-07-22 | 0.03 | A | SHIP\n"
       "2 | 1971-01-11 | 0.06 | C | RAIL\n"
       "OK\n"},
      {"explain select count(*) from t where d <= '1970-02-01'", Match::kExact,
       "explain\n"
       "plan: GAggr(TableScan)\n"
       "buckets: qualifying=0 disqualifying=0 ambivalent=25 "
       "fetch_fraction=1.000\n"
       "dop: 1\n"
       "no SMAs available, dop=1\n"
       "OK\n"},
      {"show profile", Match::kExact,
       "profile\n"
       "no profiled query yet; run `explain analyze select ...`\n"
       "OK\n"},
      {"show queries", Match::kExact,
       "queries\n"
       "(no queries in flight)\n"
       "OK\n"},
      {"show storage", Match::kLinePrefix,
       "storage\n"
       "backend: sim\n"
       "path: \n"
       "mode: read-write\n"
       "pages: reads=\n"
       "wal: (none\n"
       "OK\n"},
      {"scrub", Match::kExact,
       "scrub\n"
       "scanned: files=1 pages=25\n"
       "corrupt_pages: 0\n"
       "smas: verified=0 distrusted=0 repaired=0\n"
       "result: clean\n"
       "OK\n"},
      {"set timeout_ms = 0", Match::kExact, "OK\n"},
      {"set memory_limit = 0", Match::kExact, "OK\n"},
      {"set allow_degraded = 1", Match::kExact, "OK\n"},
      {"set max_concurrent_queries = 0", Match::kExact, "OK\n"},
      {"set wal_sync_interval = 1", Match::kExact, "OK\n"},
      {"set slow_query_ms = 0", Match::kExact, "OK\n"},
      {"set log_level = 1", Match::kExact, "OK\n"},
      {"set storage_path = 'smadb_transcript_unused'", Match::kExact, "OK\n"},
      {"set storage = sim", Match::kExact, "OK\n"},
      {"define sma mink select min(k) from t", Match::kExact, "OK\n"},
      {"define sma maxk select max(k) from t", Match::kExact, "OK\n"},
      {"define sma sumv select sum(v) from t group by grp", Match::kExact,
       "OK\n"},
      {"explain select count(*) from t where k < 500", Match::kExact,
       "explain\n"
       "plan: GAggr(SMA_Scan)\n"
       "buckets: qualifying=3 disqualifying=20 ambivalent=2 "
       "fetch_fraction=0.200\n"
       "dop: 1\n"
       "SMA_Scan fetches 20.0% of buckets (no matching aggregate SMAs), "
       "dop=1\n"
       "OK\n"},
      {"select grp, sum(v) from t where k < 500 group by grp", Match::kExact,
       "grp | sum_1\n"
       "A | 1205.82\n"
       "B | 1124.64\n"
       "C | 1412.04\n"
       "OK\n"},
      {"kill query 999999", Match::kExact,
       "ERR Not found: no in-flight query with id 999999\n"},
      {"trace deadbeef select count(*) from t where k >= 3990", Match::kExact,
       "count_1\n"
       "10\n"
       "OK\n"},
      {"show metrics", Match::kLinePrefix,
       "metrics\n"
       "smadb_appends_total =\n"
       "smadb_buckets_ambivalent_total =\n"
       "smadb_buckets_disqualifying_total =\n"
       "smadb_buckets_qualifying_total =\n"
       "smadb_checkpoints_total =\n"
       "smadb_disk_mutex_contended =\n"
       "smadb_disk_mutex_wait_ns =\n"
       "smadb_disk_near_reads =\n"
       "smadb_disk_page_reads =\n"
       "smadb_disk_page_writes =\n"
       "smadb_disk_random_reads =\n"
       "smadb_disk_sequential_reads =\n"
       "smadb_disk_syncs =\n"
       "smadb_latch_contended =\n"
       "smadb_latch_exclusive_acquires =\n"
       "smadb_latch_shared_acquires =\n"
       "smadb_latch_wait_ns:\n"
       "smadb_log_dropped_total =\n"
       "smadb_log_lines_total =\n"
       "smadb_memory_peak_bytes =\n"
       "smadb_memory_used_bytes =\n"
       "smadb_net_bytes_in_total =\n"
       "smadb_net_bytes_out_total =\n"
       "smadb_net_connections_active =\n"
       "smadb_net_connections_total =\n"
       "smadb_net_http_requests_total =\n"
       "smadb_net_idle_timeouts_total =\n"
       "smadb_net_overflow_total =\n"
       "smadb_net_peer_disconnect_cancels_total =\n"
       "smadb_net_request_latency_us:\n"
       "smadb_net_requests_total =\n"
       "smadb_net_shed_total =\n"
       "smadb_net_write_timeouts_total =\n"
       "smadb_pool_checksum_failures =\n"
       "smadb_pool_evictions =\n"
       "smadb_pool_hits =\n"
       "smadb_pool_misses =\n"
       "smadb_pool_mutex_contended =\n"
       "smadb_pool_mutex_wait_ns =\n"
       "smadb_queries_cancelled_total =\n"
       "smadb_queries_deadline_total =\n"
       "smadb_queries_degraded_total =\n"
       "smadb_queries_failed_total =\n"
       "smadb_queries_inflight =\n"
       "smadb_queries_total =\n"
       "smadb_query_latency_us:\n"
       "smadb_recovery_replayed_records =\n"
       "smadb_recovery_stale_smas =\n"
       "smadb_rows_returned_total =\n"
       "smadb_scrub_corrupt_pages_total =\n"
       "smadb_scrub_pages_scanned_total =\n"
       "smadb_scrub_runs_total =\n"
       "smadb_scrub_smas_repaired_total =\n"
       "smadb_sessions_active =\n"
       "smadb_storage_read_only =\n"
       "smadb_uptime_seconds =\n"
       "smadb_wal_appended_bytes =\n"
       "smadb_wal_appends_total =\n"
       "smadb_wal_syncs_total =\n"
       "OK\n"},
      // One malformed line of each kind.
      {"set dop = x", Match::kErrPrefix, "ERR Invalid argument:"},
      {"selec count(*) from t", Match::kErrPrefix, "ERR Not supported:"},
      {"select nope(v) from t", Match::kErrPrefix, "ERR Not supported:"},
      {"select count(*) from nope", Match::kErrPrefix, "ERR Not found:"},
      {"explain frobnicate", Match::kErrPrefix, "ERR Invalid argument:"},
      {"show nothing", Match::kErrPrefix, "ERR Not supported:"},
      {"scrub now", Match::kErrPrefix, "ERR Invalid argument:"},
      {"define sma x select min(nope) from t", Match::kErrPrefix,
       "ERR Not found:"},
      {"kill query abc", Match::kErrPrefix, "ERR Invalid argument:"},
      {"trace zz select count(*) from t", Match::kErrPrefix,
       "ERR Invalid argument:"},
  };

  StartServer();
  TestClient c;
  Connect(&c);
  for (const Step& step : kScript) {
    SCOPED_TRACE(step.line);
    ASSERT_TRUE(c.SendLine(step.line));
    std::vector<std::string> lines;
    const std::string terminator = c.ReadResponse(&lines);
    lines.push_back(terminator);
    std::string got;
    for (const std::string& l : lines) got += l + "\n";
    switch (step.match) {
      case Match::kExact:
        EXPECT_EQ(got, step.want);
        break;
      case Match::kLinePrefix: {
        std::vector<std::string> prefixes;
        for (std::string_view rest = step.want; !rest.empty();) {
          const size_t nl = rest.find('\n');
          prefixes.emplace_back(rest.substr(0, nl));
          rest.remove_prefix(nl + 1);
        }
        ASSERT_EQ(lines.size(), prefixes.size()) << got;
        for (size_t i = 0; i < lines.size(); ++i) {
          EXPECT_EQ(lines[i].rfind(prefixes[i], 0), 0u)
              << lines[i] << " lacks prefix " << prefixes[i];
        }
        break;
      }
      case Match::kErrPrefix:
        ASSERT_EQ(lines.size(), 1u) << got;
        EXPECT_EQ(lines[0].rfind(step.want, 0), 0u) << lines[0];
        break;
    }
  }
}

TEST_F(NetTest, SessionScopedSetStaysPerConnection) {
  StartServer();
  TestClient a, b;
  Connect(&a);
  Connect(&b);
  ASSERT_TRUE(a.SendLine("set dop = 1"));
  EXPECT_EQ(a.ReadResponse(), "OK");
  // B's session still has the default; the set above was session-scoped.
  ASSERT_TRUE(b.SendLine("select grp, count(*) as n from t group by grp"));
  EXPECT_EQ(b.ReadResponse(), "OK");
  ASSERT_TRUE(a.SendLine("select grp, count(*) as n from t group by grp"));
  EXPECT_EQ(a.ReadResponse(), "OK");
}

// ---------------------------------------------------------------------------
// Bounded input: oversized lines get a typed error, never an OOM.

TEST_F(NetTest, OversizedLineGetsTypedErrorAndConnectionSurvives) {
  net::ServerOptions options;
  options.max_line_bytes = 1024;
  StartServer(options);
  TestClient c;
  Connect(&c);

  // A complete line over the cap.
  ASSERT_TRUE(c.SendLine(std::string(4096, 'x')));
  EXPECT_EQ(c.ReadResponse(), "ERR request too long");

  // The same connection keeps working afterwards.
  ASSERT_TRUE(c.SendLine("ping"));
  EXPECT_EQ(c.ReadResponse(), "OK");

  // An *unterminated* flood: the typed error arrives while bytes are still
  // streaming in (the server must not wait for the newline to bound its
  // buffer), and the eventual newline plus a real request still works.
  ASSERT_TRUE(c.SendRaw(std::string(16 * 1024, 'y')));
  EXPECT_EQ(c.ReadResponse(), "ERR request too long");
  ASSERT_TRUE(c.SendRaw(std::string(8 * 1024, 'y') + "\nping\n"));
  EXPECT_EQ(c.ReadResponse(), "OK");

  EXPECT_GE(server_->stats().overflows, 2u);
}

// ---------------------------------------------------------------------------
// Torn lines and pipelining: the framing layer vs. TCP's stream-ness.

TEST_F(NetTest, TornAndPipelinedRequestsAreReassembled) {
  StartServer();
  TestClient c;
  Connect(&c);

  // One request dribbled in four pieces.
  ASSERT_TRUE(c.SendRaw("pi"));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(c.SendRaw("ng"));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(c.SendRaw("\nhea"));
  EXPECT_EQ(c.ReadResponse(), "OK");  // the ping completed on its newline
  ASSERT_TRUE(c.SendRaw("lth\n"));
  std::vector<std::string> health;
  EXPECT_EQ(c.ReadResponse(&health), "OK");
  ASSERT_EQ(health.size(), 1u);

  // Three requests in one write: served in order, one at a time.
  ASSERT_TRUE(c.SendRaw("ping\nping\nping\n"));
  EXPECT_EQ(c.ReadResponse(), "OK");
  EXPECT_EQ(c.ReadResponse(), "OK");
  EXPECT_EQ(c.ReadResponse(), "OK");

  // CRLF and surrounding blank lines are tolerated.
  ASSERT_TRUE(c.SendRaw("\r\n\r\nping\r\n"));
  EXPECT_EQ(c.ReadResponse(), "OK");
}

// ---------------------------------------------------------------------------
// Protocol fuzz: seeded garbage must never crash, hang, or leak sessions.

TEST_F(NetTest, SeededProtocolFuzzNeverCrashesOrLeaks) {
  net::ServerOptions options;
  options.max_line_bytes = 2048;
  options.worker_threads = 2;
  StartServer(options);
  util::Rng rng(0xF422);

  for (int round = 0; round < 24; ++round) {
    TestClient c;
    Connect(&c);
    const int pieces = static_cast<int>(rng.Uniform(1, 6));
    for (int p = 0; p < pieces; ++p) {
      std::string blob;
      const size_t len = static_cast<size_t>(rng.Uniform(1, 3000));
      blob.reserve(len);
      for (size_t i = 0; i < len; ++i) {
        // Mostly printable noise, sprinkled newlines (torn framing), and
        // raw bytes including NUL — the parser must treat it all as data.
        const uint64_t roll = rng.Uniform(0, 99);
        if (roll < 8) {
          blob += '\n';
        } else if (roll < 16) {
          blob += static_cast<char>(rng.Uniform(0, 255));
        } else {
          blob += static_cast<char>(' ' + rng.Uniform(0, 94));
        }
      }
      if (!c.SendRaw(blob)) break;  // server closed on us mid-blob: fine
      // Drain whatever responses accumulated so the server is never the
      // one blocked on a full socket.
      while (c.ReadLine(std::chrono::milliseconds(1)).has_value()) {
      }
    }
    if (rng.Uniform(0, 1) == 0) {
      c.Close();  // vanish abruptly half the time
    } else {
      (void)c.SendLine("quit");
      c.Close();
    }
  }

  // Whatever the garbage did, every connection unwinds...
  EXPECT_TRUE(WaitFor([&] { return server_->connections_active() == 0; }));
  EXPECT_TRUE(WaitFor([&] { return database_.sessions_active() == 0; }));
  // ...and the server still serves.
  TestClient fresh;
  Connect(&fresh);
  ASSERT_TRUE(fresh.SendLine("ping"));
  EXPECT_EQ(fresh.ReadResponse(), "OK");
}

// ---------------------------------------------------------------------------
// Shed at the cap: connection max_connections+1 gets `ERR busy`.

TEST_F(NetTest, ConnectionsBeyondCapAreShedWithTypedError) {
  net::ServerOptions options;
  options.max_connections = 2;
  StartServer(options);

  TestClient a, b;
  Connect(&a);
  Connect(&b);
  // Ensure both are registered server-side before the third knocks.
  ASSERT_TRUE(a.SendLine("ping"));
  EXPECT_EQ(a.ReadResponse(), "OK");
  ASSERT_TRUE(b.SendLine("ping"));
  EXPECT_EQ(b.ReadResponse(), "OK");

  TestClient shed;
  ASSERT_TRUE(shed.Connect(server_->port()));  // TCP accept still succeeds
  EXPECT_EQ(shed.ReadResponse(), "ERR busy");  // ...then the typed shed
  EXPECT_TRUE(shed.WaitForClose());
  EXPECT_GE(server_->stats().shed, 1u);

  // A slot freed by quitting is immediately reusable.
  ASSERT_TRUE(a.SendLine("quit"));
  EXPECT_TRUE(a.WaitForClose());
  EXPECT_TRUE(WaitFor([&] { return server_->connections_active() == 1; }));
  TestClient again;
  Connect(&again);
  ASSERT_TRUE(again.SendLine("ping"));
  EXPECT_EQ(again.ReadResponse(), "OK");
}

// ---------------------------------------------------------------------------
// Deadlines: idle connections are reaped; stalled readers are dropped.

TEST_F(NetTest, IdleConnectionTimesOutWithTypedError) {
  net::ServerOptions options;
  options.idle_timeout_ms = 150;
  StartServer(options);
  TestClient c;
  Connect(&c);
  // Say nothing; the server reaps us with the typed line, then EOF.
  const auto line = c.ReadLine(std::chrono::milliseconds(5000));
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, "ERR idle timeout");
  EXPECT_TRUE(c.WaitForClose());
  EXPECT_GE(server_->stats().idle_timeouts, 1u);

  // Activity resets the clock: a chatty client is never reaped.
  TestClient chatty;
  Connect(&chatty);
  for (int i = 0; i < 5; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    ASSERT_TRUE(chatty.SendLine("ping"));
    EXPECT_EQ(chatty.ReadResponse(), "OK");
  }
}

TEST_F(NetTest, StalledReaderTripsWriteDeadlineNotUnboundedBuffering) {
  net::ServerOptions options;
  options.write_timeout_ms = 200;
  options.sndbuf_bytes = 4096;   // tiny kernel buffers so the big result
  StartServer(options);          // actually blocks instead of being absorbed
  TestClient c;
  Connect(&c, /*rcvbuf_bytes=*/4096);

  // Ask for every row, then refuse to read the response. The server must
  // not queue the overflow — it blocks with a deadline, then disconnects.
  ASSERT_TRUE(c.SendLine("select * from t"));
  EXPECT_TRUE(
      WaitFor([&] { return server_->stats().write_timeouts >= 1; }));
  EXPECT_TRUE(WaitFor([&] { return server_->connections_active() == 0; }));

  // The worker that was stuck is free again.
  TestClient fresh;
  Connect(&fresh);
  ASSERT_TRUE(fresh.SendLine("ping"));
  EXPECT_EQ(fresh.ReadResponse(), "OK");
}

// ---------------------------------------------------------------------------
// Dead-client cancellation: a vanished client's request is cancelled, its
// connection and session unwound, while other clients keep working.

TEST_F(NetTest, VanishedClientCancelsItsInFlightRequest) {
  net::ServerOptions options;
  options.sndbuf_bytes = 4096;
  options.write_timeout_ms = 30'000;  // the cancel must win, not this
  StartServer(options);

  TestClient victim;
  Connect(&victim, /*rcvbuf_bytes=*/4096);
  // A request whose response cannot fit the socket buffers keeps the
  // request in flight for as long as we refuse to read...
  ASSERT_TRUE(victim.SendLine("select * from t"));
  EXPECT_TRUE(WaitFor([&] { return server_->stats().requests_total >= 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // ...and then we vanish. The I/O thread must notice the hangup, trip the
  // request's CancelToken, and unwind without waiting for any deadline.
  victim.Close();

  EXPECT_TRUE(WaitFor([&] {
    return server_->stats().peer_disconnect_cancels >= 1 ||
           server_->connections_active() == 0;
  }));
  EXPECT_TRUE(WaitFor([&] { return server_->connections_active() == 0; }));
  EXPECT_TRUE(WaitFor([&] { return database_.sessions_active() == 0; }));

  // An unrelated client was never disturbed.
  TestClient bystander;
  Connect(&bystander);
  ASSERT_TRUE(bystander.SendLine("ping"));
  EXPECT_EQ(bystander.ReadResponse(), "OK");
}

// ---------------------------------------------------------------------------
// Graceful drain: SIGTERM semantics, exercised via RequestShutdown().

TEST_F(NetTest, DrainUnderLoadFinishesWithinDeadlineAndUnwindsEverything) {
  net::ServerOptions options;
  options.drain_timeout_ms = 500;
  options.write_timeout_ms = 30'000;  // the drain deadline must win
  options.sndbuf_bytes = 4096;
  StartServer(options);

  // Load: one stuck in-flight request (stalled reader), several idle
  // connections, and one mid-request well-behaved client.
  TestClient stuck;
  Connect(&stuck, /*rcvbuf_bytes=*/4096);
  ASSERT_TRUE(stuck.SendLine("select * from t"));
  EXPECT_TRUE(WaitFor([&] { return server_->stats().requests_total >= 1; }));

  std::vector<std::unique_ptr<TestClient>> idle;
  for (int i = 0; i < 4; ++i) {
    idle.push_back(std::make_unique<TestClient>());
    ASSERT_TRUE(idle.back()->Connect(server_->port()));
    ASSERT_TRUE(idle.back()->SendLine("ping"));
    EXPECT_EQ(idle.back()->ReadResponse(), "OK");
  }

  const Clock::time_point t0 = Clock::now();
  server_->RequestShutdown();

  // Idle connections are told why and closed.
  for (auto& c : idle) {
    const auto line = c->ReadLine();
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(*line, "ERR server draining");
    EXPECT_TRUE(c->WaitForClose());
  }

  // New connections are refused outright (the listener is gone).
  TestClient late;
  EXPECT_FALSE(late.Connect(server_->port()));

  // The stuck request is cancelled at the drain deadline; Wait() returns
  // within the budget plus slack, with everything unwound.
  server_->Wait();
  const auto elapsed =
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                            t0);
  EXPECT_LT(elapsed.count(), 5000) << "drain overran its deadline";
  EXPECT_EQ(server_->connections_active(), 0u);
  EXPECT_EQ(database_.sessions_active(), 0u);
  EXPECT_GE(server_->stats().drain_cancels, 1u);
  ExpectOk(server_->Shutdown());
}

TEST_F(NetTest, DrainOfQuietServerIsImmediate) {
  StartServer();
  TestClient c;
  Connect(&c);
  ASSERT_TRUE(c.SendLine("ping"));
  EXPECT_EQ(c.ReadResponse(), "OK");
  const Clock::time_point t0 = Clock::now();
  server_->RequestShutdown();
  server_->Wait();
  const auto elapsed =
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                            t0);
  EXPECT_LT(elapsed.count(), 2000);
  ExpectOk(server_->Shutdown());  // idempotent after Wait()
}

// ---------------------------------------------------------------------------
// Socket chaos: the net.* failpoint family.

TEST_F(NetTest, ChaosAcceptFailureDropsOneConnectionServerSurvives) {
  StartServer();
  {
    util::fault::ScopedFault f("net.accept", {.count = 1});
    TestClient doomed;
    ASSERT_TRUE(doomed.Connect(server_->port()));  // TCP-level connect wins
    EXPECT_TRUE(doomed.WaitForClose());            // ...then the injected kill
  }
  TestClient fine;
  Connect(&fine);
  ASSERT_TRUE(fine.SendLine("ping"));
  EXPECT_EQ(fine.ReadResponse(), "OK");
  EXPECT_TRUE(WaitFor([&] { return database_.sessions_active() <= 1; }));
}

TEST_F(NetTest, ChaosRecvFailureClosesConnectionAndFreesSession) {
  StartServer();
  TestClient c;
  Connect(&c);
  ASSERT_TRUE(c.SendLine("ping"));
  EXPECT_EQ(c.ReadResponse(), "OK");  // the connection is established & live
  {
    util::fault::ScopedFault f("net.recv", {.count = 1});
    ASSERT_TRUE(c.SendLine("ping"));
    EXPECT_TRUE(c.WaitForClose());  // injected read death: orderly close
  }
  EXPECT_TRUE(WaitFor([&] { return server_->connections_active() == 0; }));
  EXPECT_TRUE(WaitFor([&] { return database_.sessions_active() == 0; }));
  TestClient fresh;
  Connect(&fresh);
  ASSERT_TRUE(fresh.SendLine("ping"));
  EXPECT_EQ(fresh.ReadResponse(), "OK");
}

TEST_F(NetTest, ChaosBitFlipCorruptsRequestIntoTypedErrorNotCrash) {
  StartServer();
  TestClient c;
  Connect(&c);
  {
    util::fault::ScopedFault f(
        "net.recv", {.count = 1, .kind = util::FaultKind::kBitFlip});
    // The first byte is flipped in flight: "ping" arrives as "qing".
    ASSERT_TRUE(c.SendLine("ping"));
    EXPECT_EQ(c.ReadResponse().rfind("ERR ", 0), 0u);
  }
  // The connection survived the corruption; the next request is clean.
  ASSERT_TRUE(c.SendLine("ping"));
  EXPECT_EQ(c.ReadResponse(), "OK");
}

TEST_F(NetTest, ChaosSendFailureClosesConnectionNeverTruncatesSilently) {
  StartServer();
  TestClient c;
  Connect(&c);
  {
    util::fault::ScopedFault f("net.send", {.count = 1});
    // The response send fails; the server must close rather than let us
    // mistake a truncated stream for a complete answer.
    ASSERT_TRUE(c.SendLine("select grp, count(*) as n from t group by grp"));
    EXPECT_TRUE(c.WaitForClose());
  }
  EXPECT_TRUE(WaitFor([&] { return server_->connections_active() == 0; }));
  TestClient fresh;
  Connect(&fresh);
  ASSERT_TRUE(fresh.SendLine("ping"));
  EXPECT_EQ(fresh.ReadResponse(), "OK");
}

TEST_F(NetTest, ChaosRecvStormUnderConcurrencyNeverLeaks) {
  // Many clients, a probabilistic recv killer, all under TSan in CI: the
  // acceptance shape for "chaos matrix green, sessions return to zero".
  net::ServerOptions options;
  options.worker_threads = 3;
  StartServer(options);
  util::fault::Seed(11);
  util::fault::Arm("net.recv", {.probability = 0.3, .count = -1});

  std::vector<std::thread> clients;
  clients.reserve(6);
  for (int t = 0; t < 6; ++t) {
    clients.emplace_back([this, t] {
      util::Rng rng(100 + t);
      for (int i = 0; i < 8; ++i) {
        TestClient c;
        if (!c.Connect(server_->port())) continue;
        for (int r = 0; r < 4; ++r) {
          const uint64_t pick = rng.Uniform(0, 2);
          const char* req = pick == 0 ? "ping"
                            : pick == 1
                                ? "health"
                                : "select grp, count(*) as n from t group by grp";
          if (!c.SendLine(req)) break;
          if (c.ReadResponse().empty()) break;  // killed mid-request: fine
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  util::fault::DisarmAll();

  EXPECT_TRUE(WaitFor([&] { return server_->connections_active() == 0; }));
  EXPECT_TRUE(WaitFor([&] { return database_.sessions_active() == 0; }));
  TestClient fresh;
  Connect(&fresh);
  ASSERT_TRUE(fresh.SendLine("ping"));
  EXPECT_EQ(fresh.ReadResponse(), "OK");
}

// ---------------------------------------------------------------------------
// Metrics: the smadb_net_* instruments mirror the stats the tests watch.

TEST_F(NetTest, MetricsRegistryMirrorsServerCounters) {
  StartServer();
  TestClient c;
  Connect(&c);
  ASSERT_TRUE(c.SendLine("ping"));
  EXPECT_EQ(c.ReadResponse(), "OK");

  obs::MetricsRegistry* r = database_.metrics();
  EXPECT_EQ(r->GetGauge("smadb_net_connections_active", "")->value(), 1);
  EXPECT_GE(r->GetCounter("smadb_net_connections_total", "")->value(), 1);
  EXPECT_GE(r->GetCounter("smadb_net_requests_total", "")->value(), 1);
  EXPECT_GT(r->GetCounter("smadb_net_bytes_in_total", "")->value(), 0);
  // The worker adds the bytes it sent once send() returns, which can be
  // after the client read `OK`; likewise latency is observed by the I/O
  // thread when it processes the request's completion. Wait for both.
  EXPECT_TRUE(WaitFor([&] {
    return r->GetCounter("smadb_net_bytes_out_total", "")->value() > 0;
  }));
  EXPECT_TRUE(WaitFor([&] {
    return r->GetHistogram("smadb_net_request_latency_us", "")->count() >= 1;
  }));

  ASSERT_TRUE(c.SendLine("quit"));
  EXPECT_TRUE(c.WaitForClose());
  EXPECT_TRUE(WaitFor([&] {
    return r->GetGauge("smadb_net_connections_active", "")->value() == 0;
  }));
}

// ---------------------------------------------------------------------------
// Telemetry plane (DESIGN.md §16): trace ids, request logging, the HTTP
// endpoint, and the wire routing of show/scrub/kill.

/// GETs `path` from the HTTP observability port and returns the raw
/// response (status line + headers + body), or "" when unreachable.
std::string HttpGet(uint16_t port, const std::string& request) {
  TestClient c;
  if (!c.Connect(port)) return "";
  if (!c.SendRaw(request)) return "";
  std::string resp;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(5000);
  for (;;) {
    const int64_t left =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                              Clock::now())
            .count();
    if (left <= 0) break;
    pollfd p{c.fd(), POLLIN, 0};
    const int pr = ::poll(&p, 1, static_cast<int>(left));
    if (pr < 0 && errno == EINTR) continue;
    if (pr <= 0) break;
    char chunk[4096];
    ssize_t n;
    do {
      n = ::recv(c.fd(), chunk, sizeof(chunk), 0);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) break;  // server closes after the response
    resp.append(chunk, static_cast<size_t>(n));
  }
  return resp;
}

std::string SimpleGet(uint16_t port, const std::string& path) {
  return HttpGet(port, "GET " + path + " HTTP/1.1\r\nHost: x\r\n"
                                       "Connection: close\r\n\r\n");
}

/// NetTest with a ring-buffer debug logger (no stderr noise) so tests can
/// assert on the structured request log.
class TelemetryTest : public ::testing::Test {
 protected:
  TelemetryTest() : database_(QuietDebugOptions()) {}

  static db::DatabaseOptions QuietDebugOptions() {
    db::DatabaseOptions o;
    o.log.min_level = obs::LogLevel::kDebug;
    o.log.sink = nullptr;
    o.log.max_per_sec = 1'000'000;
    o.log.ring_capacity = 1024;
    return o;
  }

  void SetUp() override {
    table_ = Unwrap(database_.CreateTable("t", SyntheticSchema()));
    storage::TupleBuffer buf(&table_->schema());
    util::Rng rng(7);
    static const char* kTags[] = {"MAIL", "RAIL", "SHIP", "AIR"};
    for (int64_t i = 0; i < 4000; ++i) {
      buf.SetInt64(0, i);
      buf.SetDate(1, util::Date(static_cast<int32_t>(rng.Uniform(0, 500))));
      buf.SetDecimal(2, util::Decimal(i * 3));
      const char grp[2] = {static_cast<char>('A' + rng.Uniform(0, 2)), 0};
      buf.SetString(3, grp);
      buf.SetString(4, kTags[rng.Uniform(0, 3)]);
      ExpectOk(database_.Insert("t", buf));
    }
  }

  void TearDown() override {
    if (server_ != nullptr) {
      ExpectOk(server_->Shutdown());
      EXPECT_EQ(server_->connections_active(), 0u);
      EXPECT_EQ(database_.sessions_active(), 0u);
    }
  }

  net::Server* StartServer(net::ServerOptions options = {}) {
    options.port = 0;
    options.http_port = 0;
    options.checkpoint_on_drain = false;
    server_ = std::make_unique<net::Server>(&database_, options);
    ExpectOk(server_->Start());
    return server_.get();
  }

  /// The ring, newest-last, joined for simple substring asserts.
  std::string LogTail() {
    std::string joined;
    for (const std::string& line : database_.logger()->Tail(1024)) {
      joined += line;
      joined += '\n';
    }
    return joined;
  }

  db::Database database_;
  storage::Table* table_ = nullptr;
  std::unique_ptr<net::Server> server_;
};

// The acceptance path: one client-supplied trace id observably links the
// TCP request to the request log, the trace spans, and the profile.
TEST_F(TelemetryTest, TraceIdLinksRequestLogSpansAndProfile) {
  StartServer();
  TestClient c;
  ASSERT_TRUE(c.Connect(server_->port()));
  ASSERT_TRUE(c.SendLine(
      "trace deadbeef explain analyze select grp, sum(v) from t group by "
      "grp"));
  std::vector<std::string> body;
  ASSERT_EQ(c.ReadResponse(&body), "OK");

  // 1. The returned profile carries the id.
  std::string profile;
  for (const std::string& line : body) profile += line + "\n";
  EXPECT_NE(profile.find("trace=deadbeef"), std::string::npos) << profile;

  // 2. The structured request log carries it (logged after the response,
  // so wait for the worker to get there).
  EXPECT_TRUE(WaitFor([&] {
    const std::string log = LogTail();
    return log.find("event=request") != std::string::npos &&
           log.find("trace=deadbeef") != std::string::npos;
  })) << LogTail();

  // 3. The trace spans carry it — parse/execute at minimum.
  const std::string trace = database_.DumpTrace();
  EXPECT_NE(trace.find("\"trace\": \"deadbeef\""), std::string::npos)
      << trace;
  EXPECT_NE(trace.find("\"span\": \"execute\""), std::string::npos);
}

TEST_F(TelemetryTest, MintedTraceIdsAreFreshAndReachTheTraceSink) {
  StartServer();
  TestClient c;
  ASSERT_TRUE(c.Connect(server_->port()));
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(c.SendLine("select count(*) from t"));
    ASSERT_EQ(c.ReadResponse(), "OK");
  }
  // Two request log lines, each with a fresh nonzero trace id.
  ASSERT_TRUE(WaitFor([&] {
    const std::string log = LogTail();
    size_t n = 0;
    for (size_t at = log.find("event=request"); at != std::string::npos;
         at = log.find("event=request", at + 1)) {
      ++n;
    }
    return n >= 2;
  }));
  std::vector<std::string> ids;
  const std::string log = LogTail();
  for (size_t at = log.find("trace="); at != std::string::npos;
       at = log.find("trace=", at + 6)) {
    const size_t start = at + 6;
    size_t end = start;
    while (end < log.size() && std::isxdigit(log[end])) ++end;
    if (end > start) ids.push_back(log.substr(start, end - start));
  }
  ASSERT_GE(ids.size(), 2u) << log;
  EXPECT_NE(ids[0], "0");
  EXPECT_NE(ids[1], "0");
  EXPECT_NE(ids[0], ids[1]);
  // The minted id reached the engine's trace spans too.
  EXPECT_NE(database_.DumpTrace().find("\"trace\": \"" + ids.back() + "\""),
            std::string::npos);
}

TEST_F(TelemetryTest, ShowScrubAndKillRouteOverTheWire) {
  StartServer();
  TestClient c;
  ASSERT_TRUE(c.Connect(server_->port()));

  // `show ...` lines produce tables, not `ERR unknown statement`.
  ASSERT_TRUE(c.SendLine("show metrics"));
  std::vector<std::string> metrics;
  EXPECT_EQ(c.ReadResponse(&metrics), "OK");
  EXPECT_FALSE(metrics.empty());

  ASSERT_TRUE(c.SendLine("show queries"));
  std::vector<std::string> queries;
  EXPECT_EQ(c.ReadResponse(&queries), "OK");
  ASSERT_FALSE(queries.empty());
  EXPECT_NE(queries.back().find("no queries in flight"), std::string::npos);

  ASSERT_TRUE(c.SendLine("scrub"));
  std::vector<std::string> scrub;
  EXPECT_EQ(c.ReadResponse(&scrub), "OK");
  EXPECT_FALSE(scrub.empty());

  // `kill query` is a statement; unknown ids come back as a typed error.
  ASSERT_TRUE(c.SendLine("kill query 999999"));
  const std::string kill = c.ReadResponse();
  EXPECT_EQ(kill.rfind("ERR ", 0), 0u) << kill;
  EXPECT_NE(kill.find("no in-flight query"), std::string::npos) << kill;
}

// One statement parser behind every entry point: keyword case, leading
// blanks and a `trace <hex>` prefix (either case) mean the same over TCP,
// Session::Query/Execute and Database::Query/Execute. Each entry point gets
// a fresh database.
TEST_F(TelemetryTest, EveryStatementRunsThroughEveryEntryPoint) {
  const std::string kTracedSelect = "trace AB12 select count(*) from t";
  const std::string kTracedAnalyze =
      "TRACE ab12 explain analyze select count(*) from t";
  const std::vector<std::string> kLines = {
      "SELECT count(*) FROM t",
      "  select grp, count(*) from t group by grp",
      "select * from t where k < 3",
      "EXPLAIN select count(*) from t where k < 100",
      "Show metrics",
      "SHOW QUERIES",
      "SCRUB",
      "trace ab12 set dop = 1",
      "SET timeout_ms = 0",
      "DEFINE SMA mink SELECT min(k) FROM t",
      "trace 00ff define sma maxk select max(k) from t",
      kTracedSelect,
      kTracedAnalyze,
      "show profile",
      "Scrub",
  };
  const std::vector<std::string> kKills = {"kill query 99999",
                                           "trace ab12 kill query 99999"};
  constexpr uint64_t kTrace = 0xab12;

  enum class Entry { kTcp, kSessionQuery, kSessionExecute, kDbQuery,
                     kDbExecute };
  for (const Entry entry : {Entry::kTcp, Entry::kSessionQuery,
                            Entry::kSessionExecute, Entry::kDbQuery,
                            Entry::kDbExecute}) {
    SCOPED_TRACE(static_cast<int>(entry));
    db::Database database(QuietDebugOptions());
    storage::Table* table =
        Unwrap(database.CreateTable("t", SyntheticSchema()));
    storage::TupleBuffer buf(&table->schema());
    for (int64_t i = 0; i < 500; ++i) {
      buf.SetInt64(0, i);
      buf.SetDate(1, util::Date(static_cast<int32_t>(i / 8)));
      buf.SetDecimal(2, util::Decimal(i));
      buf.SetString(3, i % 2 == 0 ? "A" : "B");
      buf.SetString(4, "MAIL");
      ExpectOk(database.Insert("t", buf));
    }
    std::unique_ptr<net::Server> server;
    TestClient client;
    std::unique_ptr<db::Session> session = database.CreateSession();
    if (entry == Entry::kTcp) {
      net::ServerOptions options;
      options.port = 0;
      options.checkpoint_on_drain = false;
      server = std::make_unique<net::Server>(&database, options);
      ExpectOk(server->Start());
      ASSERT_TRUE(client.Connect(server->port()));
    }
    // "OK", or the failure as Status::ToString() renders it.
    const auto run = [&](const std::string& line) -> std::string {
      util::Status st;
      switch (entry) {
        case Entry::kTcp: {
          EXPECT_TRUE(client.SendLine(line));
          const std::string term = client.ReadResponse();
          return term.rfind("ERR ", 0) == 0 ? term.substr(4) : term;
        }
        case Entry::kSessionQuery:
          st = session->Query(line).status();
          break;
        case Entry::kSessionExecute:
          st = session->Execute(line);
          break;
        case Entry::kDbQuery:
          st = database.Query(line).status();
          break;
        case Entry::kDbExecute:
          st = database.Execute(line);
          break;
      }
      return st.ToString();
    };

    for (const std::string& line : kLines) {
      EXPECT_EQ(run(line), "OK") << line;
      if (line == kTracedSelect) {
        bool spans = false;
        for (const obs::TraceEvent& e : database.trace()->Events()) {
          spans |= e.trace_id == kTrace && e.name == "execute";
        }
        EXPECT_TRUE(spans) << database.DumpTrace();
        if (entry == Entry::kTcp) {
          EXPECT_TRUE(WaitFor([&] {
            for (const std::string& l : database.logger()->Tail(1024)) {
              if (l.find("event=request") != std::string::npos &&
                  l.find("trace=ab12") != std::string::npos &&
                  l.find(kTracedSelect) != std::string::npos) {
                return true;
              }
            }
            return false;
          }));
        }
      }
      if (line == kTracedAnalyze) {
        ASSERT_NE(database.last_profile(), nullptr);
        EXPECT_EQ(database.last_profile()->trace_id(), kTrace);
      }
    }
    for (const std::string& kill : kKills) {
      EXPECT_EQ(run(kill).rfind("Not found:", 0), 0u) << kill;
    }
    EXPECT_EQ(Unwrap(database.Smas("t"))->size(), 2u);
    session.reset();
    if (server != nullptr) ExpectOk(server->Shutdown());
  }
}

TEST_F(TelemetryTest, HttpEndpointsServeMetricsHealthStatusAndDebug) {
  StartServer();
  ASSERT_NE(server_->http_port(), 0);

  // A query first so the scrape has content.
  TestClient c;
  ASSERT_TRUE(c.Connect(server_->port()));
  ASSERT_TRUE(c.SendLine("select count(*) from t"));
  ASSERT_EQ(c.ReadResponse(), "OK");

  const std::string metrics = SimpleGet(server_->http_port(), "/metrics");
  EXPECT_EQ(metrics.rfind("HTTP/1.1 200 OK", 0), 0u) << metrics;
  EXPECT_NE(metrics.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(metrics.find("# TYPE smadb_queries_total counter"),
            std::string::npos);
  EXPECT_NE(metrics.find("smadb_net_http_requests_total"),
            std::string::npos);

  const std::string health = SimpleGet(server_->http_port(), "/healthz");
  EXPECT_EQ(health.rfind("HTTP/1.1 200 OK", 0), 0u) << health;
  EXPECT_NE(health.find("\"status\": \"ok\""), std::string::npos);

  const std::string status = SimpleGet(server_->http_port(), "/statusz");
  EXPECT_EQ(status.rfind("HTTP/1.1 200 OK", 0), 0u) << status;
  EXPECT_NE(status.find("\"knobs\""), std::string::npos);
  EXPECT_NE(status.find("\"uptime_us\""), std::string::npos);
  EXPECT_NE(status.find("\"version\": \"1.0.0\""), std::string::npos);

  const std::string queries =
      SimpleGet(server_->http_port(), "/debug/queries");
  EXPECT_EQ(queries.rfind("HTTP/1.1 200 OK", 0), 0u);
  EXPECT_NE(queries.find("Content-Type: application/json"),
            std::string::npos);

  const std::string trace = SimpleGet(server_->http_port(), "/debug/trace");
  EXPECT_EQ(trace.rfind("HTTP/1.1 200 OK", 0), 0u);
  EXPECT_NE(trace.find("\"span\""), std::string::npos) << trace;

  const std::string index = SimpleGet(server_->http_port(), "/");
  EXPECT_EQ(index.rfind("HTTP/1.1 200 OK", 0), 0u);
  EXPECT_NE(index.find("/metrics"), std::string::npos);

  EXPECT_EQ(SimpleGet(server_->http_port(), "/nope")
                .rfind("HTTP/1.1 404 Not Found", 0),
            0u);
  const std::string post =
      HttpGet(server_->http_port(),
              "POST /metrics HTTP/1.1\r\nHost: x\r\n"
              "Connection: close\r\n\r\n");
  EXPECT_EQ(post.rfind("HTTP/1.1 405", 0), 0u) << post;

  EXPECT_GE(server_->stats().http_requests, 8u);
}

TEST_F(TelemetryTest, HttpScrapesStayCleanUnderConcurrentQueryLoad) {
  StartServer();
  std::atomic<bool> stop{false};
  std::atomic<int> bad_scrapes{0};
  std::vector<std::thread> scrapers;
  for (int i = 0; i < 2; ++i) {
    scrapers.emplace_back([&] {
      while (!stop.load()) {
        const std::string m = SimpleGet(server_->http_port(), "/metrics");
        if (m.rfind("HTTP/1.1 200 OK", 0) != 0) bad_scrapes.fetch_add(1);
        const std::string q =
            SimpleGet(server_->http_port(), "/debug/queries");
        if (q.rfind("HTTP/1.1 200 OK", 0) != 0) bad_scrapes.fetch_add(1);
      }
    });
  }
  std::vector<std::thread> clients;
  for (int i = 0; i < 2; ++i) {
    clients.emplace_back([&] {
      TestClient c;
      if (!c.Connect(server_->port())) return;
      for (int j = 0; j < 25; ++j) {
        if (!c.SendLine("select grp, count(*) from t group by grp")) break;
        if (c.ReadResponse() != "OK") break;
      }
      c.SendLine("quit");
    });
  }
  for (auto& t : clients) t.join();
  stop.store(true);
  for (auto& t : scrapers) t.join();
  EXPECT_EQ(bad_scrapes.load(), 0);
}

TEST_F(TelemetryTest, HealthzReports503WhileDraining) {
  net::ServerOptions options;
  options.sndbuf_bytes = 4096;
  options.drain_timeout_ms = 10'000;  // hold the drain open for the scrape
  options.write_timeout_ms = 30'000;
  StartServer(options);

  // Healthy first.
  const std::string before = SimpleGet(server_->http_port(), "/healthz");
  EXPECT_EQ(before.rfind("HTTP/1.1 200 OK", 0), 0u);

  // A stuck in-flight request keeps the server draining (not drained).
  TestClient stuck;
  ASSERT_TRUE(stuck.Connect(server_->port(), /*rcvbuf_bytes=*/4096));
  ASSERT_TRUE(stuck.SendLine("select * from t"));
  EXPECT_TRUE(WaitFor([&] { return server_->stats().requests_total >= 1; }));

  server_->RequestShutdown();
  // The SQL listener is gone but the telemetry plane still answers, now
  // with 503 + "draining" — load balancers stop routing, humans see why.
  const std::string during = SimpleGet(server_->http_port(), "/healthz");
  EXPECT_EQ(during.rfind("HTTP/1.1 503", 0), 0u) << during;
  EXPECT_NE(during.find("\"draining\": true"), std::string::npos) << during;

  stuck.Close();  // peer-gone cancels the request; the drain completes
  server_->Wait();
  ExpectOk(server_->Shutdown());
}

}  // namespace
}  // namespace smadb
