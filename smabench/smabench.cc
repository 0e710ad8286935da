// smabench — the smadb end-to-end benchmark.
//
// One process loads LINEITEM, defines the paper's Fig. 4 SMAs, starts an
// in-process net::Server on loopback, and drives one workload as a closed
// loop: every client connection sends a request line and waits for `OK`
// before sending the next. Every reply is checked against a reference
// answer computed at set-up with the forced GAggr o TableScan plan.
//
//   smabench --workload dashboard|adhoc_scan|ingest --seed N --seconds S
//            --trace 0|1 [--spans FILE] [--data-dir DIR]
//
// --trace 0 prints the end-to-end metrics. --trace 1 first runs the same
// untraced phase (for the tracing-overhead figure), then a traced phase in
// which each client replays every request in-process through the public
// calls (Session::Query, ParseQuery, Planner::Choose/Build, RunToCompletion,
// QueryResult::ToString), timing each, and prints the per-layer metrics.
// The last line of stdout is one JSON object with the run's result.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "db/database.h"
#include "db/session.h"
#include "db/sql.h"
#include "harness.h"
#include "net/server.h"
#include "planner/planner.h"
#include "tpch/dbgen.h"
#include "tpch/loader.h"
#include "util/string_util.h"

#ifndef SMABENCH_BUILD_TYPE
#define SMABENCH_BUILD_TYPE "unknown"
#endif

namespace smabench {
namespace {

using namespace smadb;  // NOLINT
using Clock = std::chrono::steady_clock;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "smabench: %s\n", what.c_str());
  std::exit(2);
}

void Check(const util::Status& s, const char* what) {
  if (!s.ok()) Die(std::string(what) + ": " + s.ToString());
}

template <typename T>
T Check(util::Result<T> r, const char* what) {
  Check(r.status(), what);
  return std::move(r).value();
}

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ----------------------------------------------------------------- options --

struct Args {
  WorkloadConfig workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
  std::string data_dir = ".";  // where the file backend keeps its files
};

// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupReps = 3;
// WAL group commit of the file backend: sync every 64 logged mutations.
constexpr size_t kWalSyncInterval = 64;

Args ParseArgs(int argc, char** argv) {
  Args a;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--spans") {
      a.spans_path = value;
    } else if (flag == "--data-dir") {
      a.data_dir = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  std::optional<WorkloadConfig> w = FindWorkload(workload);
  if (!w) Die("unknown --workload '" + workload + "'");
  if (a.seconds <= 0) Die("--seconds must be positive");
  a.workload = *w;
  return a;
}

// ------------------------------------------------------------------ set-up --

const char* const kFig4Smas[] = {
    "define sma max select max(l_shipdate) from lineitem",
    "define sma min select min(l_shipdate) from lineitem",
    "define sma count select count(*) from lineitem "
    "group by l_returnflag, l_linestatus",
    "define sma qty select sum(l_quantity) from lineitem "
    "group by l_returnflag, l_linestatus",
    "define sma dis select sum(l_discount) from lineitem "
    "group by l_returnflag, l_linestatus",
    "define sma ext select sum(l_extendedprice) from lineitem "
    "group by l_returnflag, l_linestatus",
    "define sma extdis select sum(l_extendedprice * (1.00 - l_discount)) "
    "from lineitem group by l_returnflag, l_linestatus",
    "define sma extdistax select sum(l_extendedprice * (1.00 - l_discount) "
    "* (1.00 + l_tax)) from lineitem group by l_returnflag, l_linestatus",
};

/// The loaded database plus everything derived from it at set-up.
struct Fixture {
  std::unique_ptr<db::Database> db;
  storage::Table* lineitem = nullptr;
  std::vector<QueryInstance> instances;
  std::vector<RowSet> refs;
  double sma_space_pct = 0;
  uint32_t table_pages = 0;
  uint64_t sma_pages = 0;
  std::string dir;  // file backend directory ("" = simulated)

  Fixture() = default;
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;
  ~Fixture() { Teardown(); }

  void Teardown() {
    db.reset();
    lineitem = nullptr;
    instances.clear();
    refs.clear();
    if (!dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
      dir.clear();
    }
  }
};

/// Parses `sql` against the table it names into an aggregation block.
plan::AggQuery ParseAgg(db::Database* db, const std::string& sql) {
  const std::string name = Check(db::ExtractTableName(sql), "table name");
  storage::Table* table = Check(db->GetTable(name), "table");
  db::ParsedQuery parsed = Check(db::ParseQuery(&table->schema(), sql), "parse");
  plan::AggQuery q;
  q.table = table;
  q.pred = parsed.pred;
  q.group_by = parsed.group_by;
  q.aggs = parsed.aggs;
  return q;
}

/// Fills the (torn-down) fixture `out`.
void Setup(const Args& args, Fixture* out) {
  const WorkloadConfig& w = args.workload;
  Fixture& f = *out;
  db::DatabaseOptions options;
  options.log.sink = nullptr;  // keep stdout/stderr for the benchmark
  if (w.file_backend) {
    f.dir = args.data_dir + util::Format("/smabench-%s-%d", w.name.c_str(),
                                   static_cast<int>(::getpid()));
    std::error_code ec;
    std::filesystem::remove_all(f.dir, ec);
    std::filesystem::create_directories(f.dir, ec);
    if (ec) Die("cannot create " + f.dir + ": " + ec.message());
    options.storage_backend = storage::BackendKind::kFile;
    options.storage_path = f.dir;
    options.wal_sync_interval = kWalSyncInterval;
    f.db = Check(db::Database::Open(std::move(options)), "open");
  } else {
    f.db = std::make_unique<db::Database>(std::move(options));
  }

  tpch::LoadOptions load;
  load.mode = tpch::ClusterMode::kDiagonal;
  load.seed = SubSeed(args.seed, 2);
  f.lineitem = Check(tpch::GenerateAndLoadLineItem(
                         f.db->catalog(),
                         {w.scale_factor, SubSeed(args.seed, 1)}, load),
                     "load lineitem");
  for (const char* stmt : kFig4Smas) Check(f.db->Execute(stmt), stmt);
  if (w.file_backend) Check(f.db->Checkpoint(), "checkpoint");

  sma::SmaSet* smas = Check(f.db->Smas("lineitem"), "smas");
  f.table_pages = f.lineitem->num_pages();
  f.sma_pages = smas->TotalPages();
  f.sma_space_pct = 100.0 * static_cast<double>(f.sma_pages) /
                    static_cast<double>(f.table_pages);

  // Reference answers: the forced full-scan plan, as experiment T3 checks.
  f.instances = MakeInstances(w, args.seed);
  plan::Planner planner(smas);
  for (const QueryInstance& inst : f.instances) {
    const plan::AggQuery q = ParseAgg(f.db.get(), inst.sql);
    auto op = Check(planner.Build(q, plan::PlanKind::kScanAggr), "build");
    plan::QueryResult r = Check(plan::RunToCompletion(op.get()), "reference");
    f.refs.push_back(ToRowSet(r.ToString()));
  }
}

// ------------------------------------------------------------- TCP client --

/// Blocking line-protocol client: sends one request line, collects the
/// reply lines up to the `OK`/`ERR` terminator.
class Client {
 public:
  Client() = default;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client() { Close(); }

  bool Connect(uint16_t port) {
    Close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval tv{60, 0};  // a reply slower than this counts as a timeout
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
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

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buf_.clear();
  }

  /// Sends `line` and reads the reply. Returns the terminator line (`OK`,
  /// `ERR ...`) or "" on disconnect/timeout; `body` gets the lines before it.
  std::string Request(const std::string& line, std::string* body) {
    body->clear();
    const std::string out = line + "\n";
    size_t off = 0;
    while (off < out.size()) {
      const ssize_t n =
          ::send(fd_, out.data() + off, out.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return "";
      off += static_cast<size_t>(n);
    }
    char chunk[16384];
    for (;;) {
      size_t nl;
      while ((nl = buf_.find('\n')) != std::string::npos) {
        std::string l = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        if (l == "OK" || l.rfind("ERR", 0) == 0) return l;
        *body += l;
        *body += '\n';
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

// ---------------------------------------------------------------- tracing --

struct Span {
  uint64_t trace_id;
  const char* name;
  const char* parent;
  double start_ms;  // since the run's time origin
  double end_ms;
};

/// One traced request's layer breakdown (times in ms).
struct LayerSample {
  size_t instance = 0;
  double request = 0, query = 0, parse = 0, choose = 0, build = 0, run = 0,
         render = 0;
  plan::PlanKind kind = plan::PlanKind::kScanAggr;
  double fetch_fraction = 0;
  uint64_t qualifying = 0, disqualifying = 0, ambivalent = 0;
  size_t dop = 1;
  uint64_t pool_hits = 0, pool_misses = 0, pool_evictions = 0;
  uint64_t page_reads = 0;
  double modeled_io_s = 0;
};

// Modeled seconds of the read traffic only (writes belong to the writer).
double ModeledReadSeconds(const storage::IoStats& d) {
  return storage::DiskModel().Seconds(d.sequential_reads, d.near_reads,
                                      d.random_reads);
}

// ------------------------------------------------------------ the driver --

struct ClientState {
  Client conn;
  std::unique_ptr<db::Session> session;  // in-process replays (traced)
  RequestStream stream;
  int index;
  // Per-phase outputs.
  std::vector<double> lat_ms;
  std::vector<size_t> lat_instance;  // parallel to lat_ms
  uint64_t attempted = 0, errors = 0;
  std::vector<LayerSample> layers;
  // Whole-run state.
  uint64_t sent = 0;   // numbers the trace ids
  uint64_t wrong = 0;  // wrong answers in any phase
  std::vector<Span> spans;
  std::string first_wrong;

  ClientState(size_t pool, uint64_t seed, int i)
      : stream(pool, seed, i), index(i) {}
  void ResetPhase() {
    lat_ms.clear();
    lat_instance.clear();
    attempted = errors = 0;
    layers.clear();
  }
};

class Driver {
 public:
  Driver(const Args& args, Fixture* f, uint16_t port)
      : args_(args), f_(f), port_(port), origin_(Clock::now()) {
    popts_ = f_->db->options().planner;
    popts_.degree_of_parallelism = args.workload.session_dop;
    smas_ = Check(f_->db->Smas("lineitem"), "smas");
    for (int i = 0; i < args.workload.clients; ++i) {
      auto c = std::make_unique<ClientState>(f_->instances.size(), args.seed,
                                             i);
      if (!c->conn.Connect(port_)) Die("cannot connect to the server");
      c->session = f_->db->CreateSession();
      if (args.workload.session_dop > 0) {
        const std::string set =
            util::Format("set dop = %zu", args.workload.session_dop);
        std::string body;
        if (c->conn.Request(set, &body) != "OK") Die("'" + set + "' failed");
        Check(c->session->Execute(set), "session set dop");
      }
      clients_.push_back(std::move(c));
    }
    if (args.workload.append_rows_per_s > 0) MakeAppendRows();
  }

  ~Driver() {
    std::string body;
    for (auto& c : clients_) c->conn.Request("quit", &body);
  }
  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  /// One pass over the instance pool, split across the clients. Returns the
  /// requests that failed.
  uint64_t WarmUp() {
    for (auto& c : clients_) c->ResetPhase();
    RunThreads([&](ClientState* c) {
      for (size_t i = static_cast<size_t>(c->index); i < f_->instances.size();
           i += clients_.size()) {
        Issue(c, i, /*traced=*/false);
      }
    });
    uint64_t errors = 0;
    for (const auto& c : clients_) errors += c->errors;
    return errors;
  }

  struct PhaseResult {
    double seconds = 0;
    std::vector<double> lat_ms;
    std::vector<size_t> lat_instance;
    uint64_t attempted = 0, errors = 0;
    std::vector<LayerSample> layers;
    storage::IoStats io;
    storage::LatchStats latch;
    uint64_t wal_syncs = 0;
    uint64_t appended = 0, append_errors = 0;
    std::vector<double> insert_us;

    /// Pools another phase's read samples and counts into this one.
    void Absorb(const PhaseResult& p) {
      seconds += p.seconds;
      lat_ms.insert(lat_ms.end(), p.lat_ms.begin(), p.lat_ms.end());
      lat_instance.insert(lat_instance.end(), p.lat_instance.begin(),
                          p.lat_instance.end());
      attempted += p.attempted;
      errors += p.errors;
      appended += p.appended;
      append_errors += p.append_errors;
    }
  };

  uint64_t WalSyncs() const {
    return f_->db->wal() == nullptr ? 0 : f_->db->wal()->stats().syncs;
  }

  /// A timed closed-loop phase of `seconds`, with the writer if any.
  PhaseResult Phase(bool traced, double seconds) {
    for (auto& c : clients_) c->ResetPhase();
    PhaseResult r;
    const storage::IoStats io0 = f_->db->disk()->stats();
    const storage::LatchStats latch0 = f_->lineitem->latches()->stats();
    const uint64_t syncs0 = WalSyncs();
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    std::atomic<bool> stop{false};
    std::thread writer;
    if (args_.workload.append_rows_per_s > 0) {
      writer = std::thread([&] { Append(traced, &stop, &r); });
    }
    RunThreads([&](ClientState* c) {
      while (Clock::now() < deadline) Issue(c, c->stream.Next(), traced);
    });
    r.seconds = std::chrono::duration<double>(Clock::now() - start).count();
    stop.store(true);
    if (writer.joinable()) writer.join();
    r.io = f_->db->disk()->stats() - io0;
    r.wal_syncs = WalSyncs() - syncs0;
    const storage::LatchStats latch1 = f_->lineitem->latches()->stats();
    r.latch.contended = latch1.contended - latch0.contended;
    r.latch.wait_ns = latch1.wait_ns - latch0.wait_ns;
    for (auto& c : clients_) {
      r.lat_ms.insert(r.lat_ms.end(), c->lat_ms.begin(), c->lat_ms.end());
      r.lat_instance.insert(r.lat_instance.end(), c->lat_instance.begin(),
                            c->lat_instance.end());
      r.layers.insert(r.layers.end(), c->layers.begin(), c->layers.end());
      r.attempted += c->attempted;
      r.errors += c->errors;
    }
    return r;
  }

  uint64_t wrong_total() const {
    uint64_t n = 0;
    for (const auto& c : clients_) n += c->wrong;
    return n;
  }
  std::string first_wrong() const {
    for (const auto& c : clients_) {
      if (!c->first_wrong.empty()) return c->first_wrong;
    }
    return "";
  }

  std::vector<Span> TakeSpans() {
    std::vector<Span> all;
    for (auto& c : clients_) {
      all.insert(all.end(), c->spans.begin(), c->spans.end());
      c->spans.clear();
    }
    return all;
  }

 private:
  template <typename Fn>
  void RunThreads(Fn fn) {
    std::vector<std::thread> threads;
    for (auto& c : clients_) {
      threads.emplace_back([&fn, c = c.get()] { fn(c); });
    }
    for (std::thread& t : threads) t.join();
  }

  double Now() const { return MsBetween(origin_, Clock::now()); }

  void NoteWrong(ClientState* c, size_t i, const std::string& where) {
    ++c->wrong;
    if (c->first_wrong.empty()) {
      c->first_wrong = where + " answer differs from the reference for: " +
                       f_->instances[i].sql;
    }
  }

  /// Sends instance `i` over TCP, checks the reply, and (traced) replays it
  /// in-process layer by layer.
  void Issue(ClientState* c, size_t i, bool traced) {
    const QueryInstance& inst = f_->instances[i];
    const uint64_t trace_id =
        (static_cast<uint64_t>(c->index + 1) << 40) | ++c->sent;
    std::string line = inst.sql;
    if (traced) {
      line = util::Format("trace %llx ",
                          static_cast<unsigned long long>(trace_id)) +
             inst.sql;
    }
    ++c->attempted;
    std::string body;
    const double t0 = Now();
    const std::string term = c->conn.Request(line, &body);
    const double t1 = Now();
    if (term != "OK") {
      ++c->errors;
      if (term.empty()) c->conn.Connect(port_);  // disconnect or timeout
      return;
    }
    if (ToRowSet(body) != f_->refs[i]) {
      NoteWrong(c, i, "TCP");
      return;
    }
    c->lat_ms.push_back(t1 - t0);
    c->lat_instance.push_back(i);
    if (!traced) return;

    LayerSample s;
    s.instance = i;
    s.request = t1 - t0;
    c->spans.push_back({trace_id, "net.request", "", t0, t1});

    // The whole engine call, as the server makes it.
    const double q0 = Now();
    auto whole = c->session->Query(line);
    const double q1 = Now();
    if (!whole.ok() || ToRowSet(whole->ToString()) != f_->refs[i]) {
      NoteWrong(c, i, "Session::Query");
      return;
    }
    s.query = q1 - q0;
    c->spans.push_back({trace_id, "db.query", "net.request", q0, q1});

    // Its public parts, one by one.
    const double p0 = Now();
    const plan::AggQuery q = ParseAgg(f_->db.get(), inst.sql);
    const double p1 = Now();
    plan::Planner planner(smas_, popts_);
    const plan::PlanChoice choice = Check(planner.Choose(q), "choose");
    const double p2 = Now();
    auto op = Check(planner.Build(q, choice.kind, choice.dop), "build");
    const double p3 = Now();
    const storage::PoolStats pool0 = f_->db->pool()->stats();
    const storage::IoStats io0 = f_->db->disk()->stats();
    const double p4 = Now();
    plan::QueryResult result = Check(plan::RunToCompletion(op.get()), "run");
    const double p5 = Now();
    const storage::PoolStats pool1 = f_->db->pool()->stats();
    const storage::IoStats io = f_->db->disk()->stats() - io0;
    const std::string text = result.ToString();
    const double p6 = Now();
    if (ToRowSet(text) != f_->refs[i]) {
      NoteWrong(c, i, "in-process replay");
      return;
    }
    s.parse = p1 - p0;
    s.choose = p2 - p1;
    s.build = p3 - p2;
    s.run = p5 - p4;
    s.render = p6 - p5;
    s.kind = choice.kind;
    s.fetch_fraction = choice.fetch_fraction;
    s.qualifying = choice.qualifying;
    s.disqualifying = choice.disqualifying;
    s.ambivalent = choice.ambivalent;
    s.dop = choice.dop;
    s.pool_hits = pool1.hits - pool0.hits;
    s.pool_misses = pool1.misses - pool0.misses;
    s.pool_evictions = pool1.evictions - pool0.evictions;
    s.page_reads = io.page_reads;
    s.modeled_io_s = ModeledReadSeconds(io);
    c->spans.push_back({trace_id, "db.parse", "db.query", p0, p1});
    c->spans.push_back({trace_id, "planner.choose", "db.query", p1, p2});
    c->spans.push_back({trace_id, "planner.build", "db.query", p2, p3});
    c->spans.push_back({trace_id, "exec.run", "db.query", p4, p5});
    c->spans.push_back({trace_id, "db.render", "net.request", p5, p6});
    c->layers.push_back(s);
  }

  /// The rows the writer cycles through: seeded LINEITEM rows re-dated to
  /// December 1998, after every read window.
  void MakeAppendRows() {
    std::vector<tpch::OrderRow> orders;
    std::vector<tpch::LineItemRow> items;
    tpch::Dbgen gen({0.002, SubSeed(args_.seed, 4)});
    gen.GenOrdersAndLineItems(&orders, &items);
    const util::Date first = util::Date::FromYmd(1998, 12, 2);
    for (size_t k = 0; k < items.size(); ++k) {
      items[k].shipdate = first.AddDays(static_cast<int32_t>(k % 29));
      rows_.push_back(tpch::LineItemTuple(&f_->lineitem->schema(), items[k]));
    }
  }

  /// The ingest writer: appends rows at the workload's offered rate until
  /// `stop`.
  void Append(bool traced, const std::atomic<bool>* stop, PhaseResult* r) {
    std::unique_ptr<db::Session> session = f_->db->CreateSession();
    // Open loop at a fixed offered rate: the k-th row is due k/rate seconds
    // into the phase; a writer that falls behind appends back to back.
    const double rate = args_.workload.append_rows_per_s;
    const Clock::time_point start = Clock::now();
    size_t k = 0;
    while (!stop->load(std::memory_order_relaxed)) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(double(k) / rate));
      if (Clock::now() < due) {
        std::this_thread::sleep_until(std::min(
            due, Clock::now() + std::chrono::milliseconds(1)));
        continue;
      }
      const Clock::time_point t0 = Clock::now();
      const util::Status st =
          session->Insert("lineitem", rows_[k++ % rows_.size()]);
      if (traced) {
        r->insert_us.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - t0)
                .count());
      }
      if (!st.ok()) {
        ++r->append_errors;
        std::fprintf(stderr, "smabench: append failed: %s\n",
                     st.ToString().c_str());
        return;
      }
      ++r->appended;
    }
  }

  const Args& args_;
  Fixture* f_;
  uint16_t port_;
  const Clock::time_point origin_;
  plan::PlannerOptions popts_;
  sma::SmaSet* smas_ = nullptr;
  std::vector<std::unique_ptr<ClientState>> clients_;
  std::vector<storage::TupleBuffer> rows_;
};

// ---------------------------------------------------------------- output --

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Resident set size now, in MB (0 when /proc is unavailable).
double CurrentRssMb() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  if (!(statm >> size >> resident)) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// Samples the resident set every 10 ms while alive: the peak memory of
/// the serving phase, apart from the transient buffers of data generation.
class RssSampler {
 public:
  RssSampler() : thread_([this] { Loop(); }) {}
  ~RssSampler() { Stop(); }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  /// Stops sampling and returns the peak seen.
  double Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    return peak_mb_;
  }

 private:
  void Loop() {
    while (!stop_.load()) {
      peak_mb_ = std::max(peak_mb_, CurrentRssMb());
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    peak_mb_ = std::max(peak_mb_, CurrentRssMb());
  }

  std::atomic<bool> stop_{false};
  double peak_mb_ = 0;  // written by the sampler thread until joined
  std::thread thread_;  // last: starts after the members it uses
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = util::Format(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            FormatNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void PrintMetricTable(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

template <typename Fn>
std::vector<double> Column(const std::vector<LayerSample>& v, Fn fn) {
  std::vector<double> out;
  out.reserve(v.size());
  for (const LayerSample& s : v) out.push_back(fn(s));
  return out;
}

bool IsSmaPlan(plan::PlanKind k) {
  return k == plan::PlanKind::kSmaGAggr || k == plan::PlanKind::kSmaScanAggr;
}

/// The per-layer metrics of a traced phase, printed as a table of medians
/// (with quartiles and sample counts) and returned for the JSON line.
std::vector<Metric> LayerMetrics(const Driver::PhaseResult& r,
                                 double untraced_p50,
                                 const std::vector<QueryInstance>& instances) {
  const auto& L = r.layers;
  struct Row {
    const char* name;
    const char* unit;
    std::vector<double> v;
  };
  std::vector<Row> rows = {
      {"net.request_ms", "ms", Column(L, [](auto& s) { return s.request; })},
      {"net.overhead_ms", "ms",
       Column(L, [](auto& s) { return s.request - s.query; })},
      {"db.query_ms", "ms", Column(L, [](auto& s) { return s.query; })},
      {"db.overhead_ms", "ms",
       Column(L,
              [](auto& s) {
                return s.query - s.parse - s.choose - s.build - s.run;
              })},
      {"db.parse_ms", "ms", Column(L, [](auto& s) { return s.parse; })},
      {"planner.choose_ms", "ms", Column(L, [](auto& s) { return s.choose; })},
      {"planner.build_ms", "ms", Column(L, [](auto& s) { return s.build; })},
      {"exec.run_ms", "ms", Column(L, [](auto& s) { return s.run; })},
      {"db.render_ms", "ms", Column(L, [](auto& s) { return s.render; })},
      {"planner.fetch_fraction", "ratio",
       Column(L, [](auto& s) { return s.fetch_fraction; })},
      {"planner.buckets_qualifying", "count",
       Column(L, [](auto& s) { return double(s.qualifying); })},
      {"planner.buckets_disqualifying", "count",
       Column(L, [](auto& s) { return double(s.disqualifying); })},
      {"planner.buckets_ambivalent", "count",
       Column(L, [](auto& s) { return double(s.ambivalent); })},
      {"planner.dop", "count", Column(L, [](auto& s) { return double(s.dop); })},
      {"storage.pool_misses", "count",
       Column(L, [](auto& s) { return double(s.pool_misses); })},
      {"storage.pool_evictions", "count",
       Column(L, [](auto& s) { return double(s.pool_evictions); })},
      {"storage.page_reads", "count",
       Column(L, [](auto& s) { return double(s.page_reads); })},
      {"storage.modeled_io_s", "s",
       Column(L, [](auto& s) { return s.modeled_io_s; })},
      {"exec.pages_per_ms", "pages/ms", Column(L, [](auto& s) {
         return s.run > 0 ? double(s.pool_hits + s.pool_misses) / s.run : 0.0;
       })},
  };

  std::printf("\nper-layer breakdown, %zu traced requests "
              "(median [q1, q3] per request):\n",
              L.size());
  std::vector<Metric> out;
  for (Row& row : rows) {
    const double med = Median(row.v);
    if (row.v.size() >= 2) {
      const auto q = Quartiles(row.v);
      std::printf("  %-30s %12.5g [%.5g, %.5g] %s  n=%zu\n", row.name, med,
                  q[0], q[2], row.unit, row.v.size());
    }
    out.push_back({row.name, med, row.unit});
  }

  // The identity the breakdown rests on, checked on means (medians of a
  // sum need not add up): net + db overhead + parse + choose + build + run
  // equals the request time, request by request.
  double sum_parts = 0, sum_request = 0;
  for (const LayerSample& s : L) {
    sum_parts += (s.request - s.query) +
                 (s.query - s.parse - s.choose - s.build - s.run) + s.parse +
                 s.choose + s.build + s.run;
    sum_request += s.request;
  }
  const double n = std::max<double>(1, L.size());
  std::printf("  layer sum check (means): parts %.6f ms = request %.6f ms\n",
              sum_parts / n, sum_request / n);

  uint64_t hits = 0, misses = 0, sma_plans = 0;
  for (const LayerSample& s : L) {
    hits += s.pool_hits;
    misses += s.pool_misses;
    sma_plans += IsSmaPlan(s.kind) ? 1 : 0;
  }
  const double traced_p50 = Median(Column(L, [](auto& s) { return s.request; }));
  std::vector<Metric> extra = {
      {"planner.sma_plan_share", L.empty() ? 0.0 : double(sma_plans) / n,
       "ratio"},
      {"storage.pool_hit_ratio",
       hits + misses == 0 ? 0.0 : double(hits) / double(hits + misses),
       "ratio"},
      {"storage.page_writes", double(r.io.page_writes), "count"},
      {"storage.wal_syncs", double(r.wal_syncs), "count"},
      {"storage.latch_contended", double(r.latch.contended), "count"},
      {"storage.latch_wait_ms", double(r.latch.wait_ns) / 1e6, "ms"},
      {"db.insert_us_p50", Median(r.insert_us), "us"},
      {"db.insert_us_p99", Percentile(r.insert_us, 0.99), "us"},
      {"db.append_rows_per_s", double(r.appended) / r.seconds, "rows/s"},
      {"trace.overhead_pct",
       untraced_p50 > 0 ? 100.0 * (traced_p50 / untraced_p50 - 1.0) : 0.0,
       "%"},
  };
  std::printf("  phase totals:\n");
  PrintMetricTable(extra);
  out.insert(out.end(), extra.begin(), extra.end());
  std::printf("  tracing overhead: traced net.request_ms p50 %.4f ms vs "
              "untraced query_p50_ms %.4f ms\n",
              traced_p50, untraced_p50);

  // Where each query class goes: plan, pruning, and cost.
  std::map<std::string, std::vector<const LayerSample*>> by_class;
  for (const LayerSample& s : L) by_class[instances[s.instance].cls].push_back(&s);
  std::printf("\nper query class (medians):\n  %-8s %6s %-14s %8s %10s %10s "
              "%10s\n",
              "class", "n", "plan", "fetch", "request", "choose", "run");
  for (const auto& [cls, v] : by_class) {
    std::vector<double> req, fetch, choose, run;
    std::map<std::string, int> kinds;
    for (const LayerSample* s : v) {
      req.push_back(s->request);
      fetch.push_back(s->fetch_fraction);
      choose.push_back(s->choose);
      run.push_back(s->run);
      ++kinds[std::string(plan::PlanKindToString(s->kind))];
    }
    std::string plans;
    for (const auto& [k, cnt] : kinds) {
      plans += (plans.empty() ? "" : ",") + k;
    }
    std::printf("  %-8s %6zu %-14s %8.4f %10.4f %10.4f %10.4f\n", cls.c_str(),
                v.size(), plans.c_str(), Median(fetch), Median(req),
                Median(choose), Median(run));
  }
  return out;
}

/// Untraced latency per query class: how the mix makes up the percentiles.
void PrintClassLatencies(const Driver::PhaseResult& u,
                         const std::vector<QueryInstance>& instances) {
  std::map<std::string, std::vector<double>> by_class;
  for (size_t k = 0; k < u.lat_ms.size(); ++k) {
    by_class[instances[u.lat_instance[k]].cls].push_back(u.lat_ms[k]);
  }
  for (const auto& [cls, v] : by_class) {
    std::printf("  %-8s n=%-6zu p50 %9.4f ms  p95 %9.4f ms\n", cls.c_str(),
                v.size(), Median(v), Percentile(v, 0.95));
  }
}

/// The untraced phase in text: percentiles with their support, error rate,
/// append rate, and latency per query class.
void PrintUntraced(const Driver::PhaseResult& u,
                   const std::vector<QueryInstance>& instances,
                   bool appends) {
  const size_t n = u.lat_ms.size();
  std::printf(
      "\nuntraced: %zu reads in %.3f s (%s supported), p50 %.4f ms, p95 "
      "%.4f ms, p99 %.4f ms, error_rate %.6f",
      n, u.seconds, SupportedPercentile(n).c_str(), Median(u.lat_ms),
      Percentile(u.lat_ms, 0.95), Percentile(u.lat_ms, 0.99),
      u.attempted == 0 ? 0.0 : double(u.errors) / double(u.attempted));
  if (appends) {
    std::printf(", append_rows_per_s %.1f (%llu rows)",
                double(u.appended) / u.seconds,
                static_cast<unsigned long long>(u.appended));
  }
  std::printf("\n");
  PrintClassLatencies(u, instances);
}

void WriteSpans(const std::string& path, const Args& args,
                const std::vector<Span>& spans) {
  if (path.empty()) return;
  std::error_code ec;
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path(), ec);
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "smabench: cannot write spans to %s\n", path.c_str());
    return;
  }
  out << "{\"workload\": \"" << args.workload.name << "\", \"seed\": "
      << args.seed << ", \"spans\": " << spans.size() << "}\n";
  for (const Span& s : spans) {
    out << util::Format(
        "{\"trace\": \"%llx\", \"name\": \"%s\", \"parent\": \"%s\", "
        "\"start_ms\": %.6f, \"end_ms\": %.6f}\n",
        static_cast<unsigned long long>(s.trace_id), s.name, s.parent,
        s.start_ms, s.end_ms);
  }
  std::printf("wrote %zu spans to %s\n", spans.size(), path.c_str());
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const WorkloadConfig& w = args.workload;
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const size_t effective_dop = w.session_dop == 0 ? nproc : w.session_dop;
  const size_t server_workers = net::ServerOptions().worker_threads;

  std::printf(
      "smabench: workload=%s seed=%llu seconds=%g trace=%d\n"
      "  sf=%g clustering=diagonal(lag sigma 15 d) pool_frames=%zu "
      "backend=%s%s\n"
      "  clients=%d session_dop=%s server_workers=%zu nproc=%u "
      "build=%s\n",
      w.name.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, w.scale_factor, db::DatabaseOptions().pool_pages,
      w.file_backend ? "file" : "simulated",
      w.file_backend
          ? util::Format(" wal_sync_interval=%zu", kWalSyncInterval).c_str()
          : "",
      w.clients,
      w.session_dop == 0 ? util::Format("auto(%zu)", effective_dop).c_str()
                         : std::to_string(w.session_dop).c_str(),
      server_workers, nproc, SMABENCH_BUILD_TYPE);
  if (static_cast<size_t>(w.clients) * effective_dop > nproc) {
    std::printf("  WARNING: clients x dop = %zu exceeds nproc = %u\n",
                static_cast<size_t>(w.clients) * effective_dop, nproc);
  }
  std::fflush(stdout);

  // Untraced runs set up kSetupReps times (traced runs once) and measure on
  // the last set-up, or on a share of the time on each set-up where the
  // workload asks for it (see WorkloadConfig::serve_every_setup).
  const int setups = args.trace ? 1 : kSetupReps;
  const int segments = w.serve_every_setup ? setups : 1;
  std::vector<double> setup_s;
  Driver::PhaseResult u;  // every segment's untraced samples, pooled
  double modeled_read_s = 0, serving_rss_mb = 0;
  uint64_t failed = 0, wrong = 0;
  uint64_t attempted = 0;
  std::string first_wrong;
  std::vector<Metric> metrics;
  Fixture f;
  for (int seg = 0; seg < setups; ++seg) {
    f.Teardown();
    const Clock::time_point t0 = Clock::now();
    Setup(args, &f);
    setup_s.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
    std::printf("setup %d: %u LINEITEM pages, %llu SMA pages (%.3f %%), "
                "%zu query instances, %.3f s\n",
                seg + 1, f.table_pages,
                static_cast<unsigned long long>(f.sma_pages), f.sma_space_pct,
                f.instances.size(), setup_s.back());
    std::fflush(stdout);
    if (seg < setups - segments) continue;

    net::ServerOptions sopts;
    sopts.port = 0;
    sopts.enable_http = false;
    sopts.checkpoint_on_drain = false;
    net::Server server(f.db.get(), sopts);
    Check(server.Start(), "server start");
    {
      Driver driver(args, &f, server.port());
      RssSampler rss;
      failed += driver.WarmUp();
      const Driver::PhaseResult p =
          driver.Phase(/*traced=*/false, args.seconds / segments);
      serving_rss_mb = std::max(serving_rss_mb, rss.Stop());
      modeled_read_s += ModeledReadSeconds(p.io);
      u.Absorb(p);
      if (seg == setups - 1) {
        PrintUntraced(u, f.instances, w.append_rows_per_s > 0);
      }
      if (args.trace) {
        const Driver::PhaseResult t =
            driver.Phase(/*traced=*/true, args.seconds);
        std::printf("\ntraced: %llu requests in %.3f s\n",
                    static_cast<unsigned long long>(t.attempted), t.seconds);
        metrics = LayerMetrics(t, Median(u.lat_ms), f.instances);
        attempted += t.attempted;
        failed += t.errors + t.append_errors;
        WriteSpans(args.spans_path, args, driver.TakeSpans());
      }
      wrong += driver.wrong_total();
      if (first_wrong.empty()) first_wrong = driver.first_wrong();
    }
    Check(server.Shutdown(), "server shutdown");
  }
  const double sma_space_pct = f.sma_space_pct;
  f.Teardown();

  const size_t n = u.lat_ms.size();
  attempted += u.attempted;
  failed += u.errors + u.append_errors;
  if (!args.trace) {
    metrics = {
        {"query_p50_ms", Median(u.lat_ms), "ms"},
        {"query_p95_ms", Percentile(u.lat_ms, 0.95), "ms"},
        {"queries_per_s", double(n) / u.seconds, "1/s"},
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", serving_rss_mb, "MB"},
        {"sma_space_pct", sma_space_pct, "%"},
        {"modeled_io_s_per_query", n == 0 ? 0.0 : modeled_read_s / double(n),
         "s"},
    };
    std::printf("end-to-end metrics:\n");
    PrintMetricTable(metrics);
  }
  bool correct = true;
  if (wrong > 0) {
    correct = false;
    std::fprintf(stderr, "smabench: %llu wrong answers; first: %s\n",
                 static_cast<unsigned long long>(wrong), first_wrong.c_str());
  }
  if (n == 0) {
    correct = false;
    std::fprintf(stderr, "smabench: no request completed\n");
  }
  PrintResult(correct, std::max<uint64_t>(attempted, 1), failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace smabench

int main(int argc, char** argv) { return smabench::Main(argc, argv); }
