// net::Server — the hardened network serving layer (DESIGN.md §15).
//
// The engine underneath (sessions, latches, governor, WAL) is built to
// degrade gracefully; this file gives the TCP surface the same treatment.
// One poll()-driven I/O thread owns every socket and all connection state;
// a bounded worker pool executes one request at a time per connection.
// There are no detached threads anywhere: Start() spawns, Shutdown() joins.
//
// Per-connection lifecycle robustness:
//   * bounded input: a request line longer than max_line_bytes yields a
//     typed `ERR request too long` and the overflow is discarded — the
//     buffer can never grow past max_line_bytes + one recv chunk;
//   * read/idle deadline: a connection silent for idle_timeout_ms is sent
//     `ERR idle timeout` (best effort) and closed;
//   * write deadline with backpressure: responses are streamed with
//     block-with-deadline semantics — a reader that stops draining stalls
//     its own connection only, and past write_timeout_ms it is
//     disconnected. Nothing is ever queued unboundedly;
//   * dead-client cancellation: while a request is in flight the I/O
//     thread keeps polling the socket for hangup (POLLRDHUP/POLLERR); a
//     vanished client trips the request's CancelToken, so its query dies
//     at the next governor checkpoint instead of running to completion;
//   * connection cap: accepts beyond max_connections are shed at accept
//     time with `ERR busy` (an AdmissionController with a zero-depth
//     queue — the same shed-don't-hang semantics queries get);
//   * graceful drain: RequestShutdown() (async-signal-safe) stops the
//     accept loop, closes idle connections with `ERR server draining`,
//     lets in-flight requests finish until drain_timeout_ms, then cancels
//     their tokens and shuts the sockets down. Shutdown() joins every
//     thread and (by default) checkpoints the database via Close().
//
// Chaos failpoints (util/fault.h): "net.accept", "net.recv", "net.send"
// fire at the corresponding syscall sites so tests can kill sockets
// mid-request deterministically. Partial writes, EINTR, and EPIPE are
// handled on every path (sends use MSG_NOSIGNAL; no SIGPIPE anywhere).
//
// Protocol (newline-delimited text, one statement per line):
//   any statement      -> parsed once by db::ParseStatement and run with
//                         Session::Run: result table lines (select,
//                         explain, show, scrub) then `OK`, a bare `OK`
//                         (set, define sma, kill query), or `ERR <message>`
//   ping               -> `OK`
//   health             -> one status line (read_only/draining/sessions/
//                         connections), then `OK`
//   quit (or EOF)      -> connection closes
// Error lines are typed: `ERR busy`, `ERR request too long`,
// `ERR idle timeout`, `ERR server draining`, `ERR <engine status>`.
//
// Telemetry plane (DESIGN.md §16): every statement carries a 64-bit
// trace id — taken from a client-supplied `trace <hex>` statement prefix
// or minted here and set on the parsed statement — that shows up in the
// structured request log, in every TraceSpan the query records, and in its
// profile. A second in-loop HTTP listener serves GET /metrics, /healthz,
// /statusz, /debug/queries and /debug/trace for scrapers and humans; it
// is deliberately outside max_connections so a saturated server can still
// be observed, and it keeps answering (/healthz says "draining", 503)
// during drain.

#ifndef SMADB_NET_SERVER_H_
#define SMADB_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "db/admission.h"
#include "db/database.h"
#include "db/session.h"
#include "obs/metrics.h"
#include "util/query_context.h"
#include "util/status.h"

namespace smadb::net {

struct ServerOptions {
  /// Listen address (IPv4 dotted quad). Loopback by default — this is an
  /// analytics engine, not an internet-facing daemon.
  std::string host = "127.0.0.1";
  /// 0 = kernel-assigned ephemeral port; Server::port() reports the bound
  /// one (how tests avoid fixed-port collisions).
  uint16_t port = 7878;
  int listen_backlog = 64;
  /// Bounded pool executing requests; also the max number of concurrently
  /// running requests (one per connection at a time).
  size_t worker_threads = 4;
  /// Connections beyond this are shed at accept time with `ERR busy`;
  /// 0 = unbounded.
  size_t max_connections = 64;
  /// Longest accepted request line; longer ones get `ERR request too long`
  /// and the excess is discarded up to the next newline.
  size_t max_line_bytes = 64 * 1024;
  /// Close connections silent for this long (`ERR idle timeout`); 0 = off.
  int64_t idle_timeout_ms = 300'000;
  /// Per-response send budget: a reader that stops draining its socket is
  /// disconnected after blocking a worker this long; 0 = block forever.
  int64_t write_timeout_ms = 10'000;
  /// Drain budget: in-flight requests get this long to finish after
  /// RequestShutdown() before their cancel tokens trip.
  int64_t drain_timeout_ms = 5'000;
  /// Checkpoint (Database::Close) at the end of Shutdown(), so SIGTERM
  /// leaves a clean directory that recovery replays nothing from.
  bool checkpoint_on_drain = true;
  /// When > 0, shrink each accepted socket's kernel send buffer
  /// (SO_SNDBUF). A chaos-test hook: with a few-KiB buffer a stalled
  /// reader trips the write deadline on modest results instead of needing
  /// megabytes in flight. 0 = kernel default.
  int sndbuf_bytes = 0;
  /// Per-connection connect/close lines at INFO instead of DEBUG (the
  /// example binary's -v; all connection logging goes through the
  /// database's structured Logger).
  bool verbose = false;

  // --- telemetry plane (DESIGN.md §16) -------------------------------------
  /// Serve the embedded HTTP observability endpoint (GET /metrics,
  /// /healthz, /statusz, /debug/queries, /debug/trace) on a second
  /// listener inside the same poll loop. Out-of-band by construction: HTTP
  /// connections are not subject to max_connections, so a server saturated
  /// with query traffic can still be scraped.
  bool enable_http = true;
  /// HTTP port; 0 = kernel-assigned ephemeral (see http_port()).
  uint16_t http_port = 0;
  /// Hard cap on concurrent HTTP connections (scrapers are few; anything
  /// past the cap is closed without a response).
  size_t http_max_connections = 16;
  /// Per-HTTP-request budget: a connection that has neither delivered a
  /// full request nor drained its response within this window is closed.
  int64_t http_timeout_ms = 5'000;
};

/// Lifetime: construct, Start(), [serve...], Shutdown() (or let the
/// destructor call it). The Database must outlive the Server. All public
/// methods except RequestShutdown() must be called from one controlling
/// thread (main); RequestShutdown() may be called from any thread or from
/// a signal handler.
class Server {
 public:
  Server(db::Database* db, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the I/O thread plus the worker pool.
  util::Status Start();

  /// The bound port (after Start(); useful with options.port == 0).
  uint16_t port() const { return port_; }

  /// The bound HTTP observability port (0 when enable_http is false).
  uint16_t http_port() const { return http_port_; }

  /// Flags the server to drain. Async-signal-safe: one atomic store plus a
  /// self-pipe write. Returns immediately; pair with Wait()/Shutdown().
  void RequestShutdown();

  /// Blocks until the I/O loop has fully drained (all connections closed,
  /// all requests finished or cancelled). Does not join threads.
  void Wait();

  /// Drains (if not already draining) and joins every thread, then
  /// checkpoints the database (options.checkpoint_on_drain). Idempotent.
  util::Status Shutdown();

  /// Live connection count (gauge view for tests and `health`).
  size_t connections_active() const {
    return connections_active_.load(std::memory_order_acquire);
  }

  /// Monotonic totals for tests (mirrored into the metrics registry as
  /// smadb_net_*).
  struct Stats {
    uint64_t connections_total = 0;
    uint64_t requests_total = 0;
    uint64_t bytes_in = 0;
    uint64_t bytes_out = 0;
    uint64_t shed = 0;            ///< accepts refused with `ERR busy`
    uint64_t overflows = 0;       ///< lines refused with `ERR request too long`
    uint64_t idle_timeouts = 0;   ///< connections closed for silence
    uint64_t write_timeouts = 0;  ///< connections dropped mid-send
    uint64_t peer_disconnect_cancels = 0;  ///< queries cancelled, client gone
    uint64_t drain_cancels = 0;   ///< queries cancelled at the drain deadline
    uint64_t http_requests = 0;   ///< HTTP observability requests served
  };
  Stats stats() const;

 private:
  struct Conn;
  struct HttpConn;
  /// Connection table + drain state. Lives on the IoLoop stack and is
  /// touched only by the I/O thread — no locking by construction.
  struct IoState;

  // --- I/O thread ----------------------------------------------------------
  void IoLoop();
  void HandleAccept();
  /// Reads what the socket has, enforces the line cap, and dispatches at
  /// most one request (per-connection serialization). Returns false when
  /// the connection should close now.
  bool HandleReadable(Conn* c);
  /// Parses the next complete line out of c->in and dispatches it (or
  /// handles it inline: quit). Returns false to close the connection.
  bool PumpRequests(Conn* c);
  void DispatchToWorker(Conn* c);
  void CloseConn(int fd, const char* why);
  /// Best-effort, non-blocking single send for I/O-thread-side typed
  /// errors (`ERR busy`, `ERR idle timeout`, `ERR server draining`).
  void TrySendLine(int fd, const char* line);
  void EnterDrain();

  // --- HTTP observability endpoint (I/O thread only) -----------------------
  void HandleHttpAccept();
  /// Advances one HTTP connection (read request / write response). Returns
  /// false when the connection should close now.
  bool HandleHttp(HttpConn* hc, short revents);
  void CloseHttpConn(int fd);
  /// Routes one parsed request to its handler and returns the full HTTP
  /// response bytes.
  std::string RouteHttp(std::string_view method, std::string_view path);
  /// Mints a fresh nonzero request trace id.
  uint64_t MintTraceId();

  // --- worker pool ---------------------------------------------------------
  void WorkerLoop();
  void ProcessRequest(Conn* c);
  /// Streams `data` with MSG_NOSIGNAL, EINTR/partial-write handling, and
  /// block-with-deadline backpressure. False = send failed / timed out
  /// (the connection is marked for close).
  bool SendAll(Conn* c, const std::string& data);
  bool SendLine(Conn* c, const std::string& line);

  db::Database* const db_;
  const ServerOptions options_;
  db::AdmissionController conn_admission_;  // shed-at-accept, queue depth 0

  int listener_ = -1;
  uint16_t port_ = 0;
  int http_listener_ = -1;
  uint16_t http_port_ = 0;
  std::atomic<uint64_t> trace_counter_{0};
  uint64_t trace_seed_ = 0;      // mixed into minted trace ids (set at Start)
  int wake_pipe_[2] = {-1, -1};  // [0] read (I/O thread), [1] write (anyone)
  IoState* io_ = nullptr;        // valid only while IoLoop runs

  std::thread io_thread_;
  std::vector<std::thread> workers_;

  // Worker queue: connections with a parsed request waiting for a worker.
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Conn*> queue_;
  bool workers_stop_ = false;

  // Completions: workers hand connections back to the I/O thread here.
  std::mutex done_mu_;
  std::deque<Conn*> done_;

  std::atomic<bool> started_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> drained_{false};
  bool joined_ = false;  // controlling thread only
  std::mutex drained_mu_;
  std::condition_variable drained_cv_;

  std::atomic<size_t> connections_active_{0};
  std::atomic<uint64_t> next_conn_id_{1};

  // Stats mirrors (atomics so tests can read while the server runs).
  struct {
    std::atomic<uint64_t> connections_total{0};
    std::atomic<uint64_t> requests_total{0};
    std::atomic<uint64_t> bytes_in{0};
    std::atomic<uint64_t> bytes_out{0};
    std::atomic<uint64_t> shed{0};
    std::atomic<uint64_t> overflows{0};
    std::atomic<uint64_t> idle_timeouts{0};
    std::atomic<uint64_t> write_timeouts{0};
    std::atomic<uint64_t> peer_disconnect_cancels{0};
    std::atomic<uint64_t> drain_cancels{0};
    std::atomic<uint64_t> http_requests{0};
  } n_;

  // Registry instruments (always registered; the registry outlives us
  // because the Database does).
  struct {
    obs::Gauge* connections_active = nullptr;
    obs::Counter* connections_total = nullptr;
    obs::Counter* requests_total = nullptr;
    obs::Counter* bytes_in = nullptr;
    obs::Counter* bytes_out = nullptr;
    obs::Counter* shed = nullptr;
    obs::Counter* overflows = nullptr;
    obs::Counter* idle_timeouts = nullptr;
    obs::Counter* write_timeouts = nullptr;
    obs::Counter* peer_cancels = nullptr;
    obs::Counter* http_requests = nullptr;
    obs::Histogram* request_latency_us = nullptr;
  } m_;
};

}  // namespace smadb::net

#endif  // SMADB_NET_SERVER_H_
