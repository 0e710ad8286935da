#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "db/statement.h"
#include "util/fault.h"
#include "util/string_util.h"

// POLLRDHUP (peer shut down its write side) is the hangup signal that lets
// the I/O thread notice a dead client *while a request is in flight* —
// plain POLLHUP only fires after both directions are gone. Linux-specific;
// on platforms without it the fallback is "no early cancel", never a miss:
// the send path still detects the death via EPIPE.
#ifndef POLLRDHUP
#define POLLRDHUP 0
#endif

namespace smadb::net {

using util::Status;

namespace {

using Clock = std::chrono::steady_clock;

/// Minimal JSON string escaping for /healthz reason text.
std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          out += util::Format("\\u%04x", ch);
        } else {
          out += ch;
        }
    }
  }
  return out;
}

/// One full HTTP/1.1 response with Connection: close framing (the endpoint
/// serves exactly one request per connection; scrapers reconnect).
std::string HttpResponse(int code, const char* reason,
                         const char* content_type, const std::string& body) {
  std::string r = util::Format(
      "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %zu\r\n"
      "Connection: close\r\n\r\n",
      code, reason, content_type, body.size());
  r += body;
  return r;
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IOError(std::string("fcntl O_NONBLOCK: ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

/// Binds + listens a non-blocking IPv4 TCP socket; reports the bound port
/// (for port 0). Returns -1 with *status set on failure.
int OpenListener(const std::string& host, uint16_t port, int backlog,
                 uint16_t* bound_port, Status* status) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *status = Status::IOError(std::string("socket: ") + std::strerror(errno));
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    *status = Status::InvalidArgument("bad listen address: " + host);
    return -1;
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, backlog) < 0) {
    *status =
        Status::IOError(std::string("bind/listen: ") + std::strerror(errno));
    ::close(fd);
    return -1;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    *bound_port = ntohs(bound.sin_port);
  }
  if (Status st = SetNonBlocking(fd); !st.ok()) {
    ::close(fd);
    *status = st;
    return -1;
  }
  *status = Status::OK();
  return fd;
}

}  // namespace

/// Per-connection state. Owned by the I/O thread; a worker borrows the
/// connection between dispatch (queue_mu_ hand-off) and completion
/// (done_mu_ hand-back), so plain fields are safely published by the queue
/// mutexes. The few fields both sides touch concurrently — the hangup flag
/// the I/O thread raises mid-request and the send-failure flag the worker
/// raises mid-send — are atomics.
struct Server::Conn {
  int fd = -1;
  uint64_t id = 0;
  std::unique_ptr<db::Session> session;
  db::AdmissionController::Slot slot;  // one max_connections unit

  /// Input buffer. Bounded: PumpRequests() tips anything growing past
  /// max_line_bytes without a newline into discard mode, so the high-water
  /// mark is max_line_bytes + one recv chunk.
  std::string in;
  bool discarding = false;  ///< dropping an oversized line up to its '\n'

  bool running = false;     ///< a request is on (or queued for) a worker
  std::string request;      ///< the line being executed
  bool oversized = false;   ///< respond `ERR request too long` instead
  /// Fresh token per request; the I/O thread cancels it when the peer
  /// vanishes or the drain deadline fires.
  std::shared_ptr<util::CancelToken> token;
  Clock::time_point dispatched_at{};

  Clock::time_point last_activity{};

  std::atomic<bool> peer_gone{false};    ///< hangup seen while running
  std::atomic<bool> send_failed{false};  ///< response truncated: must close
};

/// One HTTP observability connection (DESIGN.md §16). Owned and touched by
/// the I/O thread only: requests are parsed and answered inline in the poll
/// loop (every handler renders from thread-safe snapshots, so the loop
/// stalls for microseconds, not query-times). One request per connection.
struct Server::HttpConn {
  int fd = -1;
  std::string in;       ///< request bytes until the blank line (8 KiB cap)
  std::string out;      ///< full response; non-empty = writing phase
  size_t out_off = 0;   ///< bytes of `out` already sent
  Clock::time_point deadline{};  ///< read+write budget (http_timeout_ms)
};

struct Server::IoState {
  std::map<int, std::unique_ptr<Conn>> conns;
  std::map<int, std::unique_ptr<HttpConn>> http;
  bool draining = false;
  bool drain_fired = false;  ///< drain deadline passed; tokens cancelled
  Clock::time_point drain_deadline{};
};

Server::Server(db::Database* db, ServerOptions options)
    : db_(db),
      options_(std::move(options)),
      conn_admission_([this] {
        db::AdmissionController::Options o;
        o.max_concurrent = options_.max_connections;
        o.max_queued = 0;  // shed at accept time, never queue a connection
        o.max_wait = std::chrono::milliseconds(0);
        return o;
      }()) {
  obs::MetricsRegistry* r = db_->metrics();
  m_.connections_active = r->GetGauge("smadb_net_connections_active",
                                      "Open client connections");
  m_.connections_total =
      r->GetCounter("smadb_net_connections_total", "Connections accepted");
  m_.requests_total =
      r->GetCounter("smadb_net_requests_total", "Request lines served");
  m_.bytes_in = r->GetCounter("smadb_net_bytes_in_total",
                              "Bytes received from clients");
  m_.bytes_out =
      r->GetCounter("smadb_net_bytes_out_total", "Bytes sent to clients");
  m_.shed = r->GetCounter("smadb_net_shed_total",
                          "Connections refused with ERR busy at the cap");
  m_.overflows = r->GetCounter(
      "smadb_net_overflow_total",
      "Request lines refused with ERR request too long");
  m_.idle_timeouts = r->GetCounter("smadb_net_idle_timeouts_total",
                                   "Connections closed for idleness");
  m_.write_timeouts = r->GetCounter(
      "smadb_net_write_timeouts_total",
      "Connections dropped after a response send stalled past the deadline");
  m_.peer_cancels = r->GetCounter(
      "smadb_net_peer_disconnect_cancels_total",
      "In-flight queries cancelled because the client vanished");
  m_.http_requests = r->GetCounter(
      "smadb_net_http_requests_total",
      "HTTP observability endpoint requests served");
  m_.request_latency_us = r->GetHistogram(
      "smadb_net_request_latency_us",
      "Dispatch-to-response-sent request latency (microseconds)");
}

Server::~Server() { (void)Shutdown(); }

Status Server::Start() {
  if (started_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("server already started");
  }
  Status st;
  listener_ = OpenListener(options_.host, options_.port,
                           options_.listen_backlog, &port_, &st);
  if (listener_ < 0) return st;
  if (options_.enable_http) {
    http_listener_ = OpenListener(options_.host, options_.http_port,
                                  options_.listen_backlog, &http_port_, &st);
    if (http_listener_ < 0) {
      ::close(listener_);
      listener_ = -1;
      return st;
    }
  }
  if (::pipe(wake_pipe_) < 0) {
    ::close(listener_);
    listener_ = -1;
    if (http_listener_ >= 0) {
      ::close(http_listener_);
      http_listener_ = -1;
    }
    return Status::IOError(std::string("pipe: ") + std::strerror(errno));
  }
  (void)SetNonBlocking(wake_pipe_[0]);
  (void)SetNonBlocking(wake_pipe_[1]);

  // Seed for minted trace ids: wall clock + pid, mixed per id by
  // MintTraceId(). Ids need to be distinguishable across restarts in
  // aggregated logs, not cryptographically unique.
  trace_seed_ = static_cast<uint64_t>(
                    std::chrono::system_clock::now().time_since_epoch()
                        .count()) ^
                (static_cast<uint64_t>(::getpid()) << 32);

  started_.store(true, std::memory_order_release);
  io_thread_ = std::thread(&Server::IoLoop, this);
  const size_t n_workers = options_.worker_threads > 0
                               ? options_.worker_threads
                               : size_t{1};
  workers_.reserve(n_workers);
  for (size_t i = 0; i < n_workers; ++i) {
    workers_.emplace_back(&Server::WorkerLoop, this);
  }
  return Status::OK();
}

void Server::RequestShutdown() {
  stop_requested_.store(true, std::memory_order_release);
  if (wake_pipe_[1] >= 0) {
    const char b = 'q';
    // write() is async-signal-safe; the pipe is non-blocking and a full
    // pipe already guarantees a pending wakeup.
    [[maybe_unused]] ssize_t ignored = ::write(wake_pipe_[1], &b, 1);
  }
}

void Server::Wait() {
  if (!started_.load(std::memory_order_acquire)) return;
  std::unique_lock<std::mutex> lock(drained_mu_);
  drained_cv_.wait(lock,
                   [this] { return drained_.load(std::memory_order_acquire); });
}

Status Server::Shutdown() {
  if (!started_.load(std::memory_order_acquire)) return Status::OK();
  RequestShutdown();
  Wait();
  if (!joined_) {
    joined_ = true;
    io_thread_.join();
    for (std::thread& w : workers_) w.join();
    workers_.clear();
    if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
    if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
    wake_pipe_[0] = wake_pipe_[1] = -1;
  }
  if (options_.checkpoint_on_drain) return db_->Close();
  return Status::OK();
}

Server::Stats Server::stats() const {
  Stats s;
  s.connections_total = n_.connections_total.load(std::memory_order_relaxed);
  s.requests_total = n_.requests_total.load(std::memory_order_relaxed);
  s.bytes_in = n_.bytes_in.load(std::memory_order_relaxed);
  s.bytes_out = n_.bytes_out.load(std::memory_order_relaxed);
  s.shed = n_.shed.load(std::memory_order_relaxed);
  s.overflows = n_.overflows.load(std::memory_order_relaxed);
  s.idle_timeouts = n_.idle_timeouts.load(std::memory_order_relaxed);
  s.write_timeouts = n_.write_timeouts.load(std::memory_order_relaxed);
  s.peer_disconnect_cancels =
      n_.peer_disconnect_cancels.load(std::memory_order_relaxed);
  s.drain_cancels = n_.drain_cancels.load(std::memory_order_relaxed);
  s.http_requests = n_.http_requests.load(std::memory_order_relaxed);
  return s;
}

// --- I/O thread ------------------------------------------------------------

void Server::IoLoop() {
  IoState state;
  io_ = &state;

  for (;;) {
    // 1. Completions: workers handed these connections back.
    std::deque<Conn*> done;
    {
      std::lock_guard<std::mutex> lock(done_mu_);
      done.swap(done_);
    }
    for (Conn* c : done) {
      c->running = false;
      c->oversized = false;
      c->token.reset();
      c->last_activity = Clock::now();
      m_.request_latency_us->Observe(
          std::chrono::duration_cast<std::chrono::microseconds>(
              c->last_activity - c->dispatched_at)
              .count());
      const bool broken = c->send_failed.load(std::memory_order_acquire) ||
                          c->peer_gone.load(std::memory_order_acquire);
      bool close = broken || state.draining;
      if (!close && !PumpRequests(c)) close = true;
      if (close) {
        // A request that completes during drain gets the same notice the
        // idle connections got in EnterDrain(). Without this, a connection
        // whose worker finished after EnterDrain() swept the idle set would
        // be closed silently.
        if (state.draining && !broken) {
          TrySendLine(c->fd, "ERR server draining");
        }
        CloseConn(c->fd, "done");
      }
    }

    // 2. Drain entry / exit.
    if (stop_requested_.load(std::memory_order_acquire) && !state.draining) {
      EnterDrain();
    }
    if (state.draining && state.conns.empty()) break;
    if (state.draining && !state.drain_fired &&
        Clock::now() >= state.drain_deadline) {
      // Deadline: cancel every in-flight query and fail any blocked send,
      // so workers come home promptly. Connections close at completion.
      state.drain_fired = true;
      for (auto& [fd, c] : state.conns) {
        if (c->token != nullptr) c->token->Cancel();
        ::shutdown(fd, SHUT_RDWR);
        n_.drain_cancels.fetch_add(1, std::memory_order_relaxed);
      }
    }

    // 3. Build the poll set.
    std::vector<pollfd> pfds;
    pfds.push_back({wake_pipe_[0], POLLIN, 0});
    if (!state.draining && listener_ >= 0) {
      pfds.push_back({listener_, POLLIN, 0});
    }
    // The HTTP listener stays in the set during drain: /healthz keeps
    // answering (503, "draining") while in-flight queries finish.
    if (http_listener_ >= 0) {
      pfds.push_back({http_listener_, POLLIN, 0});
    }
    for (auto& [fd, hc] : state.http) {
      pfds.push_back(
          {fd, static_cast<short>(hc->out.empty() ? POLLIN : POLLOUT), 0});
    }
    for (auto& [fd, c] : state.conns) {
      if (c->running) {
        // No POLLIN while a request runs: not reading IS the backpressure
        // (the kernel buffer fills and the client's send blocks). Poll only
        // for hangup so a dead client cancels its in-flight query. Skip
        // once hangup was seen — level-triggered POLLRDHUP would spin.
        if (!c->peer_gone.load(std::memory_order_acquire) && POLLRDHUP != 0) {
          pfds.push_back({fd, POLLRDHUP, 0});
        }
      } else {
        pfds.push_back({fd, POLLIN | POLLRDHUP, 0});
      }
    }

    // 4. Timeout: the nearest idle/drain deadline, coarsely capped so
    // bookkeeping can never stall more than a tick.
    int timeout_ms = -1;
    const Clock::time_point now = Clock::now();
    auto consider = [&](Clock::time_point deadline) {
      const int64_t ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                now)
              .count();
      const int clamped = ms <= 0 ? 0 : static_cast<int>(std::min<int64_t>(
                                            ms + 1, 1000));
      timeout_ms = timeout_ms < 0 ? clamped : std::min(timeout_ms, clamped);
    };
    if (state.draining && !state.drain_fired) consider(state.drain_deadline);
    if (state.draining && state.drain_fired) timeout_ms = 20;
    if (options_.idle_timeout_ms > 0) {
      for (auto& [fd, c] : state.conns) {
        if (!c->running) {
          consider(c->last_activity +
                   std::chrono::milliseconds(options_.idle_timeout_ms));
        }
      }
    }
    for (auto& [fd, hc] : state.http) consider(hc->deadline);

    const int pr = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (pr < 0 && errno != EINTR) break;  // poll itself broken: give up

    // 5. Wakeup pipe (drain it; content is irrelevant).
    if (pfds[0].revents & POLLIN) {
      char buf[64];
      while (::read(wake_pipe_[0], buf, sizeof(buf)) > 0) {
      }
    }

    // 6. Listener & connections.
    for (size_t i = 1; i < pfds.size(); ++i) {
      const pollfd& p = pfds[i];
      if (p.revents == 0) continue;
      if (p.fd == listener_) {
        HandleAccept();
        continue;
      }
      if (p.fd == http_listener_) {
        HandleHttpAccept();
        continue;
      }
      if (auto hit = state.http.find(p.fd); hit != state.http.end()) {
        if (!HandleHttp(hit->second.get(), p.revents)) CloseHttpConn(p.fd);
        continue;
      }
      auto it = state.conns.find(p.fd);
      if (it == state.conns.end()) continue;  // closed earlier this round
      Conn* c = it->second.get();
      if (c->running) {
        if (p.revents & (POLLRDHUP | POLLERR | POLLHUP)) {
          // Dead client mid-request: cancel the query; close at completion.
          c->peer_gone.store(true, std::memory_order_release);
          if (c->token != nullptr) c->token->Cancel();
          n_.peer_disconnect_cancels.fetch_add(1, std::memory_order_relaxed);
          m_.peer_cancels->Inc();
        }
      } else if (p.revents & (POLLIN | POLLRDHUP | POLLERR | POLLHUP)) {
        if (!HandleReadable(c)) CloseConn(p.fd, "eof");
      }
    }

    // 7. Idle deadlines.
    if (options_.idle_timeout_ms > 0) {
      const Clock::time_point idle_now = Clock::now();
      std::vector<int> expired;
      for (auto& [fd, c] : state.conns) {
        if (!c->running &&
            idle_now - c->last_activity >=
                std::chrono::milliseconds(options_.idle_timeout_ms)) {
          expired.push_back(fd);
        }
      }
      for (int fd : expired) {
        TrySendLine(fd, "ERR idle timeout");
        n_.idle_timeouts.fetch_add(1, std::memory_order_relaxed);
        m_.idle_timeouts->Inc();
        CloseConn(fd, "idle");
      }
    }

    // 8. HTTP deadlines: one budget covers request read + response write.
    {
      const Clock::time_point http_now = Clock::now();
      std::vector<int> expired;
      for (auto& [fd, hc] : state.http) {
        if (http_now >= hc->deadline) expired.push_back(fd);
      }
      for (int fd : expired) CloseHttpConn(fd);
    }
  }

  // The normal exit leaves no connections; the defensive exit (poll itself
  // failing) may leave some, possibly borrowed by workers. Never tear down
  // state a worker still holds: wait for completions, then close what
  // remains.
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(done_mu_);
      for (Conn* c : done_) c->running = false;
      done_.clear();
    }
    bool any_running = false;
    for (auto& [fd, c] : state.conns) {
      if (c->running) {
        any_running = true;
        break;
      }
    }
    if (!any_running) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<int> leftover;
  leftover.reserve(state.conns.size());
  for (auto& [fd, c] : state.conns) leftover.push_back(fd);
  for (int fd : leftover) CloseConn(fd, "shutdown");
  std::vector<int> http_leftover;
  http_leftover.reserve(state.http.size());
  for (auto& [fd, hc] : state.http) http_leftover.push_back(fd);
  for (int fd : http_leftover) CloseHttpConn(fd);

  if (listener_ >= 0) {
    ::close(listener_);
    listener_ = -1;
  }
  if (http_listener_ >= 0) {
    ::close(http_listener_);
    http_listener_ = -1;
  }
  io_ = nullptr;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    workers_stop_ = true;
  }
  queue_cv_.notify_all();
  {
    std::lock_guard<std::mutex> lock(drained_mu_);
    drained_.store(true, std::memory_order_release);
  }
  drained_cv_.notify_all();
}

void Server::HandleAccept() {
  for (;;) {
    const int fd = ::accept(listener_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (drained) or a transient error: next poll retries
    }
    if (util::fault::Hit("net.accept").has_value()) {
      ::close(fd);  // injected accept failure: the client sees a reset
      continue;
    }
    auto slot = conn_admission_.Admit(0);
    if (!slot.ok()) {
      // At the cap: shed with a typed line, never queue or hang. Count the
      // shed first, so a client that has seen `ERR busy` also sees it in
      // stats().
      n_.shed.fetch_add(1, std::memory_order_relaxed);
      m_.shed->Inc();
      TrySendLine(fd, "ERR busy");
      ::close(fd);
      continue;
    }
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    // A response is a result table followed by a small `OK` line — exactly
    // the two-small-writes shape Nagle + delayed ACK turns into 40 ms of
    // idle latency. Disable Nagle; the response sizes here don't need it.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (options_.sndbuf_bytes > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.sndbuf_bytes,
                   sizeof(options_.sndbuf_bytes));
    }
    auto c = std::make_unique<Conn>();
    c->fd = fd;
    c->id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
    c->slot = std::move(slot).value();
    c->session = db_->CreateSession();
    c->last_activity = Clock::now();
    connections_active_.fetch_add(1, std::memory_order_acq_rel);
    m_.connections_active->Add(1);
    n_.connections_total.fetch_add(1, std::memory_order_relaxed);
    m_.connections_total->Inc();
    db_->logger()->Log(
        options_.verbose ? obs::LogLevel::kInfo : obs::LogLevel::kDebug,
        "conn_open",
        {{"conn", c->id}, {"active", connections_active_.load()}});
    io_->conns.emplace(fd, std::move(c));
  }
}

bool Server::HandleReadable(Conn* c) {
  char chunk[4096];
  const auto fault = util::fault::Hit("net.recv");
  if (fault.has_value() && *fault != util::FaultKind::kBitFlip) {
    return false;  // injected socket death: close (cleanup path under test)
  }
  ssize_t r;
  do {
    r = ::recv(c->fd, chunk, sizeof(chunk), 0);
  } while (r < 0 && errno == EINTR);
  if (r == 0) return false;  // orderly EOF
  if (r < 0) {
    return errno == EAGAIN || errno == EWOULDBLOCK;  // spurious wakeup: keep
  }
  if (fault.has_value()) chunk[0] ^= 1;  // kBitFlip: corrupt the stream
  c->in.append(chunk, static_cast<size_t>(r));
  n_.bytes_in.fetch_add(static_cast<uint64_t>(r), std::memory_order_relaxed);
  m_.bytes_in->Add(r);
  c->last_activity = Clock::now();
  return PumpRequests(c);
}

bool Server::PumpRequests(Conn* c) {
  while (!c->running) {
    const size_t nl = c->in.find('\n');
    if (c->discarding) {
      if (nl == std::string::npos) {
        c->in.clear();  // still inside the oversized line: drop and wait
        return true;
      }
      c->in.erase(0, nl + 1);
      c->discarding = false;
      continue;
    }
    if (nl == std::string::npos) {
      if (c->in.size() > options_.max_line_bytes) {
        // Unterminated line past the cap: typed error, discard the rest.
        // This is the bound that keeps a slow-drip client from growing the
        // buffer without limit.
        c->in.clear();
        c->discarding = true;
        c->oversized = true;
        n_.overflows.fetch_add(1, std::memory_order_relaxed);
        m_.overflows->Inc();
        DispatchToWorker(c);
      }
      return true;  // need more bytes
    }
    std::string line = c->in.substr(0, nl);
    c->in.erase(0, nl + 1);
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.pop_back();
    }
    if (line.empty()) continue;
    if (line == "quit") return false;
    if (line.size() > options_.max_line_bytes) {
      c->oversized = true;
      n_.overflows.fetch_add(1, std::memory_order_relaxed);
      m_.overflows->Inc();
      DispatchToWorker(c);
      return true;
    }
    c->request = std::move(line);
    DispatchToWorker(c);
    return true;
  }
  return true;
}

void Server::DispatchToWorker(Conn* c) {
  c->running = true;
  c->token = std::make_shared<util::CancelToken>();
  c->dispatched_at = Clock::now();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_.push_back(c);
  }
  queue_cv_.notify_one();
}

void Server::CloseConn(int fd, const char* why) {
  auto it = io_->conns.find(fd);
  if (it == io_->conns.end()) return;
  Conn* c = it->second.get();
  db_->logger()->Log(
      options_.verbose ? obs::LogLevel::kInfo : obs::LogLevel::kDebug,
      "conn_close", {{"conn", c->id}, {"reason", why}});
  c->session.reset();  // sessions_active falls with the connection
  c->slot.Release();   // frees one max_connections unit
  ::close(fd);
  io_->conns.erase(it);
  connections_active_.fetch_sub(1, std::memory_order_acq_rel);
  m_.connections_active->Add(-1);
}

void Server::TrySendLine(int fd, const char* line) {
  if (util::fault::Hit("net.send").has_value()) return;
  std::string out(line);
  out += '\n';
  const ssize_t n =
      ::send(fd, out.data(), out.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
  if (n > 0) {
    n_.bytes_out.fetch_add(static_cast<uint64_t>(n),
                           std::memory_order_relaxed);
    m_.bytes_out->Add(n);
  }
}

void Server::EnterDrain() {
  io_->draining = true;
  io_->drain_deadline =
      Clock::now() + std::chrono::milliseconds(
                         options_.drain_timeout_ms > 0
                             ? options_.drain_timeout_ms
                             : int64_t{0});
  if (listener_ >= 0) {
    ::close(listener_);  // stop accepting first
    listener_ = -1;
  }
  std::vector<int> idle;
  for (auto& [fd, c] : io_->conns) {
    if (!c->running) idle.push_back(fd);
  }
  for (int fd : idle) {
    TrySendLine(fd, "ERR server draining");
    CloseConn(fd, "drain");
  }
}

// --- HTTP observability endpoint (I/O thread only) -------------------------

uint64_t Server::MintTraceId() {
  // splitmix64 over a per-process seed: well-mixed 64-bit ids from a plain
  // counter, distinguishable across restarts, never zero (0 = untraced).
  uint64_t z = trace_seed_ +
               0x9e3779b97f4a7c15ULL *
                   (trace_counter_.fetch_add(1, std::memory_order_relaxed) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z != 0 ? z : 1;
}

void Server::HandleHttpAccept() {
  for (;;) {
    const int fd = ::accept(http_listener_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (drained) or transient: next poll retries
    }
    if (io_->http.size() >= options_.http_max_connections ||
        !SetNonBlocking(fd).ok()) {
      ::close(fd);  // scrapers are few; past the cap just reset
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto hc = std::make_unique<HttpConn>();
    hc->fd = fd;
    hc->deadline =
        Clock::now() + std::chrono::milliseconds(options_.http_timeout_ms > 0
                                                     ? options_.http_timeout_ms
                                                     : int64_t{60'000});
    io_->http.emplace(fd, std::move(hc));
  }
}

bool Server::HandleHttp(HttpConn* hc, short revents) {
  if (revents & (POLLERR | POLLNVAL)) return false;
  if (hc->out.empty()) {
    // Reading the request. Headers are ignored beyond the request line;
    // the blank line just marks "request complete".
    char chunk[2048];
    ssize_t r;
    do {
      r = ::recv(hc->fd, chunk, sizeof(chunk), 0);
    } while (r < 0 && errno == EINTR);
    if (r == 0) return false;  // EOF before a full request
    if (r < 0) return errno == EAGAIN || errno == EWOULDBLOCK;
    hc->in.append(chunk, static_cast<size_t>(r));
    if (hc->in.size() > 8192) return false;  // oversized request: reset
    if (hc->in.find("\r\n\r\n") == std::string::npos &&
        hc->in.find("\n\n") == std::string::npos) {
      return true;  // need more bytes
    }
    const size_t eol = hc->in.find_first_of("\r\n");
    const std::string req_line = hc->in.substr(0, eol);
    const size_t sp1 = req_line.find(' ');
    const size_t sp2 =
        sp1 == std::string::npos ? std::string::npos
                                 : req_line.find(' ', sp1 + 1);
    const std::string method =
        sp1 == std::string::npos ? req_line : req_line.substr(0, sp1);
    std::string path = sp2 == std::string::npos
                           ? ""
                           : req_line.substr(sp1 + 1, sp2 - sp1 - 1);
    if (const size_t q = path.find('?'); q != std::string::npos) {
      path.resize(q);  // query strings are accepted and ignored
    }
    hc->out = RouteHttp(method, path);
    n_.http_requests.fetch_add(1, std::memory_order_relaxed);
    m_.http_requests->Inc();
    // Fall through: usually the whole response fits the send buffer.
  }
  while (hc->out_off < hc->out.size()) {
    const ssize_t n =
        ::send(hc->fd, hc->out.data() + hc->out_off,
               hc->out.size() - hc->out_off, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      hc->out_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;  // kernel buffer full: POLLOUT resumes us
    }
    return false;  // peer gone
  }
  return false;  // response fully sent: Connection: close
}

void Server::CloseHttpConn(int fd) {
  auto it = io_->http.find(fd);
  if (it == io_->http.end()) return;
  ::close(fd);
  io_->http.erase(it);
}

std::string Server::RouteHttp(std::string_view method, std::string_view path) {
  if (method != "GET") {
    return HttpResponse(405, "Method Not Allowed", "text/plain; charset=utf-8",
                        "only GET is supported\n");
  }
  if (path == "/metrics") {
    return HttpResponse(200, "OK", "text/plain; version=0.0.4; charset=utf-8",
                        db_->ExportMetrics());
  }
  if (path == "/healthz") {
    const bool read_only = db_->read_only();
    const bool draining = stop_requested_.load(std::memory_order_acquire);
    std::string body = util::Format(
        "{\"status\": \"%s\", \"read_only\": %s, \"draining\": %s, "
        "\"sessions\": %zu, \"connections\": %zu",
        draining ? "draining" : (read_only ? "read_only" : "ok"),
        read_only ? "true" : "false", draining ? "true" : "false",
        db_->sessions_active(), connections_active());
    if (read_only) {
      body += ", \"reason\": \"" + JsonEscape(db_->read_only_reason()) + "\"";
    }
    body += "}\n";
    const bool healthy = !read_only && !draining;
    return HttpResponse(healthy ? 200 : 503,
                        healthy ? "OK" : "Service Unavailable",
                        "application/json", body);
  }
  if (path == "/statusz") {
    const std::string body = util::Format(
        "{\"server\": \"smadb\", \"version\": \"1.0.0\", "
        "\"build\": \"%s\", \"uptime_us\": %llu, "
        "\"port\": %u, \"http_port\": %u, "
        "\"knobs\": {\"dop\": %zu, "
        "\"timeout_ms\": %lld, \"memory_limit\": %zu, "
        "\"max_concurrent_queries\": %zu, \"slow_query_ms\": %lld}, "
        "\"read_only\": %s, \"sessions\": %zu}\n",
        __VERSION__,
        static_cast<unsigned long long>(db_->uptime_us()),
        static_cast<unsigned>(port_), static_cast<unsigned>(http_port_),
        db_->degree_of_parallelism(),
        static_cast<long long>(db_->timeout_ms()), db_->query_memory_limit(),
        db_->max_concurrent_queries(),
        static_cast<long long>(db_->slow_query_ms()),
        db_->read_only() ? "true" : "false", db_->sessions_active());
    return HttpResponse(200, "OK", "application/json", body);
  }
  if (path == "/debug/queries") {
    return HttpResponse(200, "OK", "application/json", db_->DumpQueries());
  }
  if (path == "/debug/trace") {
    return HttpResponse(200, "OK", "application/json", db_->DumpTrace());
  }
  if (path == "/") {
    return HttpResponse(200, "OK", "text/plain; charset=utf-8",
                        "smadb telemetry plane\n"
                        "  /metrics        Prometheus exposition\n"
                        "  /healthz        liveness (503 = read_only or "
                        "draining)\n"
                        "  /statusz        build info, uptime, knobs\n"
                        "  /debug/queries  in-flight queries (JSON)\n"
                        "  /debug/trace    recent trace spans (JSON)\n");
  }
  return HttpResponse(404, "Not Found", "text/plain; charset=utf-8",
                      "unknown path\n");
}

// --- worker pool -----------------------------------------------------------

void Server::WorkerLoop() {
  for (;;) {
    Conn* c = nullptr;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [this] { return workers_stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (workers_stop_) return;
        continue;
      }
      c = queue_.front();
      queue_.pop_front();
    }
    ProcessRequest(c);
    {
      std::lock_guard<std::mutex> lock(done_mu_);
      done_.push_back(c);
    }
    if (wake_pipe_[1] >= 0) {
      const char b = 'd';
      [[maybe_unused]] ssize_t ignored = ::write(wake_pipe_[1], &b, 1);
    }
  }
}

void Server::ProcessRequest(Conn* c) {
  if (c->oversized) {
    SendLine(c, "ERR request too long");
    return;
  }
  const std::string& line = c->request;
  n_.requests_total.fetch_add(1, std::memory_order_relaxed);
  m_.requests_total->Inc();
  uint64_t trace_id = 0;
  std::string outcome = "ok";
  if (line == "ping") {
    SendLine(c, "OK");
  } else if (line == "health") {
    const bool read_only = db_->read_only();
    std::string h = util::Format(
        "health: %s read_only=%d draining=%d sessions=%zu connections=%zu",
        read_only ? "degraded" : "ok", read_only ? 1 : 0,
        stop_requested_.load(std::memory_order_acquire) ? 1 : 0,
        db_->sessions_active(), connections_active());
    if (read_only) h += " reason=" + db_->read_only_reason();
    SendLine(c, h);
    SendLine(c, "OK");
  } else {
    // Every engine line parses once and carries a trace id (DESIGN.md
    // §16): the client's `trace <hex>` prefix, or one minted here. Run()
    // threads it through every TraceSpan and the profile, so one grep over
    // the log, the trace dump and the profile output correlates a request
    // end to end.
    auto result = [&]() -> util::Result<plan::QueryResult> {
      SMADB_ASSIGN_OR_RETURN(db::Statement stmt, db::ParseStatement(line));
      if (stmt.trace_id == 0) stmt.trace_id = MintTraceId();
      trace_id = stmt.trace_id;
      return c->session->Run(stmt, c->token);
    }();
    if (!result.ok()) {
      SendLine(c, "ERR " + result.status().ToString());
      outcome = result.status().ToString();
    } else if (result->schema == nullptr) {
      SendLine(c, "OK");  // set, define sma, kill: no table
    } else {
      std::string table = result->ToString();  // already '\n'-terminated
      if (table.empty() || table.back() != '\n') table += '\n';
      // Terminator only after the whole table made it out: a failed send
      // must close the connection, never pass off a truncated table as a
      // complete `OK` response.
      if (SendAll(c, table)) SendLine(c, "OK");
    }
  }
  const double elapsed_ms =
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            c->dispatched_at)
          .count() /
      1000.0;
  db_->logger()->Debug(
      "request",
      {{"conn", c->id},
       {"trace", util::Format("%llx",
                              static_cast<unsigned long long>(trace_id))},
       {"ms", elapsed_ms},
       {"status", outcome},
       {"sql", line}});
}

bool Server::SendAll(Conn* c, const std::string& data) {
  if (c->send_failed.load(std::memory_order_acquire)) return false;
  if (util::fault::Hit("net.send").has_value()) {
    c->send_failed.store(true, std::memory_order_release);
    return false;
  }
  const Clock::time_point deadline =
      options_.write_timeout_ms > 0
          ? Clock::now() + std::chrono::milliseconds(options_.write_timeout_ms)
          : Clock::time_point::max();
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(c->fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      n_.bytes_out.fetch_add(static_cast<uint64_t>(n),
                             std::memory_order_relaxed);
      m_.bytes_out->Add(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Backpressure: the reader is slow. Block with a deadline — never
      // queue the response — and disconnect a reader that stays stuck.
      const Clock::time_point now = Clock::now();
      if (now >= deadline) {
        n_.write_timeouts.fetch_add(1, std::memory_order_relaxed);
        m_.write_timeouts->Inc();
        c->send_failed.store(true, std::memory_order_release);
        return false;
      }
      const int64_t left_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                now)
              .count();
      pollfd p{c->fd, POLLOUT, 0};
      const int pr =
          ::poll(&p, 1, static_cast<int>(std::min<int64_t>(left_ms + 1, 100)));
      if (pr < 0 && errno != EINTR) {
        c->send_failed.store(true, std::memory_order_release);
        return false;
      }
      continue;
    }
    // EPIPE / ECONNRESET / anything else: the client is gone. Surfacing
    // this (instead of silently dropping the tail) is what guarantees a
    // client never reads a truncated result as if it were complete.
    c->send_failed.store(true, std::memory_order_release);
    return false;
  }
  return true;
}

bool Server::SendLine(Conn* c, const std::string& line) {
  return SendAll(c, line + "\n");
}

}  // namespace smadb::net
