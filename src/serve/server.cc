#include "serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/exposition.h"
#include "serve/snapshot.h"
#include "util/net.h"

namespace farmer {
namespace serve {
namespace {

// Send timeout on sockets still in blocking mode (the reject path runs
// before the fd goes non-blocking).
constexpr int kRejectIoTimeoutMs = 100;

// Latency buckets, seconds: 10us .. 1s plus overflow.
std::vector<double> LatencyBounds() {
  return {1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0};
}

// Snapshot-swap timing buckets, seconds: reloads read a file and build
// an index, so the interesting range sits well above request latency.
std::vector<double> ReloadBounds() {
  return {1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0};
}

// The POSIX socket plumbing (listener setup, HTTP responses) lives in
// util/net, shared with the farm layer and the CLI clients.
using net::HttpResponse;
using net::OpenListener;

// Blocking best-effort send for the reject path (overloaded /
// shutting-down replies on not-yet-admitted sockets). SO_SNDTIMEO
// bounds each attempt; a stalled peer just loses the courtesy reply.
void SendRejectLine(int fd, std::string line) {
  line.push_back('\n');
  net::SendAll(fd, line);
}

void SetRejectTimeout(int fd) {
  net::SetSendTimeoutMs(fd, kRejectIoTimeoutMs);
}

const char* SpanName(QueryRequest::Op op) {
  switch (op) {
    case QueryRequest::Op::kPing:
      return "serve.ping";
    case QueryRequest::Op::kStats:
      return "serve.stats";
    case QueryRequest::Op::kTopkConfidence:
    case QueryRequest::Op::kTopkChiSquare:
      return "serve.topk";
    case QueryRequest::Op::kContains:
      return "serve.contains";
    case QueryRequest::Op::kCover:
      return "serve.cover";
    case QueryRequest::Op::kFilter:
      return "serve.filter";
    case QueryRequest::Op::kReload:
      return "serve.reload";
    case QueryRequest::Op::kMetrics:
      return "serve.metrics";
  }
  return "serve.request";
}

}  // namespace

Server::Server(RuleGroupIndex index, const Options& options)
    : options_(options),
      cache_(options.cache_entries, options.cache_bytes),
      current_(std::make_shared<const VersionedIndex>(
          VersionedIndex{std::move(index), 1})) {
  if (options_.num_shards == 0) options_.num_shards = 1;
  if (options_.max_connections == 0) options_.max_connections = 1;
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry* m = options_.metrics;
    metrics_.requests = m->GetCounter("serve.requests");
    metrics_.responses_ok = m->GetCounter("serve.responses_ok");
    metrics_.responses_error = m->GetCounter("serve.responses_error");
    metrics_.cache_hits = m->GetCounter("serve.cache_hits");
    metrics_.cache_misses = m->GetCounter("serve.cache_misses");
    metrics_.overloaded = m->GetCounter("serve.overloaded");
    metrics_.deadline_exceeded = m->GetCounter("serve.deadline_exceeded");
    metrics_.reloads = m->GetCounter("serve.reloads");
    metrics_.slow_queries = m->GetCounter("serve.slow_queries");
    metrics_.active_connections = m->GetGauge("serve.active_connections");
    metrics_.snapshot_version = m->GetGauge("serve.snapshot_version");
    metrics_.snapshot_version->Set(1.0);
    metrics_.cache_entries = m->GetGauge("serve.cache_entries");
    metrics_.cache_bytes = m->GetGauge("serve.cache_bytes");
    metrics_.cache_evictions = m->GetGauge("serve.cache_evictions");
    metrics_.cache_hit_ratio = m->GetGauge("serve.cache_hit_ratio");
    metrics_.latency =
        m->GetHistogram("serve.latency_seconds", LatencyBounds());
    metrics_.reload_seconds =
        m->GetHistogram("serve.reload_seconds", ReloadBounds());
    static_assert(static_cast<std::size_t>(QueryRequest::Op::kMetrics) + 1 ==
                      kOpCount,
                  "op_latency slot count out of sync with QueryRequest::Op");
    for (std::size_t i = 0; i < kOpCount; ++i) {
      const auto op = static_cast<QueryRequest::Op>(i);
      metrics_.op_latency[i] = m->GetHistogram(
          obs::LabeledName("serve.op_latency_seconds", {{"op", OpName(op)}}),
          LatencyBounds());
    }
    shard_metrics_.resize(options_.num_shards);
    for (std::size_t i = 0; i < options_.num_shards; ++i) {
      const std::string shard = std::to_string(i);
      const auto name = [&shard](const char* family) {
        return obs::LabeledName(family, {{"shard", shard}});
      };
      ShardMetrics& sm = shard_metrics_[i];
      sm.connections = m->GetGauge(name("serve.shard_connections"));
      sm.loop.wakeups = m->GetCounter(name("serve.shard_wakeups"));
      sm.loop.loop_seconds = m->GetHistogram(
          name("serve.shard_loop_seconds"), LatencyBounds());
      sm.pending_frames = m->GetGauge(name("serve.shard_pending_frames"));
      sm.loop.bytes_in = m->GetCounter(name("serve.shard_bytes_in"));
      sm.loop.bytes_out = m->GetCounter(name("serve.shard_bytes_out"));
      sm.loop.write_stalls = m->GetCounter(name("serve.shard_write_stalls"));
    }
    scrape_render_ = [this] { return RenderExposition(); };
  }
}

Server::~Server() { Shutdown(); }

std::shared_ptr<const Server::VersionedIndex> Server::Current() const {
  return current_.load(std::memory_order_acquire);
}

std::shared_ptr<const RuleGroupIndex> Server::index() const {
  std::shared_ptr<const VersionedIndex> vi = Current();
  return std::shared_ptr<const RuleGroupIndex>(vi, &vi->index);
}

std::uint64_t Server::snapshot_version() const { return Current()->version; }

void Server::InstallIndex(RuleGroupIndex index) {
  // Serialize writers; readers never block. The new VersionedIndex is
  // fully built before the pointer flips, and old versions stay alive
  // until the last in-flight request drops its shared_ptr.
  MutexLock lock(swap_mutex_);
  const std::uint64_t version = Current()->version + 1;
  auto next = std::make_shared<const VersionedIndex>(
      VersionedIndex{std::move(index), version});
  current_.store(next, std::memory_order_release);
  cache_.DropVersionsBelow(version);
  if (metrics_.reloads != nullptr) metrics_.reloads->Increment();
  if (metrics_.snapshot_version != nullptr) {
    metrics_.snapshot_version->Set(static_cast<double>(version));
  }
}

Status Server::ReloadFromFile(const std::string& path) {
  Stopwatch watch;
  StatusOr<RuleGroupSnapshot> snapshot = LoadSnapshot(path);
  if (!snapshot.ok()) return snapshot.status();
  InstallIndex(
      RuleGroupIndex(std::move(snapshot).value(), options_.num_shards));
  // Load + index build + install: the full client-visible swap time.
  if (metrics_.reload_seconds != nullptr) {
    metrics_.reload_seconds->Observe(watch.ElapsedSeconds());
  }
  return Status::Ok();
}

Status Server::Start() {
  if (started_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("server already started");
  }

  const Status listening =
      OpenListener(options_.host, options_.port, &listen_fd_, &port_);
  if (!listening.ok()) return listening;

  if (options_.metrics_port >= 0) {
    const Status scrape = OpenListener(options_.host, options_.metrics_port,
                                       &metrics_listen_fd_, &metrics_port_);
    if (!scrape.ok()) {
      CloseListeners();
      return scrape;
    }
  }

  shards_.clear();
  stopping_.store(false, std::memory_order_release);
  for (std::size_t i = 0; i < options_.num_shards; ++i) {
    const ShardMetrics* sm =
        shard_metrics_.empty() ? nullptr : &shard_metrics_[i];
    // The callbacks reach their Shard through shards_, which is fully
    // built before any of them can run.
    ShardLoop::Handler handler;
    handler.on_open = [this, i](Conn& conn) {
      conn.state.idle = Deadline::After(options_.idle_timeout_s);
      CountConn(*shards_[i], /*opened=*/true);
    };
    handler.on_data = [this, i](Conn& conn) {
      ProcessBuffered(i, *shards_[i], conn);
      return true;
    };
    handler.on_tick = [this, i] { TickTimeouts(*shards_[i]); };
    handler.on_close = [this, i](Conn&) {
      CountConn(*shards_[i], /*opened=*/false);
    };
    shards_.push_back(std::make_unique<Shard>(
        std::move(handler), sm != nullptr ? sm->loop : EventLoopMetrics{}));
    shards_.back()->sm = sm;
  }
  for (auto& shard : shards_) {
    const Status running = shard->loop.Start();
    if (!running.ok()) {
      for (auto& started : shards_) started->loop.Stop();
      shards_.clear();
      CloseListeners();
      return running;
    }
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  started_.store(true, std::memory_order_release);
  return Status::Ok();
}

void Server::Shutdown() {
  // Serialized: concurrent Shutdown() calls (say, a signal-driven stop
  // racing the destructor) must not both join the threads.
  MutexLock lock(shutdown_mutex_);
  if (!started_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);
  // Unblock the accept() call with shutdown() rather than close(): a
  // close here could race a new accept on a reused fd number. The real
  // close happens after the accept thread is gone — which also means no
  // new fds can land in a shard inbox once the shards start exiting.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (metrics_listen_fd_ >= 0) ::shutdown(metrics_listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  CloseListeners();
  // Each shard drains its connections (one flush each) and exits.
  for (auto& shard : shards_) shard->loop.Stop();
  shards_.clear();
  started_.store(false, std::memory_order_release);
}

void Server::CloseListeners() {
  for (int* fd : {&listen_fd_, &metrics_listen_fd_}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
}

void Server::AcceptLoop() {
  std::size_t next_shard = 0;
  while (!stopping_.load(std::memory_order_acquire)) {
    // The listeners stay blocking; poll() multiplexes the serve port
    // and the optional dedicated scrape port without a second thread.
    pollfd pfds[2];
    nfds_t nfds = 0;
    pfds[nfds].fd = listen_fd_;
    pfds[nfds].events = POLLIN;
    pfds[nfds].revents = 0;
    ++nfds;
    const bool scrape = metrics_listen_fd_ >= 0;
    if (scrape) {
      pfds[nfds].fd = metrics_listen_fd_;
      pfds[nfds].events = POLLIN;
      pfds[nfds].revents = 0;
      ++nfds;
    }
    const int rc = ::poll(pfds, nfds, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    // Shutdown() shuts the main listener down; its POLLHUP lands here
    // and the failed accept ends the loop.
    if ((pfds[0].revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
      if (!AcceptOne(listen_fd_, /*admission_exempt=*/false, &next_shard)) {
        break;
      }
    }
    if (scrape && (pfds[1].revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
      if (!AcceptOne(metrics_listen_fd_, /*admission_exempt=*/true,
                     &next_shard)) {
        break;
      }
    }
  }
}

bool Server::AcceptOne(int lfd, bool admission_exempt,
                       std::size_t* next_shard) {
  const int fd = ::accept(lfd, nullptr, nullptr);
  if (fd < 0) {
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
      return true;
    }
    // Listener closed or broken: stop accepting. Shutdown() handles
    // the rest.
    return false;
  }
  SetRejectTimeout(fd);
  if (stopping_.load(std::memory_order_acquire)) {
    SendRejectLine(fd,
                   RenderError("shutting_down", "server is shutting down"));
    ::close(fd);
    return false;
  }

  // Admission control. The slot is reserved here and released by the
  // owning shard when the connection closes. Scrape-listener
  // connections always get a slot (telemetry must work mid-overload)
  // but are still counted, so the gauge never lies.
  if (admission_exempt) {
    active_connections_.fetch_add(1, std::memory_order_relaxed);
  } else {
    std::size_t active = active_connections_.load(std::memory_order_relaxed);
    bool admitted = false;
    while (active < options_.max_connections) {
      if (active_connections_.compare_exchange_weak(
              active, active + 1, std::memory_order_relaxed)) {
        admitted = true;
        break;
      }
    }
    if (!admitted) {
      overloaded_.fetch_add(1, std::memory_order_relaxed);
      if (metrics_.overloaded != nullptr) metrics_.overloaded->Increment();
      SendRejectLine(fd,
                     RenderError("overloaded", "connection limit reached"));
      ::close(fd);
      return true;
    }
  }
  PublishActiveGauge();

  // The shard makes the socket non-blocking and owns it from here; its
  // close releases the admission slot.
  shards_[*next_shard]->loop.Adopt(fd);
  *next_shard = (*next_shard + 1) % shards_.size();
  return true;
}

void Server::PublishActiveGauge() {
  if (metrics_.active_connections != nullptr) {
    metrics_.active_connections->Set(static_cast<double>(
        active_connections_.load(std::memory_order_relaxed)));
  }
}

// farmer-lint: begin(event-loop)
// Everything between these markers runs on a shard's event-loop thread
// and must never block: no file I/O, no sleeps, no blocking sockets
// (tools/farmer_lint.py, rule `event-loop-blocking`). The transport
// (util/event_loop.cc) sits in the same discipline. Request execution
// (ExecutePending and below) sits outside the region: the reload admin
// op deliberately reads a snapshot file on the shard thread, stalling
// only its own shard.

void Server::CountConn(Shard& shard, bool opened) {
  const std::size_t owned =
      opened ? shard.owned.fetch_add(1, std::memory_order_relaxed) + 1
             : shard.owned.fetch_sub(1, std::memory_order_relaxed) - 1;
  if (shard.sm != nullptr && shard.sm->connections != nullptr) {
    shard.sm->connections->Set(static_cast<double>(owned));
  }
  if (opened) return;
  // A closed connection gives its admission slot back.
  active_connections_.fetch_sub(1, std::memory_order_relaxed);
  PublishActiveGauge();
}

void Server::TickTimeouts(Shard& shard) {
  shard.loop.ForEach([&](Conn& conn) {
    if (conn.HasPending()) {
      // Pending output and no send progress: the peer stopped reading
      // (its TCP window is full). Drop it rather than holding the
      // buffers and the admission slot.
      if (options_.send_timeout_s > 0 &&
          conn.stall.ElapsedSeconds() > options_.send_timeout_s) {
        shard.loop.Close(conn);
      }
      return;
    }
    if (!conn.want_close && conn.state.idle.ExpiredNow()) {
      Enqueue(conn, FrameStatus::kIdleTimeout, 0,
              RenderError("idle_timeout", "connection idle too long"));
      conn.want_close = true;
      shard.loop.Flush(conn);
    }
  });
}

void Server::ProcessBuffered(std::size_t shard_id, Shard& shard, Conn& conn) {
  ConnState& state = conn.state;
  if (state.mode == ConnState::Mode::kDetect) {
    switch (DetectProtocol(conn.rbuf)) {
      case ProtocolDetect::kNeedMore:
        return;
      case ProtocolDetect::kJson:
        state.mode = ConnState::Mode::kJson;
        break;
      case ProtocolDetect::kBinary:
        state.mode = ConnState::Mode::kBinary;
        conn.rbuf.erase(0, kBinaryPreambleSize);
        break;
      case ProtocolDetect::kHttp:
        state.mode = ConnState::Mode::kHttp;
        break;
    }
  }
  if (state.mode == ConnState::Mode::kHttp) {
    AnswerScrape(conn, scrape_render_);
    state.idle = Deadline::After(options_.idle_timeout_s);
    return;
  }

  // Request-scoped instrumentation is paid only when something will
  // consume it: the trace (parse span) or the slow-query log (parse
  // timing in the breakdown).
  const bool instr =
      options_.trace != nullptr || options_.slow_query_ms > 0;

  // Parse-then-execute: every complete request is cut off the buffer
  // and deadline-stamped before any of them runs, so the budget of a
  // pipelined request queued behind a slow one burns while it waits —
  // exactly as if the client had sent them one at a time. `parse` runs
  // the framing's parser into the request it is given.
  std::vector<PendingRequest> batch;
  const auto add = [&](bool binary, const auto& parse) {
    PendingRequest& p = batch.emplace_back();
    p.binary = binary;
    if (instr) {
      p.parse_start_ns =
          options_.trace != nullptr ? options_.trace->NowNs() : 0;
      const Stopwatch parse_watch;
      p.parse = parse(&p.request);
      p.parse_s = parse_watch.ElapsedSeconds();
      // JSON requests carry no bin_id: a per-connection sequence
      // stands in for it.
      p.trace_id =
          p.request.bin_id != 0 ? p.request.bin_id : ++state.trace_seq;
    } else {
      p.parse = parse(&p.request);
    }
    if (!p.parse.ok()) return;
    double budget_s = options_.default_deadline_s;
    if (p.request.deadline_ms > 0 &&
        p.request.deadline_ms / 1000.0 < budget_s) {
      budget_s = p.request.deadline_ms / 1000.0;
    }
    p.deadline = Deadline::After(budget_s);
  };

  if (state.mode == ConnState::Mode::kJson) {
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = conn.rbuf.find('\n', start);
      if (nl == std::string::npos) break;
      std::string line = conn.rbuf.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      add(false, [&line](QueryRequest* r) { return ParseRequest(line, r); });
    }
    if (start > 0) conn.rbuf.erase(0, start);
    // A line longer than the request cap can never become valid;
    // reject it and close rather than buffering without bound.
    if (conn.rbuf.size() > kMaxRequestBytes) {
      Enqueue(conn, FrameStatus::kBadRequest, 0,
              RenderError("bad_request", "request line too long"));
      conn.want_close = true;
      conn.rbuf.clear();
    }
  } else {
    std::size_t pos = 0;
    for (;;) {
      const std::string_view rest(conn.rbuf.data() + pos,
                                  conn.rbuf.size() - pos);
      std::size_t consumed = 0;
      std::uint8_t opcode = 0;
      std::string_view payload;
      std::string error;
      const FrameExtract got =
          ExtractFrame(rest, &consumed, &opcode, &payload, &error);
      if (got == FrameExtract::kNeedMore) break;
      if (got == FrameExtract::kError) {
        Enqueue(conn, FrameStatus::kBadRequest, 0,
                RenderError("bad_request", error));
        conn.want_close = true;
        conn.rbuf.clear();
        pos = 0;
        break;
      }
      add(true, [&](QueryRequest* r) {
        return ParseBinaryRequest(opcode, payload, r);
      });
      pos += consumed;
    }
    if (pos > 0) conn.rbuf.erase(0, pos);
  }

  if (batch.empty()) return;
  for (PendingRequest& p : batch) {
    ExecutePending(shard_id, conn, p);
  }
  state.idle = Deadline::After(options_.idle_timeout_s);
  if (shard.sm != nullptr && shard.sm->pending_frames != nullptr) {
    // Responses queued behind the socket after this wake's batch — a
    // last-writer snapshot across the shard's connections, enough to
    // see pipelining back-pressure build.
    shard.sm->pending_frames->Set(
        static_cast<double>(conn.outq.size() - conn.out_head));
  }
}

// farmer-lint: end(event-loop)

void Server::ExecutePending(std::size_t shard_id, Conn& conn,
                            PendingRequest& p) {
  const bool slow_log = options_.slow_query_ms > 0;
  // Latency clock only when the histogram or the slow-query log reads
  // it: telemetry off takes no clock reads.
  std::optional<Stopwatch> watch;
  if (metrics_.latency != nullptr || slow_log) watch.emplace();
  shards_[shard_id]->requests.fetch_add(1, std::memory_order_relaxed);
  if (metrics_.requests != nullptr) metrics_.requests->Increment();

  if (!p.parse.ok()) {
    if (metrics_.responses_error != nullptr) {
      metrics_.responses_error->Increment();
    }
    Enqueue(conn, FrameStatus::kBadRequest, p.request.bin_id,
            RenderError("bad_request", p.parse.message(),
                        p.binary ? "" : p.request.id));
    return;
  }

  RequestScope scope;
  RequestScope* scope_ptr = nullptr;
  if (options_.trace != nullptr || slow_log) {
    scope.trace = options_.trace;
    scope.lane = shard_id + 1;
    scope.req_id = p.trace_id;
    scope_ptr = &scope;
    if (options_.trace != nullptr && p.parse_start_ns != 0) {
      // The parse phase happened in ProcessBuffered; emit its span here
      // with the recorded timing (same lane, same producer thread).
      obs::TraceEvent parse_event;
      parse_event.name = "serve.parse";
      parse_event.phase = 'X';
      parse_event.lane = static_cast<std::uint32_t>(shard_id + 1);
      parse_event.ts_ns = p.parse_start_ns;
      parse_event.dur_ns = static_cast<std::uint64_t>(p.parse_s * 1e9);
      parse_event.arg1_name = "req_id";
      parse_event.arg1 = static_cast<std::int64_t>(p.trace_id);
      options_.trace->Emit(parse_event);
    }
  }

  obs::ScopedSpan span(options_.trace, shard_id + 1, SpanName(p.request.op));
  span.Arg("req_id", static_cast<std::int64_t>(p.trace_id));
  QueryOutcome out =
      p.request.op == QueryRequest::Op::kReload
          ? RunReload(p.request)
          : RunQuery(p.request, p.deadline, shard_id, scope_ptr);

  const double elapsed_s = watch ? watch->ElapsedSeconds() : 0.0;
  if (metrics_.latency != nullptr) {
    metrics_.latency->Observe(elapsed_s);
    const auto opi = static_cast<std::size_t>(p.request.op);
    if (opi < kOpCount && metrics_.op_latency[opi] != nullptr) {
      metrics_.op_latency[opi]->Observe(elapsed_s);
    }
  }
  if (out.error) {
    if (metrics_.responses_error != nullptr) {
      metrics_.responses_error->Increment();
    }
  } else if (metrics_.responses_ok != nullptr) {
    metrics_.responses_ok->Increment();
  }
  span.Arg("cached", out.cached ? 1 : 0);

  if (slow_log && elapsed_s * 1000.0 >= options_.slow_query_ms) {
    slow_queries_.fetch_add(1, std::memory_order_relaxed);
    if (metrics_.slow_queries != nullptr) metrics_.slow_queries->Increment();
    Shard& shard = *shards_[shard_id];
    const std::size_t every =
        options_.slow_query_every == 0 ? 1 : options_.slow_query_every;
    if (shard.slow_seen++ % every == 0) {
      EmitSlowQuery(shard_id, p, scope, out, elapsed_s * 1000.0);
    }
  }
  Enqueue(conn, out.status, p.request.bin_id, std::move(out.json));
}

Server::QueryOutcome Server::RunQuery(const QueryRequest& request,
                                      const Deadline& deadline,
                                      std::size_t shard_id,
                                      RequestScope* scope) {
  (void)shard_id;
  // Phase timing, active only when `scope` is non-null: one elapsed
  // time into the scope (for the slow-query breakdown) and one span
  // per phase when a trace session is attached. The disabled path
  // takes zero clock reads.
  struct PhaseTimer {
    RequestScope* scope;
    const char* name;
    double RequestScope::*field;
    std::chrono::steady_clock::time_point start;
    std::uint64_t start_ns = 0;

    PhaseTimer(RequestScope* s, const char* n, double RequestScope::*f)
        : scope(s), name(n), field(f) {
      if (scope == nullptr) return;
      start = std::chrono::steady_clock::now();
      if (scope->trace != nullptr) start_ns = scope->trace->NowNs();
    }
    PhaseTimer(const PhaseTimer&) = delete;
    PhaseTimer& operator=(const PhaseTimer&) = delete;
    ~PhaseTimer() {
      if (scope == nullptr) return;
      scope->*field += std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
      if (scope->trace != nullptr) {
        scope->trace->EndSpan(scope->lane, name, start_ns, "req_id",
                              static_cast<std::int64_t>(scope->req_id));
      }
    }
  };

  QueryOutcome out;
  // One acquire per request: everything below sees a single coherent
  // (index, version) pair, no matter how many swaps land meanwhile.
  const std::shared_ptr<const VersionedIndex> vi = Current();
  const RuleGroupIndex& index = vi->index;
  out.version = vi->version;

  const bool cacheable = IsCacheable(request);
  std::string key;
  if (cacheable) {
    PhaseTimer cache_phase(scope, "serve.cache_lookup",
                           &RequestScope::cache_s);
    key = CanonicalKey(request);
    std::string payload;
    if (cache_.Get(vi->version, key, &payload)) {
      if (metrics_.cache_hits != nullptr) metrics_.cache_hits->Increment();
      out.cached = true;
      out.json = FinishResponse(std::move(payload), /*cached=*/true,
                                request.id);
      return out;
    }
    if (metrics_.cache_misses != nullptr) metrics_.cache_misses->Increment();
  }

  const auto expired = [&](const char* message) {
    if (!deadline.ExpiredNow()) return false;
    if (metrics_.deadline_exceeded != nullptr) {
      metrics_.deadline_exceeded->Increment();
    }
    out.error = true;
    out.status = FrameStatus::kDeadlineExceeded;
    out.json = RenderError("deadline_exceeded", message, request.id);
    return true;
  };
  if (expired("deadline expired before query")) return out;

  std::vector<std::uint32_t> ids;
  {
    PhaseTimer index_phase(scope, "serve.index", &RequestScope::index_s);
    switch (request.op) {
      case QueryRequest::Op::kPing:
        out.json =
            FinishResponse(RenderPingPayload(request), /*cached=*/false,
                           request.id);
        return out;
      case QueryRequest::Op::kStats: {
        const ServeLiveStats live = GatherLiveStats();
        out.json = FinishResponse(RenderStatsPayload(request, index,
                                                     vi->version, &live),
                                  /*cached=*/false, request.id);
        return out;
      }
      case QueryRequest::Op::kMetrics:
        if (options_.metrics == nullptr) {
          out.error = true;
          out.status = FrameStatus::kBadRequest;
          out.json = RenderError(
              "bad_request", "metrics unavailable: no registry attached",
              request.id);
          return out;
        }
        out.json = FinishResponse(RenderMetricsPayload(RenderExposition()),
                                  /*cached=*/false, request.id);
        return out;
      case QueryRequest::Op::kReload:
        return RunReload(request);  // Dispatched earlier; kept total.
      case QueryRequest::Op::kTopkConfidence:
        ids = index.TopKByConfidence(request.k);
        break;
      case QueryRequest::Op::kTopkChiSquare:
        ids = index.TopKByChiSquare(request.k);
        break;
      case QueryRequest::Op::kContains:
        ids = index.AntecedentContains(request.items, request.limit);
        break;
      case QueryRequest::Op::kCover:
        ids = index.RowCover(request.items, request.limit);
        break;
      case QueryRequest::Op::kFilter:
        ids = index.Filter(request.min_support, request.min_confidence,
                           request.limit);
        break;
    }
    if (ids.size() > request.limit) ids.resize(request.limit);
  }

  if (expired("deadline expired during query")) return out;

  {
    PhaseTimer encode_phase(scope, "serve.encode", &RequestScope::encode_s);
    // The cache gets the one copy; the response finishes the original.
    std::string payload = RenderGroupsPayload(request, index, ids);
    if (cacheable) cache_.Put(vi->version, std::move(key), payload);
    out.json = FinishResponse(std::move(payload), /*cached=*/false,
                              request.id);
  }
  return out;
}

Server::QueryOutcome Server::RunReload(const QueryRequest& request) {
  QueryOutcome out;
  if (options_.snapshot_path.empty()) {
    out.error = true;
    out.status = FrameStatus::kBadRequest;
    out.json = RenderError("bad_request",
                           "reload unavailable: no snapshot path configured",
                           request.id);
    return out;
  }
  const Status swapped = ReloadFromFile(options_.snapshot_path);
  if (!swapped.ok()) {
    out.error = true;
    out.status = FrameStatus::kInternal;
    out.json = RenderError("internal", swapped.message(), request.id);
    return out;
  }
  const std::shared_ptr<const VersionedIndex> vi = Current();
  out.version = vi->version;
  out.json = FinishResponse(RenderReloadPayload(vi->version,
                                                vi->index.size()),
                            /*cached=*/false, request.id);
  return out;
}

std::string Server::RenderExposition() {
  if (options_.metrics == nullptr) return std::string();
  // The cache gauges are pull-model: refreshed from the ResponseCache's
  // own counters at scrape time rather than updated on every hit.
  const std::uint64_t hits = cache_.hits();
  const std::uint64_t misses = cache_.misses();
  if (metrics_.cache_entries != nullptr) {
    metrics_.cache_entries->Set(static_cast<double>(cache_.size()));
  }
  if (metrics_.cache_bytes != nullptr) {
    metrics_.cache_bytes->Set(static_cast<double>(cache_.bytes()));
  }
  if (metrics_.cache_evictions != nullptr) {
    metrics_.cache_evictions->Set(static_cast<double>(cache_.evictions()));
  }
  if (metrics_.cache_hit_ratio != nullptr) {
    const std::uint64_t lookups = hits + misses;
    metrics_.cache_hit_ratio->Set(
        lookups == 0 ? 0.0
                     : static_cast<double>(hits) /
                           static_cast<double>(lookups));
  }
  return obs::RenderPrometheus(options_.metrics->Snapshot());
}

ServeLiveStats Server::GatherLiveStats() const {
  ServeLiveStats live;
  live.active_connections =
      active_connections_.load(std::memory_order_relaxed);
  live.overloaded = overloaded_.load(std::memory_order_relaxed);
  live.slow_queries = slow_queries_.load(std::memory_order_relaxed);
  live.shard_connections.reserve(shards_.size());
  for (const auto& shard : shards_) {
    live.requests += shard->requests.load(std::memory_order_relaxed);
    live.shard_connections.push_back(
        shard->owned.load(std::memory_order_relaxed));
  }
  live.cache_hits = cache_.hits();
  live.cache_misses = cache_.misses();
  live.cache_entries = cache_.size();
  live.cache_bytes = cache_.bytes();
  live.cache_evictions = cache_.evictions();
  return live;
}

void Server::EmitSlowQuery(std::size_t shard_id, const PendingRequest& p,
                           const RequestScope& scope, const QueryOutcome& out,
                           double total_ms) {
  std::string line = "{\"ts\":";
  line += std::to_string(static_cast<long long>(std::time(nullptr)));
  line += ",\"shard\":";
  line += std::to_string(shard_id);
  line += ",\"req_id\":";
  line += std::to_string(scope.req_id);
  line += ",\"op\":\"";
  line += OpName(p.request.op);
  line += "\",\"query\":\"";
  line += obs::JsonEscape(CanonicalKey(p.request));
  line += "\",\"latency_ms\":";
  line += obs::JsonNumber(total_ms);
  line += ",\"parse_ms\":";
  line += obs::JsonNumber(p.parse_s * 1e3);
  line += ",\"cache_ms\":";
  line += obs::JsonNumber(scope.cache_s * 1e3);
  line += ",\"index_ms\":";
  line += obs::JsonNumber(scope.index_s * 1e3);
  line += ",\"encode_ms\":";
  line += obs::JsonNumber(scope.encode_s * 1e3);
  line += ",\"snapshot_version\":";
  line += std::to_string(out.version);
  line += ",\"cached\":";
  line += out.cached ? "true" : "false";
  line += ",\"status\":\"";
  line += out.error ? FrameStatusCode(out.status) : "ok";
  line += "\"}";
  if (options_.slow_query_log) {
    options_.slow_query_log(line);
  } else {
    std::fprintf(stderr, "farmer_serve slow-query %s\n", line.c_str());
  }
}

void Server::Enqueue(Conn& conn, FrameStatus status, std::uint64_t bin_id,
                     std::string json) {
  if (conn.state.mode == ConnState::Mode::kBinary) {
    // Header and body leave in one vectored send; the body is not
    // copied into a frame.
    conn.Queue(EncodeResponseFrameHeader(status, bin_id, json.size()));
    conn.Queue(std::move(json));
  } else if (conn.state.mode == ConnState::Mode::kHttp) {
    // Server-initiated errors on a scrape connection (idle timeout)
    // still have to be HTTP for the peer to parse them.
    json.push_back('\n');
    conn.Queue(HttpResponse("408 Request Timeout", "application/json", json));
  } else {
    // kDetect (no protocol spoken yet, e.g. an idle timeout before the
    // first byte) answers in JSON, like the old line-only server.
    json.push_back('\n');
    conn.Queue(std::move(json));
  }
}

}  // namespace serve
}  // namespace farmer
