#ifndef FARMER_SERVE_SERVER_H_
#define FARMER_SERVE_SERVER_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/cache.h"
#include "serve/index.h"
#include "serve/protocol.h"
#include "util/event_loop.h"
#include "util/status.h"
#include "util/sync.h"
#include "util/timer.h"

namespace farmer {
namespace serve {

/// A concurrent rule-group query server built around epoll readiness:
/// one blocking acceptor thread plus `num_shards` event-loop threads,
/// each one util/event_loop.h EventLoop. Each admitted connection is
/// handed to exactly one shard and never migrates, so all per-connection
/// state is thread-confined — no locks on the hot path. Sockets are
/// non-blocking; the shard's tick scans for idle and send-stall expiry.
///
/// Both wire framings of serve/protocol.h are spoken, auto-detected per
/// connection: line-delimited JSON, and FQP1 length-prefixed binary
/// frames. Requests pipeline in both: a shard parses every complete
/// request buffered on a readable socket (anchoring each request's
/// deadline at parse time), executes them in arrival order, and
/// coalesces all their responses into a single vectored send.
///
/// The serving snapshot is RCU-style hot-swappable: queries grab a
/// shared_ptr to an immutable (index, version) pair once per request; a
/// "reload" admin request — or ReloadFromFile(), which the CLI wires to
/// SIGHUP — validates a new snapshot off to the side and atomically
/// flips the pointer. In-flight requests keep their old snapshot alive;
/// new requests see the new version immediately; the response cache is
/// keyed by (version, canonical query) so a swap can never serve stale
/// payloads, and dead-version entries are reclaimed eagerly.
///
/// Admission control: at most `max_connections` connections at once.
/// Connections past the bound get an explicit overloaded error and are
/// closed — never silently dropped, never queued without bound.
/// Connections that complete no request within `idle_timeout_s` are
/// closed with an "idle_timeout" error; peers that stop reading while
/// responses are pending are dropped after `send_timeout_s` without
/// progress.
///
/// Shutdown() is graceful: the listener closes first, shards finish the
/// requests they have parsed, flush what the peers will accept, then
/// close their connections and exit.
///
/// Observability: when Options::metrics is set the server publishes
/// serve.* counters (requests, responses by kind, cache hits/misses,
/// overloaded rejections, reloads), gauges (active connections,
/// snapshot version, cache occupancy), per-op latency histograms
/// (labeled serve.op_latency_seconds{op=...}), per-shard event-loop
/// series (serve.shard_*{shard=...}), and a snapshot-swap timing
/// histogram. The registry is scrapeable live: the `metrics` op (both
/// framings) and a plain-HTTP `GET /metrics` (on the serve port, or on
/// the optional Options::metrics_port listener) render Prometheus text
/// exposition from any shard without stopping the world.
///
/// When Options::trace is set each request emits one op span plus
/// parse/cache-lookup/index/encode phase spans on its shard's lane,
/// keyed by req_id (build the session with num_shards + 1 lanes). When
/// Options::slow_query_ms > 0, requests slower than the threshold are
/// sampled into a structured JSON-lines slow-query log.
///
/// All telemetry is null-pointer-guarded: with metrics/trace unset and
/// slow_query_ms == 0 the hot path takes no clock reads, emits no
/// events, and responses are byte-identical to the uninstrumented
/// server.
class Server {
 public:
  struct Options {
    /// Listen address. Loopback by default: the protocol is unauthenti-
    /// cated, so exposing it wider is an explicit operator decision.
    std::string host = "127.0.0.1";
    /// TCP port; 0 binds an ephemeral port (read it back via port()).
    int port = 0;
    /// Event-loop shards. Each owns its connections outright.
    std::size_t num_shards = 4;
    /// Admission bound: connections accepted and not yet closed.
    std::size_t max_connections = 64;
    std::size_t cache_entries = 1024;
    std::size_t cache_bytes = std::size_t{16} << 20;
    /// Per-request deadline budget ceiling, seconds.
    double default_deadline_s = 1.0;
    /// Close connections that complete no request for this long (an
    /// "idle_timeout" error is sent first), freeing their admission
    /// slot: without it, max_connections silent clients lock the server
    /// against all new arrivals. Non-positive disables the timeout.
    double idle_timeout_s = 30.0;
    /// Drop connections whose pending responses make no send progress
    /// for this long (peer stopped reading; its TCP window is full).
    /// Non-positive disables the check.
    double send_timeout_s = 5.0;
    /// The snapshot file "reload" re-reads. Empty disables the reload
    /// op (it answers bad_request); ReloadFromFile() still works with
    /// an explicit path.
    std::string snapshot_path;
    /// Optional dedicated plain-HTTP metrics listener. Negative
    /// disables it; 0 binds an ephemeral port (read back via
    /// metrics_port()). Connections here bypass admission control so a
    /// scrape always succeeds, even mid-storm. The serve port answers
    /// `GET /metrics` too — this listener just isolates scrapes from
    /// the query admission budget.
    int metrics_port = -1;
    /// Requests slower than this (milliseconds, parse excluded) are
    /// logged as structured JSON lines through slow_query_log (or
    /// stderr when the sink is unset). Non-positive disables the log
    /// and its timing entirely.
    double slow_query_ms = 0.0;
    /// Sampling: log every Nth slow query per shard (1 = all).
    std::size_t slow_query_every = 1;
    /// Slow-query sink; called on shard threads, one complete JSON
    /// line per call (no trailing newline). Must be thread-safe.
    std::function<void(const std::string&)> slow_query_log;
    obs::MetricsRegistry* metrics = nullptr;
    obs::TraceSession* trace = nullptr;
  };

  /// Takes ownership of the index (and through it the snapshot), which
  /// becomes snapshot version 1.
  Server(RuleGroupIndex index, const Options& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the acceptor and shard threads.
  Status Start();

  /// The bound TCP port (valid after Start(); resolves port 0 binds).
  int port() const { return port_; }

  /// The bound metrics-listener port (valid after Start(); -1 when
  /// Options::metrics_port was negative).
  int metrics_port() const { return metrics_port_; }

  /// Graceful shutdown: stop accepting, finish parsed requests, flush,
  /// close connections, join the threads. Idempotent.
  void Shutdown();

  /// The currently served index. The shared_ptr keeps the snapshot
  /// alive across hot swaps for as long as the caller holds it.
  std::shared_ptr<const RuleGroupIndex> index() const;

  /// Version of the currently served snapshot (1 = the constructor's
  /// index; each successful swap increments it).
  std::uint64_t snapshot_version() const;

  /// Loads, validates, and atomically installs the snapshot at `path`.
  /// On any error the current snapshot keeps serving untouched.
  Status ReloadFromFile(const std::string& path);

  /// Atomically installs an already-built index as the next version.
  void InstallIndex(RuleGroupIndex index);

  ResponseCache& cache() { return cache_; }

  /// Connections rejected with an overloaded response so far.
  std::uint64_t overloaded_count() const {
    return overloaded_.load(std::memory_order_relaxed);
  }

 private:
  /// An immutable (index, version) pair — the unit of RCU publication.
  struct VersionedIndex {
    RuleGroupIndex index;
    std::uint64_t version;
  };

  /// One slot per QueryRequest::Op value.
  static constexpr std::size_t kOpCount = 9;

  struct Metrics {
    obs::Counter* requests = nullptr;
    obs::Counter* responses_ok = nullptr;
    obs::Counter* responses_error = nullptr;
    obs::Counter* cache_hits = nullptr;
    obs::Counter* cache_misses = nullptr;
    obs::Counter* overloaded = nullptr;
    obs::Counter* deadline_exceeded = nullptr;
    obs::Counter* reloads = nullptr;
    obs::Counter* slow_queries = nullptr;
    obs::Gauge* active_connections = nullptr;
    obs::Gauge* snapshot_version = nullptr;
    /// Refreshed at scrape time (metrics op / GET /metrics) from the
    /// ResponseCache's own counters.
    obs::Gauge* cache_entries = nullptr;
    obs::Gauge* cache_bytes = nullptr;
    obs::Gauge* cache_evictions = nullptr;
    obs::Gauge* cache_hit_ratio = nullptr;
    obs::Histogram* latency = nullptr;
    /// serve.op_latency_seconds{op=...}, indexed by Op.
    std::array<obs::Histogram*, kOpCount> op_latency{};
    /// Snapshot-swap timing (load + index build + install).
    obs::Histogram* reload_seconds = nullptr;
  };

  /// Per-shard event-loop series (serve.shard_*{shard=...}); the
  /// pointer array lives in shard_metrics_, resolved once in the
  /// constructor, so shard threads update them lock-free. The loop-level
  /// ones (wakeups, loop seconds, bytes, write stalls) the shard's
  /// EventLoop updates itself.
  struct ShardMetrics {
    EventLoopMetrics loop;
    obs::Gauge* connections = nullptr;
    obs::Gauge* pending_frames = nullptr;
  };

  /// One parsed (or failed-to-parse) request, deadline anchored at
  /// parse time so a queued pipelined request's budget burns while its
  /// predecessors execute.
  struct PendingRequest {
    Status parse = Status::Ok();
    QueryRequest request;
    Deadline deadline;
    bool binary = false;
    /// Request-scoped instrumentation, recorded at parse time only
    /// when tracing or the slow-query log is enabled: the trace id
    /// (bin_id, or a per-connection sequence for JSON requests) and
    /// the parse phase timing for the "serve.parse" span.
    std::uint64_t trace_id = 0;
    std::uint64_t parse_start_ns = 0;
    double parse_s = 0.0;
  };

  /// The serve protocol's per-connection state; the shard's EventLoop
  /// keeps the transport half (buffers, out-queue, stall clock).
  struct ConnState {
    enum class Mode { kDetect, kJson, kBinary, kHttp };

    Mode mode = Mode::kDetect;
    /// Monotonic per-connection request counter; stands in for a
    /// req_id on JSON requests when tracing is on.
    std::uint64_t trace_seq = 0;
    Deadline idle;
  };
  using ShardLoop = EventLoop<ConnState>;
  using Conn = ShardLoop::Conn;

  /// One event-loop thread and the connections the acceptor handed it.
  struct Shard {
    Shard(ShardLoop::Handler handler, const EventLoopMetrics& loop_metrics)
        : loop(std::move(handler), loop_metrics) {}

    ShardLoop loop;
    /// Written only by the owning shard (relaxed), read by any shard
    /// rendering the "stats" op — hence atomic.
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::size_t> owned{0};
    /// Shard-confined slow-query sampling counter.
    std::uint64_t slow_seen = 0;
    /// This shard's entry in shard_metrics_ (null when no registry).
    const ShardMetrics* sm = nullptr;
  };

  /// Per-request instrumentation context: trace lane + id and the
  /// phase timings the slow-query log reports. Allocated on the stack
  /// by ExecutePending only when tracing or the slow-query log is on;
  /// RunQuery takes it as a nullable pointer so the disabled path
  /// costs nothing.
  struct RequestScope {
    obs::TraceSession* trace = nullptr;
    std::size_t lane = 0;
    std::uint64_t req_id = 0;
    double cache_s = 0.0;
    double index_s = 0.0;
    double encode_s = 0.0;
  };

  /// The outcome of one executed request: the complete JSON response
  /// line plus the error class binary framing needs.
  struct QueryOutcome {
    bool error = false;
    bool cached = false;
    FrameStatus status = FrameStatus::kOk;
    /// Snapshot version the request ran against (slow-query log).
    std::uint64_t version = 0;
    std::string json;
  };

  std::shared_ptr<const VersionedIndex> Current() const;

  void AcceptLoop();
  /// Accepts one connection from `lfd` (poll said it is ready).
  /// Metrics-listener connections bypass the admission bound so a
  /// scrape succeeds even when query clients hold every slot. False =
  /// the listener is dead; AcceptLoop exits.
  bool AcceptOne(int lfd, bool admission_exempt, std::size_t* next_shard);
  void CloseListeners();
  /// A connection entered or left the shard.
  void CountConn(Shard& shard, bool opened);
  /// Scans the shard's connections for idle and send-stall expiry.
  void TickTimeouts(Shard& shard);
  /// Parses every complete request in conn.rbuf (stamping deadlines),
  /// then executes them in arrival order, queueing responses. Scrape
  /// connections go to AnswerScrape.
  void ProcessBuffered(std::size_t shard_id, Shard& shard, Conn& conn);
  /// Executes one parsed request and queues its response.
  void ExecutePending(std::size_t shard_id, Conn& conn, PendingRequest& p);
  /// Cache lookup + query engine for one valid request. `scope` is
  /// null unless tracing or the slow-query log wants phase timings.
  QueryOutcome RunQuery(const QueryRequest& request, const Deadline& deadline,
                        std::size_t shard_id, RequestScope* scope);
  /// The reload admin op (and SIGHUP): re-reads options_.snapshot_path.
  QueryOutcome RunReload(const QueryRequest& request);
  /// Refreshes the scrape-time cache gauges and renders the registry
  /// as Prometheus text ("" when no registry is attached).
  std::string RenderExposition();
  /// Collects the live serve-side values the "stats" op reports.
  ServeLiveStats GatherLiveStats() const;
  /// Renders and emits one slow-query log line.
  void EmitSlowQuery(std::size_t shard_id, const PendingRequest& p,
                     const RequestScope& scope, const QueryOutcome& out,
                     double total_ms);
  /// Queues response bytes (framed per the connection's mode).
  void Enqueue(Conn& conn, FrameStatus status, std::uint64_t bin_id,
               std::string json);
  void PublishActiveGauge();

  Options options_;
  ResponseCache cache_;
  Metrics metrics_;
  /// RenderExposition for AnswerScrape; empty when no registry.
  std::function<std::string()> scrape_render_;
  /// Indexed by shard id; empty when no registry is attached.
  std::vector<ShardMetrics> shard_metrics_;

  /// RCU publication point. Readers load once per request; writers
  /// (serialized by swap_mutex_) build the next VersionedIndex off to
  /// the side and store it here.
  std::atomic<std::shared_ptr<const VersionedIndex>> current_;
  /// Serializes snapshot writers (reload/install); readers never take it.
  Mutex swap_mutex_;

  /// Makes Shutdown() idempotent under concurrent callers.
  Mutex shutdown_mutex_;
  int listen_fd_ = -1;
  int port_ = 0;
  /// Optional dedicated scrape listener (see Options::metrics_port).
  int metrics_listen_fd_ = -1;
  int metrics_port_ = -1;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<std::size_t> active_connections_{0};
  std::atomic<std::uint64_t> overloaded_{0};
  std::atomic<std::uint64_t> slow_queries_{0};
  std::vector<std::unique_ptr<Shard>> shards_;
  std::thread accept_thread_;
};

}  // namespace serve
}  // namespace farmer

#endif  // FARMER_SERVE_SERVER_H_
