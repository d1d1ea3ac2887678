// The serving workloads: an in-process Server (3 shards) over the
// mine-lb store, driven by one load-generator thread on 4 connections.
//
//   serve-cover    FQP1 cover requests: a random dataset row with 10% of
//                  its items replaced, limit 100. Every key is unique, so
//                  the cache never hits and the JSON parser never runs.
//   serve-analyst  JSON-line topk / contains / filter requests drawn
//                  Zipf(1.1) from ~2,000 distinct queries, while a bench
//                  thread hot-swaps the snapshot from its file every 2 s.
//
// Phases (fractions of --seconds): warm-up 10% and open loop 70% at the
// nominal rate, then closed loop 20% (4 connections x 16 in flight).
// Open-loop latency runs from each request's due time, so a stalled
// generator or server charges every request queued behind the stall.

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/e2e/e2e.h"
#include "core/farmer.h"
#include "obs/metrics.h"
#include "serve/index.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "util/net.h"
#include "util/rng.h"
#include "util/sync.h"

namespace farmer {
namespace e2e {
namespace {

using serve::QueryRequest;
using serve::RuleGroupIndex;

constexpr std::size_t kShards = 3;
constexpr std::size_t kConns = 4;
constexpr std::size_t kClosedDepth = 16;
constexpr std::size_t kCheckEvery = 100;  // 1% of responses byte-checked.
constexpr std::size_t kAnalystQueries = 2000;
constexpr double kZipfS = 1.1;
constexpr double kReloadPeriodS = 2.0;
// Set-ups measured before the traffic and again after it.
constexpr int kSetupRepeats = 8;
// The traced run is short and fixed-length so that every request's spans
// fit the trace rings: 5 spans per uncached request over kShards lanes.
constexpr double kTracedWarmS = 0.5;
constexpr double kTracedOpenS = 1.0;
constexpr double kTracedClosedS = 0.2;
constexpr double kTracedReloadPeriodS = 0.4;
constexpr std::size_t kTracedEventsPerLane = std::size_t{1} << 19;

struct Request {
  std::string wire;
  QueryRequest query;
};

/// The seeded request stream of one serve workload.
class Traffic {
 public:
  Traffic(bool cover, const BinaryDataset& data, const RuleGroupIndex& index,
          std::size_t min_support, std::uint64_t seed)
      : cover_(cover), data_(data), rng_(seed) {
    if (!cover_) BuildAnalystQueries(index, min_support);
  }

  bool binary() const { return cover_; }

  Request Next(std::uint64_t seq) {
    if (cover_) return NextCover(seq);
    const double u = rng_.NextDouble();
    const std::size_t i = static_cast<std::size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return queries_[std::min(i, queries_.size() - 1)];
  }

 private:
  Request NextCover(std::uint64_t seq) {
    Request r;
    r.query.op = QueryRequest::Op::kCover;
    r.query.limit = 100;
    r.query.bin_id = seq;
    ItemVector items = data_.row(
        static_cast<RowId>(rng_.NextBelow(data_.num_rows())));
    const std::size_t replace = items.size() / 10;
    for (std::size_t k = 0; k < replace && !items.empty(); ++k) {
      items[rng_.NextBelow(items.size())] =
          static_cast<ItemId>(rng_.NextBelow(data_.num_items()));
    }
    std::sort(items.begin(), items.end());
    items.erase(std::unique(items.begin(), items.end()), items.end());
    r.query.items = std::move(items);
    r.wire = serve::EncodeBinaryRequest(r.query);
    return r;
  }

  // 40% topk (confidence or chi-square, k in {10, 100}), 30% contains
  // (1-2 items of a stored antecedent), 30% filter; distinct cache keys.
  // Ranks are in generation order, which is already random.
  void BuildAnalystQueries(const RuleGroupIndex& index,
                           std::size_t min_support) {
    std::set<std::string> keys;
    while (queries_.size() < kAnalystQueries) {
      const double u = rng_.NextDouble();
      std::string json;
      if (u < 0.4) {
        json = std::string("{\"op\":\"topk\",\"metric\":\"") +
               (rng_.NextBool(0.5) ? "confidence" : "chi_square") +
               "\",\"k\":" + (rng_.NextBool(0.5) ? "10" : "100") +
               ",\"limit\":" + std::to_string(rng_.NextInt(10, 500)) + "}";
      } else if (u < 0.7) {
        const RuleGroup& g = index.group(rng_.NextBelow(index.size()));
        if (g.antecedent.empty()) continue;
        json = "{\"op\":\"contains\",\"items\":[";
        const std::size_t n = 1 + rng_.NextBelow(2);
        for (std::size_t k = 0; k < n; ++k) {
          if (k > 0) json += ",";
          json += std::to_string(
              g.antecedent[rng_.NextBelow(g.antecedent.size())]);
        }
        json += "],\"limit\":100}";
      } else {
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "{\"op\":\"filter\",\"minsup\":%lld,"
                      "\"minconf\":0.%02lld,\"limit\":100}",
                      static_cast<long long>(rng_.NextInt(
                          static_cast<std::int64_t>(min_support),
                          static_cast<std::int64_t>(4 * min_support))),
                      static_cast<long long>(rng_.NextInt(50, 99)));
        json = buf;
      }
      Request r;
      if (!serve::ParseRequest(json, &r.query).ok()) continue;
      if (!keys.insert(serve::CanonicalKey(r.query)).second) continue;
      r.wire = json + "\n";
      queries_.push_back(std::move(r));
    }
    double total = 0.0;
    for (std::size_t i = 0; i < queries_.size(); ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfS);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  const bool cover_;
  const BinaryDataset& data_;
  Rng rng_;
  std::vector<Request> queries_;
  std::vector<double> cdf_;
};

/// True when `hash` is the hash of the bytes the server must send for
/// `q`: the payload rendered directly from a reference index, finished
/// with either cached flag.
bool MatchesReference(const RuleGroupIndex& ref, const QueryRequest& q,
                      std::size_t hash) {
  std::vector<std::uint32_t> ids;
  switch (q.op) {
    case QueryRequest::Op::kTopkConfidence:
      ids = ref.TopKByConfidence(q.k);
      break;
    case QueryRequest::Op::kTopkChiSquare:
      ids = ref.TopKByChiSquare(q.k);
      break;
    case QueryRequest::Op::kContains:
      ids = ref.AntecedentContains(q.items, q.limit);
      break;
    case QueryRequest::Op::kCover:
      ids = ref.RowCover(q.items, q.limit);
      break;
    case QueryRequest::Op::kFilter:
      ids = ref.Filter(q.min_support, q.min_confidence, q.limit);
      break;
    default:
      return false;
  }
  if (ids.size() > q.limit) ids.resize(q.limit);
  const std::string payload = serve::RenderGroupsPayload(q, ref, ids);
  const std::hash<std::string_view> h;
  return hash == h(serve::FinishResponse(payload, false, q.id)) ||
         hash == h(serve::FinishResponse(payload, true, q.id));
}

struct Phase {
  std::vector<double> latency_s;  // Ok responses, from due/send time.
  std::vector<double> late_s;     // Open loop: send time - due time.
  std::size_t sent = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::size_t backlog_max = 0;
  std::size_t done_before_end = 0;  // Ok responses before the phase end.
  double seconds = 0.0;
};

/// One thread, kConns connections, non-blocking sockets and ppoll.
/// Responses arrive in request order per connection (both framings).
class LoadGen {
 public:
  /// A byte-checked response: its request and a hash of its bytes.
  struct Sample {
    QueryRequest query;
    std::size_t hash = 0;
  };

  LoadGen(Traffic* traffic, std::uint64_t check_offset)
      : traffic_(traffic), check_offset_(check_offset % kCheckEvery) {}

  ~LoadGen() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
  }

  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  Status Connect(int port) {
    port_ = port;
    conns_.resize(kConns);
    for (Conn& c : conns_) {
      const Status st = Reconnect(&c);
      if (!st.ok()) return st;
    }
    return Status::Ok();
  }

  /// Open loop: requests due every 1/rate seconds for `seconds`.
  Phase Open(double rate, double seconds) { return Run(rate, 0, seconds); }
  /// Closed loop: `depth` requests in flight per connection.
  Phase Closed(std::size_t depth, double seconds) {
    return Run(0.0, depth, seconds);
  }

  const std::vector<Sample>& samples() const { return samples_; }

 private:
  struct InFlight {
    double t0;  // Due time (open loop) or send time (closed loop).
    std::uint64_t seq;
    bool check;
    QueryRequest query;  // Kept only when `check`.
  };
  struct Conn {
    int fd = -1;
    bool dead = false;
    std::string rbuf;
    std::size_t rpos = 0;
    std::string wbuf;
    std::size_t wpos = 0;
    std::deque<InFlight> inflight;
  };

  Status Reconnect(Conn* c) {
    if (c->fd >= 0) ::close(c->fd);
    *c = Conn{};
    Status st = net::ConnectToHost("127.0.0.1", port_, 5.0, &c->fd);
    if (st.ok() && traffic_->binary() &&
        !net::SendAll(c->fd, std::string_view(serve::kBinaryPreamble,
                                              serve::kBinaryPreambleSize))) {
      st = Status::IoError("preamble send failed");
    }
    if (st.ok() && !net::SetNonBlocking(c->fd)) {
      st = Status::IoError("fcntl failed");
    }
    if (!st.ok()) {
      if (c->fd >= 0) ::close(c->fd);
      c->fd = -1;
      c->dead = true;
      return st;
    }
    net::SetTcpNoDelay(c->fd);
    return st;
  }

  void Enqueue(Conn& c, double t0, Phase* phase) {
    const std::uint64_t seq = ++seq_;
    Request r = traffic_->Next(seq);
    ++phase->sent;
    if (c.dead) {
      ++phase->failed;
      return;
    }
    const bool check = seq % kCheckEvery == check_offset_;
    c.inflight.push_back(
        InFlight{t0, seq, check, check ? std::move(r.query) : QueryRequest{}});
    c.wbuf += r.wire;
  }

  void Flush(Conn& c) {
    while (!c.dead && c.wpos < c.wbuf.size()) {
      const ssize_t n = ::send(c.fd, c.wbuf.data() + c.wpos,
                               c.wbuf.size() - c.wpos,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        c.wpos += static_cast<std::size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      } else {
        c.dead = true;
      }
    }
    c.wbuf.clear();
    c.wpos = 0;
  }

  /// A dead connection's in-flight requests will never be answered.
  static void Reap(Conn& c, Phase* phase) {
    if (!c.dead) return;
    phase->failed += c.inflight.size();
    c.inflight.clear();
  }

  /// Cuts one response off c.rbuf: *ok, *seq (binary only) and *json,
  /// which stays valid until the buffer is next compacted.
  bool NextResponse(Conn& c, bool* ok, std::uint64_t* seq,
                    std::string_view* json) {
    const std::size_t avail = c.rbuf.size() - c.rpos;
    if (traffic_->binary()) {
      std::uint32_t len = 0;
      if (avail < sizeof(len)) return false;
      std::memcpy(&len, c.rbuf.data() + c.rpos, sizeof(len));
      if (avail < sizeof(len) + len) return false;
      serve::FrameStatus status = serve::FrameStatus::kInternal;
      const Status decoded = serve::DecodeResponseFrame(
          std::string_view(c.rbuf.data() + c.rpos + sizeof(len), len),
          &status, seq, &frame_json_);
      c.rpos += sizeof(len) + len;
      *ok = decoded.ok() && status == serve::FrameStatus::kOk;
      *json = frame_json_;
      return true;
    }
    const std::size_t nl = c.rbuf.find('\n', c.rpos);
    if (nl == std::string::npos) return false;
    *json = std::string_view(c.rbuf.data() + c.rpos, nl - c.rpos);
    c.rpos = nl + 1;
    *ok = json->substr(0, 10) == "{\"ok\":true";
    *seq = 0;
    return true;
  }

  void Receive(Conn& c, double end, std::size_t depth, Phase* phase) {
    char chunk[1 << 16];
    while (!c.dead) {
      const ssize_t n = ::recv(c.fd, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (n > 0) {
        c.rbuf.append(chunk, static_cast<std::size_t>(n));
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else {
        c.dead = true;  // EOF or error.
      }
    }
    bool ok = false;
    std::uint64_t seq = 0;
    std::string_view json;
    while (!c.inflight.empty() && NextResponse(c, &ok, &seq, &json)) {
      InFlight& in = c.inflight.front();
      const double now = Now();
      if (traffic_->binary() && seq != in.seq) ok = false;
      if (ok) {
        ++phase->ok;
        phase->latency_s.push_back(now - in.t0);
        if (now < end) ++phase->done_before_end;
      } else {
        ++phase->failed;
      }
      if (in.check) {
        samples_.push_back(
            Sample{std::move(in.query), std::hash<std::string_view>{}(json)});
      }
      c.inflight.pop_front();
      if (depth > 0 && now < end) Enqueue(c, now, phase);
    }
    if (c.rpos == c.rbuf.size()) {
      c.rbuf.clear();
      c.rpos = 0;
    } else if (c.rpos > (std::size_t{1} << 20)) {
      c.rbuf.erase(0, c.rpos);
      c.rpos = 0;
    }
    Flush(c);
  }

  Phase Run(double rate, std::size_t depth, double seconds) {
    Phase phase;
    phase.seconds = seconds;
    // A connection an earlier phase gave up on has lost its response
    // order; start this phase on a fresh one.
    for (Conn& c : conns_) {
      if (c.dead) (void)Reconnect(&c);
    }
    const double start = Now() + 1e-3;
    const double end = start + seconds;
    const double give_up = end + 3.0;
    std::size_t next = 0;
    const auto due = [&](std::size_t i) {
      return start + static_cast<double>(i) / rate;
    };
    if (depth > 0) {
      for (Conn& c : conns_) {
        for (std::size_t d = 0; d < depth; ++d) Enqueue(c, Now(), &phase);
        Flush(c);
      }
    }
    std::vector<pollfd> fds(conns_.size());
    while (true) {
      double now = Now();
      if (depth == 0) {
        const std::size_t first = next;
        while (due(next) < end && due(next) <= now) {
          Enqueue(conns_[next % conns_.size()], due(next), &phase);
          ++next;
        }
        if (next > first) {
          for (Conn& c : conns_) Flush(c);
          now = Now();
          for (std::size_t i = first; i < next; ++i) {
            phase.late_s.push_back(now - due(i));
          }
        }
      }
      std::size_t outstanding = 0;
      for (Conn& c : conns_) {
        Reap(c, &phase);
        outstanding += c.inflight.size();
      }
      phase.backlog_max = std::max(phase.backlog_max, outstanding);
      const bool sending = depth == 0 ? due(next) < end : now < end;
      if (!sending && outstanding == 0) break;
      if (now >= give_up) break;
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        const Conn& c = conns_[i];
        fds[i].fd = c.dead ? -1 : c.fd;
        fds[i].events =
            static_cast<short>(POLLIN | (c.wpos < c.wbuf.size() ? POLLOUT : 0));
        fds[i].revents = 0;
      }
      // The generator spins (zero timeout) rather than sleeping: on a
      // virtual machine, waking an idle vCPU took up to several ms, which
      // made the generator late and charged that to open-loop latency.
      timespec spin{};
      if (::ppoll(fds.data(), fds.size(), &spin, nullptr) <= 0) continue;
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        if (fds[i].revents & POLLOUT) Flush(conns_[i]);
        if (fds[i].revents & (POLLIN | POLLERR | POLLHUP)) {
          Receive(conns_[i], end, depth, &phase);
        }
      }
    }
    // Whatever is still in flight never arrived.
    for (Conn& c : conns_) {
      if (!c.inflight.empty()) c.dead = true;
      Reap(c, &phase);
    }
    return phase;
  }

  Traffic* traffic_;
  const std::uint64_t check_offset_;
  int port_ = 0;
  std::vector<Conn> conns_;
  std::uint64_t seq_ = 0;
  std::string frame_json_;  // Decode scratch for FQP1 responses.
  std::vector<Sample> samples_;
};

/// Calls Server::ReloadFromFile every `period_s` until stopped.
class Reloader {
 public:
  Reloader(serve::Server* server, std::string path, double period_s,
           obs::TraceSession* trace, std::size_t lane)
      : server_(server),
        path_(std::move(path)),
        period_s_(period_s),
        trace_(trace),
        lane_(lane) {
    thread_ = std::thread([this] { Loop(); });
  }

  ~Reloader() { Stop(); }

  Reloader(const Reloader&) = delete;
  Reloader& operator=(const Reloader&) = delete;

  void Stop() {
    {
      MutexLock lock(mutex_);
      stop_ = true;
    }
    cv_.NotifyAll();
    if (thread_.joinable()) thread_.join();
  }

  /// Valid after Stop().
  const std::vector<double>& seconds() const { return seconds_; }
  std::size_t failures() const { return failures_; }

 private:
  void Loop() {
    while (true) {
      {
        MutexLock lock(mutex_);
        const double until = Now() + period_s_;
        while (!stop_ && Now() < until) {
          cv_.WaitForSeconds(mutex_, until - Now());
        }
        if (stop_) return;
      }
      const double t = Now();
      obs::ScopedSpan span(trace_, lane_, "serve.reload");
      if (!server_->ReloadFromFile(path_).ok()) ++failures_;
      seconds_.push_back(Now() - t);
    }
  }

  serve::Server* server_;
  const std::string path_;
  const double period_s_;
  obs::TraceSession* trace_;
  const std::size_t lane_;
  Mutex mutex_;
  CondVar cv_;
  bool stop_ FARMER_GUARDED_BY(mutex_) = false;
  std::vector<double> seconds_;
  std::size_t failures_ = 0;
  std::thread thread_;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Times of server set-ups (snapshot read + LoadSnapshotFromBuffer,
/// RuleGroupIndex, Server construction + Start).
struct SetupTimes {
  std::vector<double> load, index, start, total;
};

/// Sets a server up kSetupRepeats times and returns the last one,
/// running.
std::unique_ptr<serve::Server> StartServer(const std::string& fsnap,
                                           obs::TraceSession* trace,
                                           obs::MetricsRegistry* metrics,
                                           std::size_t lane,
                                           SetupTimes* times) {
  serve::Server::Options opts;
  opts.num_shards = kShards;
  opts.snapshot_path = fsnap;
  opts.trace = trace;
  opts.metrics = metrics;
  std::unique_ptr<serve::Server> server;
  for (int k = 0; k < kSetupRepeats; ++k) {
    if (server != nullptr) server->Shutdown();
    server.reset();
    const double t0 = Now();
    serve::RuleGroupSnapshot snap;
    {
      obs::ScopedSpan span(trace, lane, "serve.snapshot_load");
      const Status st = serve::LoadSnapshotFromBuffer(ReadFile(fsnap), fsnap,
                                                      &snap);
      if (!st.ok()) {
        std::fprintf(stderr, "bench_e2e: %s\n", st.ToString().c_str());
        std::exit(2);
      }
    }
    const double t1 = Now();
    std::unique_ptr<RuleGroupIndex> built;
    {
      obs::ScopedSpan span(trace, lane, "serve.index_build");
      built = std::make_unique<RuleGroupIndex>(std::move(snap), kShards);
    }
    const double t2 = Now();
    {
      obs::ScopedSpan span(trace, lane, "serve.start");
      server = std::make_unique<serve::Server>(std::move(*built), opts);
      const Status st = server->Start();
      if (!st.ok()) {
        std::fprintf(stderr, "bench_e2e: server start: %s\n",
                     st.ToString().c_str());
        std::exit(2);
      }
    }
    const double t3 = Now();
    times->load.push_back(t1 - t0);
    times->index.push_back(t2 - t1);
    times->start.push_back(t3 - t2);
    times->total.push_back(t3 - t0);
  }
  return server;
}

struct ServeSetup {
  bool cover = false;
  std::string fsnap;
  LoadedInput input;
  std::unique_ptr<RuleGroupIndex> reference;  // One bank: the checks.
};

/// Byte-checks the sampled responses against the reference index.
void CheckSamples(const ServeSetup& setup, const LoadGen& gen,
                  Report* report) {
  std::size_t bad = 0;
  for (const LoadGen::Sample& sample : gen.samples()) {
    if (!MatchesReference(*setup.reference, sample.query, sample.hash)) ++bad;
  }
  report->FailMany(bad, "response differs from the reference rendering");
}

void AccountPhase(const Phase& p, Report* report, const char* name) {
  report->Attempt(p.sent);
  report->FailMany(p.failed, std::string(name) + " requests failed");
}

void RunUntraced(const Config& config, const ServeSetup& setup,
                 Traffic* traffic, Report* report) {
  const double s = config.seconds;
  SetupTimes setups;
  std::unique_ptr<serve::Server> server =
      StartServer(setup.fsnap, nullptr, nullptr, 0, &setups);
  LoadGen gen(traffic, config.seed);
  const Status connected = gen.Connect(server->port());
  if (!connected.ok()) {
    report->Attempt();
    report->Fail("connect: " + connected.ToString());
    return;
  }
  std::unique_ptr<Reloader> reloader;
  if (!setup.cover) {
    reloader = std::make_unique<Reloader>(server.get(), setup.fsnap,
                                          kReloadPeriodS, nullptr, 0);
  }
  ResetPeakRss();
  const double rate = config.nominal_qps;
  const Phase warm = gen.Open(rate, 0.1 * s);
  // Server CPU: the process's minus the generator's (this thread's); the
  // reloader's swaps are server work.
  const double cpu0 = ProcessCpuSeconds() - ThreadCpuSeconds();
  const Phase open = gen.Open(rate, 0.7 * s);
  const double open_cpu = ProcessCpuSeconds() - ThreadCpuSeconds() - cpu0;
  const Phase closed = gen.Closed(kClosedDepth, 0.2 * s);
  if (reloader != nullptr) reloader->Stop();
  const double peak_rss_mb = PeakRssMb();
  const serve::ResponseCache& cache = server->cache();
  const double hits = static_cast<double>(cache.hits());
  const double lookups = hits + static_cast<double>(cache.misses());
  server->Shutdown();
  // The set-ups again, so that they span the run as the mines' do.
  StartServer(setup.fsnap, nullptr, nullptr, 0, &setups)->Shutdown();

  AccountPhase(warm, report, "warm-up");
  AccountPhase(open, report, "open-loop");
  AccountPhase(closed, report, "closed-loop");
  if (reloader != nullptr) {
    report->Attempt(reloader->seconds().size());
    report->FailMany(reloader->failures(), "snapshot reloads failed");
  }
  CheckSamples(setup, gen, report);

  const double late_p99_ms = Quantile(open.late_s, 0.99) * 1e3;
  report->Set("setup_s", Median(setups.total));
  report->Set("latency_ms", Median(open.latency_s) * 1e3);
  report->Set("cpu_ms",
              open.ok > 0 ? open_cpu / static_cast<double>(open.ok) * 1e3
                          : 0.0);
  report->Set("peak_rss_mb", peak_rss_mb);
  report->Info("p99_ms", Quantile(open.latency_s, 0.99) * 1e3, "ms");
  report->Info("open_loop.n", static_cast<double>(open.latency_s.size()),
               "count");
  InfoQuartiles(report, "setup_s", setups.total, "s");
  report->Info("nominal_qps", rate, "req/s");
  report->Info("peak_qps",
               static_cast<double>(closed.done_before_end) / closed.seconds,
               "req/s");
  report->Info("loadgen.late_ms.p99", late_p99_ms, "ms");
  report->Info("loadgen.backlog_max", static_cast<double>(open.backlog_max),
               "count");
  report->Info("cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0,
               "ratio");
  if (late_p99_ms > 1.0) {
    std::fprintf(stderr,
                 "bench_e2e: warning: load generator ran %.3f ms late at "
                 "p99; open-loop latency is generator-limited\n",
                 late_p99_ms);
  }
}

double SumFamily(const obs::MetricsSnapshot& snap, const std::string& base) {
  double total = 0.0;
  for (const auto& c : snap.counters) {
    if (c.name == base || c.name.rfind(base + "{", 0) == 0) total += c.value;
  }
  for (const auto& h : snap.histograms) {
    if (h.name == base || h.name.rfind(base + "{", 0) == 0) total += h.sum;
  }
  return total;
}

void RunTraced(const Config& config, const ServeSetup& setup,
               Traffic* traffic, Report* report) {
  // The fixed lengths apply from 15 s runs up; shorter runs scale them.
  const double s = std::min(1.0, config.seconds / 15.0);
  const double rate = config.nominal_qps;
  // Untraced baseline for the tracing overhead.
  double base_p50_ms = 0.0;
  {
    SetupTimes untraced;
    std::unique_ptr<serve::Server> server =
        StartServer(setup.fsnap, nullptr, nullptr, 0, &untraced);
    LoadGen gen(traffic, config.seed);
    if (!gen.Connect(server->port()).ok()) {
      report->Attempt();
      report->Fail("connect");
      return;
    }
    const Phase warm = gen.Open(rate, kTracedWarmS * s);
    const Phase open = gen.Open(rate, kTracedOpenS * s);
    server->Shutdown();
    AccountPhase(warm, report, "warm-up");
    AccountPhase(open, report, "open-loop");
    CheckSamples(setup, gen, report);
    base_p50_ms = Median(open.latency_s) * 1e3;
  }

  const std::size_t lane = kShards + 1;  // No shard writes it.
  obs::TraceSession session(kShards + 2, kTracedEventsPerLane);
  obs::MetricsRegistry metrics;
  SetupTimes setups;
  std::unique_ptr<serve::Server> server =
      StartServer(setup.fsnap, &session, &metrics, lane, &setups);
  const double t0 = Now();
  LoadGen gen(traffic, config.seed);
  if (!gen.Connect(server->port()).ok()) {
    report->Attempt();
    report->Fail("connect");
    return;
  }
  std::unique_ptr<Reloader> reloader;
  if (!setup.cover) {
    reloader = std::make_unique<Reloader>(server.get(), setup.fsnap,
                                          kTracedReloadPeriodS * s, &session,
                                          lane);
  }
  const Phase warm = gen.Open(rate, kTracedWarmS * s);
  const Phase open = gen.Open(rate, kTracedOpenS * s);
  const Phase closed = gen.Closed(kClosedDepth, kTracedClosedS * s);
  if (reloader != nullptr) reloader->Stop();
  const double wall = Now() - t0;
  const serve::ResponseCache& cache = server->cache();
  const double hits = static_cast<double>(cache.hits());
  const double lookups = hits + static_cast<double>(cache.misses());
  const double evictions = static_cast<double>(cache.evictions());
  server->Shutdown();

  AccountPhase(warm, report, "warm-up");
  AccountPhase(open, report, "open-loop");
  AccountPhase(closed, report, "closed-loop");
  if (reloader != nullptr) {
    report->Attempt(reloader->seconds().size());
    report->FailMany(reloader->failures(), "snapshot reloads failed");
  }
  CheckSamples(setup, gen, report);
  const Status written = session.WriteJsonFile(
      config.work_dir + "/trace_" + config.workload + ".json");
  if (!written.ok()) report->Fail("trace write: " + written.ToString());

  const SpanStats st = AnalyzeTrace(session);
  const obs::MetricsSnapshot snap = metrics.Snapshot();
  const double requests = std::max(1.0, SumFamily(snap, "serve.requests"));
  report->Set("serve.snapshot_load_s", Median(setups.load));
  report->Set("serve.index_build_s", Median(setups.index));
  report->Set("serve.start_s", Median(setups.start));
  report->Set("serve.parse_us", Median(st.Durations("serve.parse")) * 1e6);
  report->Set("serve.cache_lookup_us",
              Median(st.Durations("serve.cache_lookup")) * 1e6);
  report->Set("serve.cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0);
  report->Set("serve.cache_evictions", evictions);
  if (reloader != nullptr) {
    report->Set("serve.reload_s.p50", Median(reloader->seconds()));
    report->Set("serve.reload_s.max", Max(reloader->seconds()));
  }
  const std::vector<double> index = st.Durations("serve.index");
  const std::vector<double> encode = st.Durations("serve.encode");
  report->Set("serve.index_us.p50", Quantile(index, 0.50) * 1e6);
  report->Set("serve.index_us.p99", Quantile(index, 0.99) * 1e6);
  report->Set("serve.encode_us.p50", Quantile(encode, 0.50) * 1e6);
  report->Set("serve.encode_us.p99", Quantile(encode, 0.99) * 1e6);
  report->Set("serve.bytes_out_per_req",
              SumFamily(snap, "serve.shard_bytes_out") / requests);
  report->Set("serve.loop_busy_ratio",
              SumFamily(snap, "serve.shard_loop_seconds") / (kShards * wall));
  report->Set("serve.wakeups_per_req",
              SumFamily(snap, "serve.shard_wakeups") / requests);
  report->Set("serve.write_stalls",
              SumFamily(snap, "serve.shard_write_stalls"));
  report->Set("serve.overloaded", SumFamily(snap, "serve.overloaded"));
  report->Set("serve.deadline_exceeded",
              SumFamily(snap, "serve.deadline_exceeded"));
  report->Set("loadgen.late_ms.p99", Quantile(open.late_s, 0.99) * 1e3);
  report->Set("loadgen.backlog_max", static_cast<double>(open.backlog_max));
  const double traced_p50_ms = Median(open.latency_s) * 1e3;
  report->Set("trace.overhead",
              base_p50_ms > 0 ? traced_p50_ms / base_p50_ms : 0.0);
  report->Info("p50_ms.untraced", base_p50_ms, "ms");
  report->Info("p50_ms.traced", traced_p50_ms, "ms");
  double ops = 0.0;
  for (const char* op :
       {"serve.topk", "serve.contains", "serve.cover", "serve.filter"}) {
    ops += st.Total(op);
  }
  const double phases = st.Total("serve.cache_lookup") +
                        st.Total("serve.index") + st.Total("serve.encode");
  report->Set("trace.coverage", ops > 0 ? phases / ops : 0.0);
  report->Set("trace.dropped_events",
              static_cast<double>(session.total_dropped()));
}

}  // namespace

void RunServe(const Config& config, Report* report) {
  const MineShape& shape = *ShapeOf(config.workload, config.smoke);
  ServeSetup setup;
  setup.cover = config.workload == "serve-cover";

  // Untimed preparation: mine the store, check it, write the FSNP file.
  const MineInput input = WriteMineInput(shape, config.seed, config.work_dir);
  setup.input = LoadMineInput(input.csv_path, nullptr, 0);
  const MinerOptions opts = MinerOptionsFor(shape, kThreads);
  serve::RuleGroupSnapshot snap;
  {
    FarmerResult mined = MineFarmer(setup.input.data, opts);
    snap.groups = std::move(mined.groups);
  }
  snap.num_rows = setup.input.data.num_rows();
  snap.params = serve::SnapshotParams::FromMinerOptions(opts);
  snap.fingerprint = serve::SnapshotFingerprint::FromDataset(setup.input.data);
  const std::string digest =
      CanonicalDigest(snap.groups, setup.input.disc, input.base_gene);
  setup.fsnap = config.work_dir + "/" + config.workload + "-" +
                std::to_string(config.seed) + ".fsnap";
  const Status saved = serve::SaveSnapshot(snap, setup.fsnap);
  if (!saved.ok()) {
    std::fprintf(stderr, "bench_e2e: %s\n", saved.ToString().c_str());
    std::exit(2);
  }
  setup.reference = std::make_unique<RuleGroupIndex>(std::move(snap), 1);

  Traffic traffic(setup.cover, setup.input.data, *setup.reference,
                  shape.min_support, config.seed);
  if (config.trace) {
    RunTraced(config, setup, &traffic, report);
  } else {
    RunUntraced(config, setup, &traffic, report);
  }

  // After the peak RSS was read: the reference mine may not inflate it.
  const std::string expect = config.expect_digest.empty()
                                 ? ReferenceDigest(shape, input)
                                 : config.expect_digest;
  report->Attempt();
  if (digest != expect) {
    report->Fail("store digest " + digest + " != expected " + expect);
  }
}

}  // namespace e2e
}  // namespace farmer
