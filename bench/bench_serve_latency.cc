// Latency/throughput benchmark of the rule-group query server: an
// in-process Server on an ephemeral loopback port, driven by 1, 4 and
// 16 concurrent client connections. Three measurement groups:
//
//   cold/warm   — JSON line protocol, one request in flight per
//                 connection. cold clears the cache and gives every
//                 request a unique canonical key (full engine + render
//                 path); warm replays a primed 8-query working set from
//                 the LRU cache.
//   pipelined   — FQP1 binary framing with a sliding window of
//                 requests in flight per connection, over the warm
//                 working set. Reports qps and p50/p99 per
//                 (clients, pipeline depth); latency is measured from
//                 submit (frame written) to response receipt.
//   swap storm  — 16 pipelined clients drive mixed queries while the
//                 snapshot is hot-swapped several times mid-storm.
//                 Every request must still succeed and the snapshot
//                 version must end where the swap count says.
//
// Gates (exit 1):
//   * any request failure in any phase;
//   * warm p50 not strictly below cold p50 (the cache must beat the
//     engine or it is dead weight).
// Latency bounds keyed to the host live in the end-to-end benchmark
// (bench/e2e, workloads serve-cover and serve-analyst), not here.
//
// Every measurement is appended to BENCH_serve_latency.json.
//
// Extra knobs (on top of bench_common's):
//   --count <n>   total requests per phase (default 400, min 200)
//   --port <p>    drive an already-running server on 127.0.0.1:<p>
//                 instead of an in-process one (single mixed phase, no
//                 cache assertions — for CI smoke against farmer_serve)
//   --telemetry   attach a metrics registry to the in-process server
//                 (per-op histograms, per-shard gauges — the full
//                 instrumented path), for A/B runs against the default
//                 telemetry-off configuration

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_json.h"
#include "core/farmer.h"
#include "obs/metrics.h"
#include "serve/index.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "util/status.h"
#include "util/timer.h"

namespace farmer {
namespace bench {
namespace {

using serve::RuleGroupIndex;
using serve::RuleGroupSnapshot;
using serve::Server;

/// A blocking loopback client for one connection.
class Client {
 public:
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      return false;
    }
    // Pipelining keeps unacked data in flight, so Nagle would hold
    // every window top-up hostage to the peer's delayed ACK.
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return true;
  }

  bool SendAll(const std::string& data) {
    std::size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Sends one request line and reads one response line. Returns false
  /// on any socket error or EOF.
  bool RoundTrip(const std::string& request, std::string* response) {
    if (!SendAll(request + "\n")) return false;
    while (true) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        *response = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// Reads one FQP1 response frame. Returns false on socket error/EOF
  /// or an undecodable frame.
  bool RecvFrame(serve::FrameStatus* status, std::uint64_t* req_id,
                 std::string* json) {
    while (true) {
      if (buffer_.size() >= 4) {
        std::uint32_t len = 0;
        std::memcpy(&len, buffer_.data(), sizeof(len));
        if (buffer_.size() >= 4 + static_cast<std::size_t>(len)) {
          const Status decoded = serve::DecodeResponseFrame(
              std::string_view(buffer_.data() + 4, len), status, req_id,
              json);
          buffer_.erase(0, 4 + static_cast<std::size_t>(len));
          return decoded.ok();
        }
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

std::string ItemsJson(const ItemVector& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(items[i]);
  }
  return out + "]";
}

/// The mixed query workload. `uniq` feeds every variable field, so two
/// distinct values always produce distinct canonical keys (the cold
/// phase relies on this to defeat the cache).
std::string MakeQuery(std::size_t uniq, const BinaryDataset& dataset) {
  switch (uniq % 5) {
    case 0:
      return "{\"op\":\"topk\",\"metric\":\"confidence\",\"k\":" +
             std::to_string(1 + uniq) + ",\"limit\":5000}";
    case 1:
      return "{\"op\":\"topk\",\"metric\":\"chi_square\",\"k\":" +
             std::to_string(1 + uniq) + ",\"limit\":5000}";
    case 2:
      return "{\"op\":\"filter\",\"minsup\":" + std::to_string(uniq / 100) +
             ",\"minconf\":0." + std::to_string(10 + uniq % 89) +
             ",\"limit\":5000}";
    case 3:
      return "{\"op\":\"contains\",\"items\":[" +
             std::to_string(uniq % dataset.num_items()) +
             "],\"limit\":" + std::to_string(100 + uniq) + "}";
    default:
      return "{\"op\":\"cover\",\"items\":" +
             ItemsJson(dataset.row(uniq % dataset.num_rows())) +
             ",\"limit\":" + std::to_string(100 + uniq) + "}";
  }
}

struct PhaseResult {
  std::vector<double> latencies;  // Seconds per round trip.
  double wall_seconds = 0.0;
  std::size_t requests = 0;
  std::size_t failures = 0;
};

void Collect(PhaseResult* result, std::vector<std::vector<double>>& lat,
             const std::vector<std::size_t>& failures) {
  for (std::size_t c = 0; c < lat.size(); ++c) {
    result->latencies.insert(result->latencies.end(), lat[c].begin(),
                             lat[c].end());
    result->failures += failures[c];
  }
  result->requests = result->latencies.size();
  std::sort(result->latencies.begin(), result->latencies.end());
}

/// Runs `clients` concurrent connections, each issuing `per_client`
/// requests one at a time over the JSON line protocol. `query_of(c, i)`
/// names the request; every round trip is timed individually.
template <typename QueryFn>
PhaseResult RunPhase(int port, std::size_t clients, std::size_t per_client,
                     QueryFn query_of) {
  PhaseResult result;
  std::vector<std::vector<double>> lat(clients);
  std::vector<std::size_t> failures(clients, 0);
  std::vector<std::thread> threads;
  Stopwatch wall;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      if (!client.Connect(port)) {
        failures[c] = per_client;
        return;
      }
      std::string response;
      lat[c].reserve(per_client);
      for (std::size_t i = 0; i < per_client; ++i) {
        Stopwatch sw;
        if (!client.RoundTrip(query_of(c, i), &response) ||
            response.find("\"ok\":true") == std::string::npos) {
          ++failures[c];
          continue;
        }
        lat[c].push_back(sw.ElapsedSeconds());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  result.wall_seconds = wall.ElapsedSeconds();
  Collect(&result, lat, failures);
  return result;
}

/// Runs `clients` connections speaking FQP1, each keeping up to `depth`
/// requests in flight. Latency is submit-to-response: the clock starts
/// when the frame is written into a burst, not when its turn comes.
template <typename QueryFn>
PhaseResult RunPipelinedPhase(int port, std::size_t clients,
                              std::size_t per_client, std::size_t depth,
                              QueryFn query_of) {
  PhaseResult result;
  std::vector<std::vector<double>> lat(clients);
  std::vector<std::size_t> failures(clients, 0);
  std::vector<std::thread> threads;
  Stopwatch wall;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      if (!client.Connect(port) ||
          !client.SendAll(std::string(serve::kBinaryPreamble,
                                      serve::kBinaryPreambleSize))) {
        failures[c] = per_client;
        return;
      }
      // Encode the whole request schedule up front so encoding cost is
      // not on the measured path.
      std::vector<std::string> wire(per_client);
      for (std::size_t i = 0; i < per_client; ++i) {
        serve::QueryRequest parsed;
        if (!serve::ParseRequest(query_of(c, i), &parsed).ok()) {
          failures[c] = per_client;
          return;
        }
        parsed.bin_id = i + 1;
        wire[i] = serve::EncodeBinaryRequest(parsed);
      }
      std::vector<double> send_at(per_client, 0.0);
      lat[c].reserve(per_client);
      Stopwatch clock;
      std::size_t next_send = 0;
      std::size_t next_recv = 0;
      while (next_recv < per_client) {
        if (next_send < per_client && next_send - next_recv < depth) {
          std::string burst;
          const std::size_t until = std::min(per_client, next_recv + depth);
          const double now = clock.ElapsedSeconds();
          while (next_send < until) {
            send_at[next_send] = now;
            burst += wire[next_send++];
          }
          if (!client.SendAll(burst)) {
            failures[c] += per_client - next_recv;
            return;
          }
        }
        serve::FrameStatus status;
        std::uint64_t req_id = 0;
        std::string json;
        if (!client.RecvFrame(&status, &req_id, &json)) {
          failures[c] += per_client - next_recv;
          return;
        }
        if (status != serve::FrameStatus::kOk ||
            req_id != next_recv + 1) {
          ++failures[c];
        } else {
          lat[c].push_back(clock.ElapsedSeconds() - send_at[next_recv]);
        }
        ++next_recv;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  result.wall_seconds = wall.ElapsedSeconds();
  Collect(&result, lat, failures);
  return result;
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const std::size_t i = std::min(
      sorted.size() - 1, static_cast<std::size_t>(p * sorted.size()));
  return sorted[i];
}

struct PhaseRow {
  const char* name;
  std::size_t clients;
  std::size_t depth;  // 1 = serial (no pipelining).
  PhaseResult result;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

/// Prints one result row and appends it to the JSON log.
void Report(JsonWriter& json, const PhaseRow& row) {
  const double p50 = Percentile(row.result.latencies, 0.50);
  const double p99 = Percentile(row.result.latencies, 0.99);
  const double qps = row.result.wall_seconds > 0.0
                         ? row.result.requests / row.result.wall_seconds
                         : 0.0;
  std::printf("%10s %6zu %6zu | %9.1f %9.1f %9.0f | %8zu | %6llu %6llu%s\n",
              row.name, row.clients, row.depth, p50 * 1e6, p99 * 1e6, qps,
              row.result.requests,
              static_cast<unsigned long long>(row.hits),
              static_cast<unsigned long long>(row.misses),
              row.result.failures > 0 ? " (FAILURES)" : "");
  std::fflush(stdout);
  json.Add(JsonRecord()
               .Str("bench", "serve_latency")
               .Str("phase", row.name)
               .Int("clients", static_cast<long long>(row.clients))
               .Int("pipeline", static_cast<long long>(row.depth))
               .Int("requests", static_cast<long long>(row.result.requests))
               .Num("p50_us", p50 * 1e6)
               .Num("p99_us", p99 * 1e6)
               .Num("qps", qps)
               .Num("wall_s", row.result.wall_seconds)
               .Int("cache_hits", static_cast<long long>(row.hits))
               .Int("cache_misses", static_cast<long long>(row.misses)));
  json.Flush();
}

}  // namespace
}  // namespace bench
}  // namespace farmer

int main(int argc, char** argv) {
  using namespace farmer;
  using namespace farmer::bench;
  BenchConfig config = ParseBenchConfig(argc, argv);
  std::size_t count = 400;
  int external_port = 0;
  bool telemetry = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--count") == 0 && i + 1 < argc) {
      count = static_cast<std::size_t>(std::atoll(argv[++i]));
    }
    if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      external_port = std::atoi(argv[++i]);
    }
    if (std::strcmp(argv[i], "--telemetry") == 0) telemetry = true;
  }
  count = std::max<std::size_t>(count, 200);
  PrintBenchHeader("Query-server latency: cold/warm serial JSON and "
                   "pipelined FQP1 at 1/4/16 clients", config);
  JsonWriter json("serve_latency");

  // The served store: the Fig. 10 BC workload's rule groups.
  BenchDataset ds = MakeBenchDataset("BC", config.column_scale);
  MinerOptions opts;
  opts.consequent = 1;
  opts.min_support = 5;
  FarmerResult mined = MineFarmer(ds.binary, opts);
  std::printf("store: %zu rule groups from %s (%zu rows x %zu items)\n\n",
              mined.groups.size(), ds.name.c_str(),
              static_cast<std::size_t>(ds.binary.num_rows()),
              static_cast<std::size_t>(ds.binary.num_items()));

  std::unique_ptr<Server> server;
  RuleGroupSnapshot swap_source;  // Copy kept for hot-swap storms.
  int port = external_port;
  obs::MetricsRegistry metrics;
  Server::Options server_options;
  server_options.num_shards = 4;
  server_options.max_connections = 64;
  if (telemetry) {
    server_options.metrics = &metrics;
    std::printf("telemetry: metrics registry attached\n");
  }
  if (external_port == 0) {
    RuleGroupSnapshot snapshot;
    snapshot.num_rows = ds.binary.num_rows();
    snapshot.groups = std::move(mined.groups);
    snapshot.params = serve::SnapshotParams::FromMinerOptions(opts);
    snapshot.fingerprint = serve::SnapshotFingerprint::FromDataset(ds.binary);
    swap_source = snapshot;
    server = std::make_unique<Server>(
        RuleGroupIndex(std::move(snapshot), server_options.num_shards),
        server_options);
    const Status started = server->Start();
    if (!started.ok()) {
      std::printf("server failed to start: %s\n", started.ToString().c_str());
      return 1;
    }
    port = server->port();
  }
  std::printf("%10s %6s %6s | %9s %9s %9s | %8s | %6s %6s\n", "phase",
              "conns", "pipe", "p50(us)", "p99(us)", "qps", "requests",
              "hits", "miss");

  // Primes the 8-query warm working set over one connection.
  const auto prime_warm = [&]() -> bool {
    server->cache().Clear();
    Client primer;
    if (!primer.Connect(port)) return false;
    std::string response;
    for (std::size_t i = 0; i < 8; ++i) {
      if (!primer.RoundTrip(MakeQuery(i, ds.binary), &response)) return false;
    }
    return true;
  };

  bool cache_regression = false;
  std::size_t total_failures = 0;
  double warm_serial_qps_16 = 0.0;
  double pipelined_qps_16 = 0.0;

  // --- Serial JSON: cold vs warm (or a single mixed phase when driving
  // an external server). ---
  for (std::size_t clients : {std::size_t{1}, std::size_t{4},
                              std::size_t{16}}) {
    const std::size_t per_client = std::max<std::size_t>(count / clients, 8);
    std::vector<PhaseRow> rows;

    if (external_port == 0) {
      // Cold: unique canonical keys, nothing reusable in the cache.
      server->cache().Clear();
      const std::uint64_t h0 = server->cache().hits();
      const std::uint64_t m0 = server->cache().misses();
      PhaseResult cold = RunPhase(
          port, clients, per_client, [&](std::size_t c, std::size_t i) {
            return MakeQuery(1 + c * per_client + i, ds.binary);
          });
      rows.push_back({"cold", clients, 1, std::move(cold),
                      server->cache().hits() - h0,
                      server->cache().misses() - m0});

      // Warm: a fixed 8-query working set, primed before timing.
      if (!prime_warm()) return 1;
      const std::uint64_t h1 = server->cache().hits();
      const std::uint64_t m1 = server->cache().misses();
      PhaseResult warm = RunPhase(
          port, clients, per_client, [&](std::size_t, std::size_t i) {
            return MakeQuery(i % 8, ds.binary);
          });
      rows.push_back({"warm", clients, 1, std::move(warm),
                      server->cache().hits() - h1,
                      server->cache().misses() - m1});
    } else {
      PhaseResult mixed = RunPhase(
          port, clients, per_client, [&](std::size_t c, std::size_t i) {
            return MakeQuery(c * per_client + i, ds.binary);
          });
      rows.push_back({"mixed", clients, 1, std::move(mixed), 0, 0});
    }

    double cold_p50 = 0.0;
    for (PhaseRow& row : rows) {
      const double p50 = Percentile(row.result.latencies, 0.50);
      if (std::strcmp(row.name, "cold") == 0) cold_p50 = p50;
      if (std::strcmp(row.name, "warm") == 0) {
        if (p50 >= cold_p50) cache_regression = true;
        if (clients == 16 && row.result.wall_seconds > 0.0) {
          warm_serial_qps_16 =
              row.result.requests / row.result.wall_seconds;
        }
      }
      Report(json, row);
      total_failures += row.result.failures;
    }
  }

  if (external_port == 0) {
    // --- Pipelined FQP1 over the warm working set. ---
    std::printf("\n");
    for (const auto& combo :
         std::vector<std::pair<std::size_t, std::size_t>>{
             {1, 16}, {4, 16}, {16, 8}, {16, 16}}) {
      const std::size_t clients = combo.first;
      const std::size_t depth = combo.second;
      // Longer runs than the serial phases: the first window is all
      // queueing transient, so give steady state room to dominate.
      const std::size_t per_client =
          std::max<std::size_t>(2 * count / clients, 32);
      if (!prime_warm()) return 1;
      const std::uint64_t h0 = server->cache().hits();
      const std::uint64_t m0 = server->cache().misses();
      PhaseResult warm = RunPipelinedPhase(
          port, clients, per_client, depth,
          [&](std::size_t, std::size_t i) {
            return MakeQuery(i % 8, ds.binary);
          });
      PhaseRow row{"pipelined", clients, depth, std::move(warm),
                   server->cache().hits() - h0,
                   server->cache().misses() - m0};
      Report(json, row);
      total_failures += row.result.failures;
      if (clients == 16 && row.result.wall_seconds > 0.0) {
        pipelined_qps_16 =
            std::max(pipelined_qps_16,
                     row.result.requests / row.result.wall_seconds);
      }
    }

    // --- Hot-swap storm: 16 pipelined clients, mixed queries, the
    // snapshot swapped mid-flight. Zero failures allowed. ---
    std::printf("\n");
    const std::uint64_t version_before = server->snapshot_version();
    constexpr int kSwaps = 5;
    std::atomic<bool> storm_done{false};
    std::thread swapper([&] {
      for (int s = 0; s < kSwaps; ++s) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        server->InstallIndex(RuleGroupIndex(RuleGroupSnapshot(swap_source),
                                            server_options.num_shards));
        if (storm_done.load()) break;
      }
    });
    const std::size_t per_client = std::max<std::size_t>(count / 16, 8);
    PhaseResult storm = RunPipelinedPhase(
        port, 16, per_client, 16, [&](std::size_t c, std::size_t i) {
          return MakeQuery(c * per_client + i, ds.binary);
        });
    storm_done.store(true);
    swapper.join();
    PhaseRow row{"swapstorm", 16, 16, std::move(storm), 0, 0};
    Report(json, row);
    total_failures += row.result.failures;
    if (server->snapshot_version() <= version_before) {
      std::printf("\nSWAP FAILURE: snapshot version did not advance "
                  "(still %llu)\n",
                  static_cast<unsigned long long>(server->snapshot_version()));
      return 1;
    }
  }

  if (server != nullptr) server->Shutdown();
  if (total_failures > 0) {
    std::printf("\n%zu requests failed\n", total_failures);
    return 1;
  }
  if (cache_regression) {
    std::printf("\nCACHE REGRESSION: warm p50 is not below cold p50\n");
    return 1;
  }
  if (warm_serial_qps_16 > 0.0 && pipelined_qps_16 > 0.0) {
    std::printf("\npipelined speedup at 16 clients: %.1fx over serial "
                "warm (%0.f vs %0.f qps)\n",
                pipelined_qps_16 / warm_serial_qps_16, pipelined_qps_16,
                warm_serial_qps_16);
  }
  std::printf("json: %s\n", json.path().c_str());
  return 0;
}
