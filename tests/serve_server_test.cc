#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <fstream>
#include <iterator>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/farmer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/snapshot.h"
#include "tests/test_util.h"

namespace farmer {
namespace serve {
namespace {

using testing_util::RandomDataset;

RuleGroupSnapshot MakeSnapshot(std::uint64_t seed = 41) {
  BinaryDataset ds = RandomDataset(14, 16, 0.45, seed);
  MinerOptions opts;
  opts.min_support = 2;
  FarmerResult mined = MineFarmer(ds, opts);
  RuleGroupSnapshot snapshot;
  snapshot.groups = std::move(mined.groups);
  snapshot.num_rows = ds.num_rows();
  snapshot.params = SnapshotParams::FromMinerOptions(opts);
  snapshot.fingerprint = SnapshotFingerprint::FromDataset(ds);
  return snapshot;
}

RuleGroupIndex MakeIndex(std::uint64_t seed = 41) {
  return RuleGroupIndex(MakeSnapshot(seed));
}

// A blocking test client speaking either framing.
class TestClient {
 public:
  explicit TestClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  bool Send(const std::string& line) { return SendRaw(line + "\n"); }

  // Unframed bytes, for exercising partial-line behavior.
  bool SendRaw(const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent,
                               bytes.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  bool Recv(std::string* line) {
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        *line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  // Reads one FQP1 response frame; fills the echoed req_id, the status,
  // and the JSON text.
  bool RecvFrame(std::uint64_t* req_id, FrameStatus* status,
                 std::string* json) {
    for (;;) {
      if (buffer_.size() >= 4) {
        std::uint32_t len = 0;
        std::memcpy(&len, buffer_.data(), sizeof(len));
        if (buffer_.size() >= 4 + static_cast<std::size_t>(len)) {
          const Status s = DecodeResponseFrame(
              std::string_view(buffer_.data() + 4, len), status, req_id,
              json);
          buffer_.erase(0, 4 + static_cast<std::size_t>(len));
          return s.ok();
        }
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  std::string RoundTrip(const std::string& request) {
    if (!Send(request)) return "<send failed>";
    std::string response;
    if (!Recv(&response)) return "<recv failed>";
    return response;
  }

  // Everything until the peer closes — for HTTP responses.
  std::string RecvAll() {
    for (;;) {
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
    return buffer_;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

std::string Preamble() {
  return std::string(kBinaryPreamble, kBinaryPreambleSize);
}

TEST(ServerTest, ServesQueriesOnEphemeralPort) {
  Server::Options options;
  options.num_shards = 2;
  Server server(MakeIndex(), options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  EXPECT_EQ(client.RoundTrip("{\"op\":\"ping\"}"),
            "{\"ok\":true,\"op\":\"ping\",\"cached\":false}");
  const std::string stats = client.RoundTrip("{\"op\":\"stats\"}");
  EXPECT_NE(stats.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(stats.find("\"groups\":"), std::string::npos);
  EXPECT_NE(stats.find("\"version\":1"), std::string::npos);
  const std::string topk = client.RoundTrip(
      "{\"op\":\"topk\",\"metric\":\"confidence\",\"k\":3}");
  EXPECT_NE(topk.find("\"op\":\"topk_confidence\""), std::string::npos);
  EXPECT_NE(topk.find("\"cached\":false"), std::string::npos);
  server.Shutdown();
}

TEST(ServerTest, PipelinedRequestsOnOneConnection) {
  Server::Options options;
  options.num_shards = 1;
  Server server(MakeIndex(), options);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  // Send several requests before reading any response.
  ASSERT_TRUE(client.Send("{\"op\":\"ping\",\"id\":\"a\"}"));
  ASSERT_TRUE(client.Send("{\"op\":\"ping\",\"id\":\"b\"}"));
  ASSERT_TRUE(client.Send("{\"op\":\"ping\",\"id\":\"c\"}"));
  std::string line;
  for (const char* id : {"a", "b", "c"}) {
    ASSERT_TRUE(client.Recv(&line));
    EXPECT_NE(line.find(std::string("\"id\":\"") + id + "\""),
              std::string::npos)
        << line;
  }
  server.Shutdown();
}

TEST(ServerTest, BinaryPipelinedFramesAnswerInOrder) {
  Server::Options options;
  options.num_shards = 1;
  Server server(MakeIndex(), options);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  // M frames in ONE write (after the preamble): the shard must parse
  // them all off the buffer and answer each, in arrival order.
  constexpr std::uint64_t kFrames = 9;
  std::string burst = Preamble();
  for (std::uint64_t i = 1; i <= kFrames; ++i) {
    QueryRequest req;
    req.bin_id = i;
    if (i % 3 == 0) {
      req.op = QueryRequest::Op::kPing;
    } else {
      req.op = QueryRequest::Op::kTopkConfidence;
      req.k = static_cast<std::size_t>(i);
    }
    burst += EncodeBinaryRequest(req);
  }
  ASSERT_TRUE(client.SendRaw(burst));

  for (std::uint64_t i = 1; i <= kFrames; ++i) {
    std::uint64_t req_id = 0;
    FrameStatus status = FrameStatus::kInternal;
    std::string json;
    ASSERT_TRUE(client.RecvFrame(&req_id, &status, &json)) << "frame " << i;
    EXPECT_EQ(req_id, i);
    EXPECT_EQ(status, FrameStatus::kOk) << json;
    EXPECT_NE(json.find("\"ok\":true"), std::string::npos) << json;
  }
  server.Shutdown();
}

TEST(ServerTest, BinaryPreambleSplitAcrossWritesStillDetected) {
  Server::Options options;
  options.num_shards = 1;
  Server server(MakeIndex(), options);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  QueryRequest req;
  req.op = QueryRequest::Op::kPing;
  req.bin_id = 7;
  const std::string frame = EncodeBinaryRequest(req);
  // The detector must hold its decision on a strict preamble prefix.
  ASSERT_TRUE(client.SendRaw("FQ"));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(client.SendRaw("P1" + frame));

  std::uint64_t req_id = 0;
  FrameStatus status = FrameStatus::kInternal;
  std::string json;
  ASSERT_TRUE(client.RecvFrame(&req_id, &status, &json));
  EXPECT_EQ(req_id, 7u);
  EXPECT_EQ(status, FrameStatus::kOk);
  EXPECT_NE(json.find("\"op\":\"ping\""), std::string::npos);
  server.Shutdown();
}

TEST(ServerTest, BinaryOversizedFrameLengthClosesConnection) {
  Server::Options options;
  options.num_shards = 1;
  Server server(MakeIndex(), options);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  std::string bytes = Preamble();
  const std::uint32_t huge = 0xFFFFFFFFu;
  bytes.append(reinterpret_cast<const char*>(&huge), sizeof(huge));
  ASSERT_TRUE(client.SendRaw(bytes));

  std::uint64_t req_id = 0;
  FrameStatus status = FrameStatus::kOk;
  std::string json;
  ASSERT_TRUE(client.RecvFrame(&req_id, &status, &json));
  EXPECT_EQ(status, FrameStatus::kBadRequest) << json;
  // Unrecoverable framing: the server closes after the error frame.
  std::string extra;
  EXPECT_FALSE(client.RecvFrame(&req_id, &status, &extra));
  server.Shutdown();
}

TEST(ServerTest, QueuedPipelinedRequestBurnsItsOwnDeadline) {
  Server::Options options;
  options.num_shards = 1;
  Server server(MakeIndex(), options);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  // One write, three requests. The middle one carries a zero-length
  // budget anchored at parse time, so it must expire while queued
  // behind its predecessor — its neighbors still succeed.
  ASSERT_TRUE(client.SendRaw(
      "{\"op\":\"ping\",\"id\":\"a\"}\n"
      "{\"op\":\"topk\",\"metric\":\"confidence\",\"k\":2,"
      "\"deadline_ms\":1e-9,\"id\":\"b\"}\n"
      "{\"op\":\"ping\",\"id\":\"c\"}\n"));
  std::string line;
  ASSERT_TRUE(client.Recv(&line));
  EXPECT_NE(line.find("\"id\":\"a\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
  ASSERT_TRUE(client.Recv(&line));
  EXPECT_NE(line.find("\"id\":\"b\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"error\":\"deadline_exceeded\""), std::string::npos)
      << line;
  ASSERT_TRUE(client.Recv(&line));
  EXPECT_NE(line.find("\"id\":\"c\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
  server.Shutdown();
}

TEST(ServerTest, CachesRepeatedQueries) {
  obs::MetricsRegistry metrics;
  Server::Options options;
  options.num_shards = 2;
  options.metrics = &metrics;
  Server server(MakeIndex(), options);
  ASSERT_TRUE(server.Start().ok());

  const std::string query =
      "{\"op\":\"topk\",\"metric\":\"confidence\",\"k\":4}";
  TestClient a(server.port());
  ASSERT_TRUE(a.connected());
  const std::string first = a.RoundTrip(query);
  EXPECT_NE(first.find("\"cached\":false"), std::string::npos);
  // Same canonical query from another connection hits the cache.
  TestClient b(server.port());
  ASSERT_TRUE(b.connected());
  const std::string second = b.RoundTrip(
      "{\"op\":\"topk\",\"metric\":\"confidence\",\"k\":4,\"id\":\"x\"}");
  EXPECT_NE(second.find("\"cached\":true"), std::string::npos);
  EXPECT_NE(second.find("\"id\":\"x\""), std::string::npos);
  // Identical payloads modulo the cached flag and echo id.
  EXPECT_EQ(first.substr(0, first.find("\"cached\"")),
            second.substr(0, second.find("\"cached\"")));
  EXPECT_EQ(server.cache().hits(), 1u);
  server.Shutdown();

  bool saw_hit_counter = false;
  for (const auto& c : metrics.Snapshot().counters) {
    if (c.name == "serve.cache_hits") {
      saw_hit_counter = true;
      EXPECT_EQ(c.value, 1u);
    }
  }
  EXPECT_TRUE(saw_hit_counter);
}

TEST(ServerTest, CachedPayloadServesBothFramings) {
  Server::Options options;
  options.num_shards = 1;
  Server server(MakeIndex(), options);
  ASSERT_TRUE(server.Start().ok());

  TestClient json_client(server.port());
  ASSERT_TRUE(json_client.connected());
  const std::string first = json_client.RoundTrip(
      "{\"op\":\"topk\",\"metric\":\"confidence\",\"k\":4}");
  EXPECT_NE(first.find("\"cached\":false"), std::string::npos);

  // The same canonical query over FQP1 framing hits the same cache
  // entry: the frame wraps the identical JSON payload.
  TestClient bin_client(server.port());
  ASSERT_TRUE(bin_client.connected());
  QueryRequest req;
  req.op = QueryRequest::Op::kTopkConfidence;
  req.k = 4;
  req.bin_id = 3;
  ASSERT_TRUE(bin_client.SendRaw(Preamble() + EncodeBinaryRequest(req)));
  std::uint64_t req_id = 0;
  FrameStatus status = FrameStatus::kInternal;
  std::string json;
  ASSERT_TRUE(bin_client.RecvFrame(&req_id, &status, &json));
  EXPECT_EQ(req_id, 3u);
  EXPECT_EQ(status, FrameStatus::kOk);
  EXPECT_NE(json.find("\"cached\":true"), std::string::npos) << json;
  EXPECT_EQ(first.substr(0, first.find("\"cached\"")),
            json.substr(0, json.find("\"cached\"")));
  EXPECT_EQ(server.cache().hits(), 1u);
  server.Shutdown();
}

TEST(ServerTest, HotSwapInvalidatesCacheAndServesNewSnapshot) {
  Server::Options options;
  options.num_shards = 1;
  Server server(MakeIndex(), options);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  const std::string query =
      "{\"op\":\"topk\",\"metric\":\"confidence\",\"k\":100}";
  const std::string before = client.RoundTrip(query);
  EXPECT_NE(before.find("\"cached\":false"), std::string::npos);
  // Warm the cache on the pre-swap snapshot.
  EXPECT_NE(client.RoundTrip(query).find("\"cached\":true"),
            std::string::npos);

  // Swap to a snapshot that keeps only the single best group: any
  // response rendered against the old snapshot is now wrong.
  RuleGroupSnapshot truncated = MakeSnapshot();
  truncated.groups.resize(1);
  server.InstallIndex(RuleGroupIndex(std::move(truncated)));
  EXPECT_EQ(server.snapshot_version(), 2u);

  // The post-swap query must re-execute (no cross-version cache hit)
  // and reflect the new snapshot, atomically.
  const std::string after = client.RoundTrip(query);
  EXPECT_NE(after.find("\"cached\":false"), std::string::npos) << after;
  EXPECT_NE(after.find("\"count\":1,"), std::string::npos) << after;
  EXPECT_NE(before, after);
  // Stats reports the bumped version.
  EXPECT_NE(client.RoundTrip("{\"op\":\"stats\"}").find("\"version\":2"),
            std::string::npos);
  // And the new version caches normally.
  EXPECT_NE(client.RoundTrip(query).find("\"cached\":true"),
            std::string::npos);
  server.Shutdown();
}

TEST(ServerTest, ReloadRequestSwapsSnapshotFromFile) {
  const std::string path = ::testing::TempDir() + "/serve_reload.fsnap";
  RuleGroupSnapshot full = MakeSnapshot();
  const std::size_t full_groups = full.groups.size();
  ASSERT_GT(full_groups, 1u);
  ASSERT_TRUE(SaveSnapshot(full, path).ok());

  Server::Options options;
  options.num_shards = 2;
  options.snapshot_path = path;
  Server server(RuleGroupIndex(MakeSnapshot(), options.num_shards),
                options);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  // Overwrite the file with a truncated store, then ask the server to
  // reload it over the wire.
  RuleGroupSnapshot truncated = MakeSnapshot();
  truncated.groups.resize(1);
  ASSERT_TRUE(SaveSnapshot(truncated, path).ok());
  const std::string reload = client.RoundTrip("{\"op\":\"reload\"}");
  EXPECT_NE(reload.find("\"ok\":true"), std::string::npos) << reload;
  EXPECT_NE(reload.find("\"version\":2"), std::string::npos) << reload;
  EXPECT_NE(reload.find("\"groups\":1"), std::string::npos) << reload;
  EXPECT_EQ(server.snapshot_version(), 2u);
  EXPECT_EQ(server.index()->size(), 1u);

  // A corrupt file must fail the reload and keep serving version 2.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "FSNPgarbage";
    ASSERT_TRUE(out.good());
  }
  const std::string bad = client.RoundTrip("{\"op\":\"reload\"}");
  EXPECT_NE(bad.find("\"error\":\"internal\""), std::string::npos) << bad;
  EXPECT_EQ(server.snapshot_version(), 2u);
  EXPECT_NE(client.RoundTrip("{\"op\":\"stats\"}").find("\"version\":2"),
            std::string::npos);
  server.Shutdown();
}

TEST(ServerTest, ReloadWithoutSnapshotPathIsBadRequest) {
  Server::Options options;
  options.num_shards = 1;
  Server server(MakeIndex(), options);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  const std::string response = client.RoundTrip("{\"op\":\"reload\"}");
  EXPECT_NE(response.find("\"error\":\"bad_request\""), std::string::npos)
      << response;
  EXPECT_EQ(server.snapshot_version(), 1u);
  server.Shutdown();
}

TEST(ServerTest, HotSwapUnderConcurrentTrafficNeverFailsARequest) {
  Server::Options options;
  options.num_shards = 2;
  Server server(MakeIndex(), options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 4;
  constexpr int kRequests = 40;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([c, port = server.port(), &failures] {
      TestClient client(port);
      if (!client.connected()) {
        failures.fetch_add(kRequests);
        return;
      }
      for (int r = 0; r < kRequests; ++r) {
        const std::string query =
            (r + c) % 2 == 0
                ? "{\"op\":\"topk\",\"metric\":\"confidence\",\"k\":10}"
                : "{\"op\":\"filter\",\"minsup\":2,\"minconf\":0.5}";
        if (client.RoundTrip(query).find("\"ok\":true") ==
            std::string::npos) {
          failures.fetch_add(1);
        }
      }
    });
  }
  // Swap snapshots repeatedly while the clients hammer the server: a
  // swap must never fail a request or serve a torn snapshot.
  for (int swap = 0; swap < 5; ++swap) {
    RuleGroupSnapshot next = MakeSnapshot();
    if (swap % 2 == 0) next.groups.resize(1);
    server.InstallIndex(RuleGroupIndex(std::move(next), 2));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.snapshot_version(), 6u);
  server.Shutdown();
}

TEST(ServerTest, RejectsMalformedRequestsWithoutClosing) {
  Server::Options options;
  options.num_shards = 1;
  Server server(MakeIndex(), options);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  for (const char* bad :
       {"not json", "{\"op\":\"nope\"}", "{}", "[1,2]",
        "{\"op\":\"topk\",\"metric\":\"confidence\",\"k\":-1}",
        "{\"op\":\"ping\",\"stray\":1}"}) {
    const std::string response = client.RoundTrip(bad);
    EXPECT_NE(response.find("\"error\":\"bad_request\""), std::string::npos)
        << bad << " -> " << response;
  }
  // The connection stays usable after errors.
  EXPECT_NE(client.RoundTrip("{\"op\":\"ping\"}").find("\"ok\":true"),
            std::string::npos);
  server.Shutdown();
}

TEST(ServerTest, TinyDeadlineYieldsDeadlineExceeded) {
  Server::Options options;
  options.num_shards = 1;
  Server server(MakeIndex(), options);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  // 1e-9 ms rounds to a zero-length budget: expired before execution.
  const std::string response = client.RoundTrip(
      "{\"op\":\"topk\",\"metric\":\"confidence\",\"k\":2,"
      "\"deadline_ms\":1e-9}");
  EXPECT_NE(response.find("\"error\":\"deadline_exceeded\""),
            std::string::npos)
      << response;
  server.Shutdown();
}

TEST(ServerTest, OverloadFloodGetsExplicitErrors) {
  Server::Options options;
  options.num_shards = 1;
  options.max_connections = 1;
  Server server(MakeIndex(), options);
  ASSERT_TRUE(server.Start().ok());

  // Fill the single admission slot and prove it is held.
  TestClient holder(server.port());
  ASSERT_TRUE(holder.connected());
  EXPECT_NE(holder.RoundTrip("{\"op\":\"ping\"}").find("\"ok\":true"),
            std::string::npos);

  // Every further connection must get an explicit overloaded error —
  // never a silent drop, never a hang.
  for (int i = 0; i < 8; ++i) {
    TestClient extra(server.port());
    ASSERT_TRUE(extra.connected());
    std::string line;
    ASSERT_TRUE(extra.Recv(&line)) << "flood connection " << i;
    EXPECT_NE(line.find("\"error\":\"overloaded\""), std::string::npos)
        << line;
  }
  EXPECT_EQ(server.overloaded_count(), 8u);
  server.Shutdown();
}

TEST(ServerTest, ConcurrentClientsAllGetAnswers) {
  obs::MetricsRegistry metrics;
  obs::TraceSession trace(/*num_lanes=*/5);
  Server::Options options;
  options.num_shards = 4;
  options.metrics = &metrics;
  options.trace = &trace;
  Server server(MakeIndex(), options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 8;
  constexpr int kRequests = 25;
  std::vector<std::thread> threads;
  std::vector<int> ok_counts(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([c, port = server.port(), &ok_counts] {
      TestClient client(port);
      if (!client.connected()) return;
      for (int r = 0; r < kRequests; ++r) {
        std::string query;
        switch (r % 4) {
          case 0:
            query = "{\"op\":\"topk\",\"metric\":\"confidence\",\"k\":5}";
            break;
          case 1:
            query = "{\"op\":\"topk\",\"metric\":\"chi_square\",\"k\":3}";
            break;
          case 2:
            query = "{\"op\":\"filter\",\"minsup\":2,\"minconf\":0.5}";
            break;
          default:
            query = "{\"op\":\"ping\"}";
        }
        const std::string response = client.RoundTrip(query);
        if (response.find("\"ok\":true") != std::string::npos) {
          ++ok_counts[c];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(ok_counts[c], kRequests) << "client " << c;
  }
  server.Shutdown();

  std::uint64_t requests = 0;
  for (const auto& counter : metrics.Snapshot().counters) {
    if (counter.name == "serve.requests") requests = counter.value;
  }
  EXPECT_EQ(requests,
            static_cast<std::uint64_t>(kClients) * kRequests);
  // Shard lanes saw request spans.
  std::uint64_t events = 0;
  for (std::size_t lane = 0; lane < trace.num_lanes(); ++lane) {
    events += trace.ring(lane).pushed();
  }
  EXPECT_GT(events, 0u);
}

TEST(ServerTest, ShutdownIsIdempotentAndStopsAccepting) {
  Server::Options options;
  options.num_shards = 1;
  Server server(MakeIndex(), options);
  ASSERT_TRUE(server.Start().ok());
  const int port = server.port();
  {
    TestClient client(port);
    ASSERT_TRUE(client.connected());
    EXPECT_NE(client.RoundTrip("{\"op\":\"ping\"}").find("\"ok\":true"),
              std::string::npos);
  }
  server.Shutdown();
  server.Shutdown();  // Second call is a no-op.

  // The listener is gone: either the connect fails outright or the
  // socket delivers EOF/reset instead of a response.
  TestClient after(port);
  if (after.connected()) {
    std::string line;
    after.Send("{\"op\":\"ping\"}");
    EXPECT_FALSE(after.Recv(&line));
  }
}

TEST(ServerTest, IdleConnectionIsTimedOutAndFreesItsSlot) {
  Server::Options options;
  options.num_shards = 1;
  options.max_connections = 1;
  options.idle_timeout_s = 0.25;
  Server server(MakeIndex(), options);
  ASSERT_TRUE(server.Start().ok());

  // A slow-loris client: holds the only admission slot while trickling
  // an incomplete line. Partial data must not reset the idle deadline.
  TestClient loris(server.port());
  ASSERT_TRUE(loris.connected());
  ASSERT_TRUE(loris.SendRaw("{\"op\""));  // No newline: never a request.
  std::string line;
  ASSERT_TRUE(loris.Recv(&line));
  EXPECT_NE(line.find("\"error\":\"idle_timeout\""), std::string::npos)
      << line;
  EXPECT_FALSE(loris.Recv(&line));  // Connection closed after the error.

  // The slot is released: a fresh client gets served, not overloaded.
  // Retry briefly — the slot is freed a beat after the socket closes.
  bool served = false;
  for (int attempt = 0; attempt < 100 && !served; ++attempt) {
    TestClient next(server.port());
    if (!next.connected()) continue;
    served = next.RoundTrip("{\"op\":\"ping\"}").find("\"ok\":true") !=
             std::string::npos;
    if (!served) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  EXPECT_TRUE(served);
  server.Shutdown();
}

TEST(ServerTest, CompletedRequestsResetTheIdleDeadline) {
  Server::Options options;
  options.num_shards = 1;
  options.idle_timeout_s = 0.3;
  Server server(MakeIndex(), options);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  // Four requests spread over twice the idle timeout: each completed
  // line pushes the deadline out, so the connection stays open.
  for (int i = 0; i < 4; ++i) {
    EXPECT_NE(client.RoundTrip("{\"op\":\"ping\"}").find("\"ok\":true"),
              std::string::npos)
        << "request " << i;
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
  }
  server.Shutdown();
}

TEST(ServerTest, OverlongRequestLineIsRejected) {
  Server::Options options;
  options.num_shards = 1;
  Server server(MakeIndex(), options);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  // A newline-free blob over the cap: the server answers bad_request and
  // closes rather than buffering forever.
  const std::string blob(kMaxRequestBytes + 100, 'x');
  ASSERT_TRUE(client.Send(blob));
  std::string line;
  ASSERT_TRUE(client.Recv(&line));
  EXPECT_NE(line.find("\"error\":\"bad_request\""), std::string::npos);
  server.Shutdown();
}

TEST(ServerTest, MetricsOpRendersExpositionOverBothFramings) {
  obs::MetricsRegistry metrics;
  Server::Options options;
  options.num_shards = 1;
  options.metrics = &metrics;
  Server server(MakeIndex(), options);
  ASSERT_TRUE(server.Start().ok());

  TestClient json_client(server.port());
  ASSERT_TRUE(json_client.connected());
  // Prime a query so per-op series exist before the scrape.
  EXPECT_NE(json_client
                .RoundTrip(
                    "{\"op\":\"topk\",\"metric\":\"confidence\",\"k\":3}")
                .find("\"ok\":true"),
            std::string::npos);
  const std::string response =
      json_client.RoundTrip("{\"op\":\"metrics\"}");
  EXPECT_NE(response.find("\"op\":\"metrics\""), std::string::npos)
      << response;
  EXPECT_NE(response.find("\"exposition\":\""), std::string::npos);
  // The exposition text rides inside a JSON string (quotes escaped);
  // unlabeled family lines survive escaping verbatim.
  EXPECT_NE(response.find("# TYPE serve_requests counter"),
            std::string::npos);

  TestClient bin_client(server.port());
  ASSERT_TRUE(bin_client.connected());
  QueryRequest req;
  req.op = QueryRequest::Op::kMetrics;
  req.bin_id = 11;
  ASSERT_TRUE(bin_client.SendRaw(Preamble() + EncodeBinaryRequest(req)));
  std::uint64_t req_id = 0;
  FrameStatus status = FrameStatus::kInternal;
  std::string json;
  ASSERT_TRUE(bin_client.RecvFrame(&req_id, &status, &json));
  EXPECT_EQ(req_id, 11u);
  EXPECT_EQ(status, FrameStatus::kOk) << json;
  EXPECT_NE(json.find("# TYPE serve_requests counter"), std::string::npos)
      << json;
  server.Shutdown();
}

TEST(ServerTest, MetricsOpWithoutRegistryIsBadRequest) {
  Server::Options options;
  options.num_shards = 1;
  Server server(MakeIndex(), options);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  const std::string response = client.RoundTrip("{\"op\":\"metrics\"}");
  EXPECT_NE(response.find("\"error\":\"bad_request\""), std::string::npos)
      << response;
  server.Shutdown();
}

TEST(ServerTest, HttpScrapeOnServePortCarriesLiveSeries) {
  obs::MetricsRegistry metrics;
  Server::Options options;
  options.num_shards = 2;
  options.metrics = &metrics;
  Server server(MakeIndex(), options);
  ASSERT_TRUE(server.Start().ok());

  // Work first, so the scrape shows moving per-op/per-shard series.
  TestClient query_client(server.port());
  ASSERT_TRUE(query_client.connected());
  EXPECT_NE(query_client
                .RoundTrip(
                    "{\"op\":\"topk\",\"metric\":\"confidence\",\"k\":3}")
                .find("\"ok\":true"),
            std::string::npos);

  TestClient scraper(server.port());
  ASSERT_TRUE(scraper.connected());
  ASSERT_TRUE(scraper.SendRaw("GET /metrics HTTP/1.0\r\n\r\n"));
  const std::string response = scraper.RecvAll();
  EXPECT_EQ(response.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << response;
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(response.find("# TYPE serve_requests counter\n"),
            std::string::npos);
  EXPECT_NE(
      response.find("serve_op_latency_seconds_bucket"
                    "{op=\"topk_confidence\",le=\"+Inf\"} 1\n"),
      std::string::npos)
      << response;
  EXPECT_NE(response.find("serve_shard_connections{shard=\"0\"}"),
            std::string::npos);
  EXPECT_NE(response.find("serve_shard_connections{shard=\"1\"}"),
            std::string::npos);

  // Anything but /metrics is a 404; the query path above is untouched.
  TestClient lost(server.port());
  ASSERT_TRUE(lost.connected());
  ASSERT_TRUE(lost.SendRaw("GET /other HTTP/1.0\r\n\r\n"));
  EXPECT_EQ(lost.RecvAll().rfind("HTTP/1.0 404 Not Found\r\n", 0), 0u);
  server.Shutdown();
}

TEST(ServerTest, HttpScrapeWithoutRegistryIs503) {
  Server::Options options;
  options.num_shards = 1;
  Server server(MakeIndex(), options);
  ASSERT_TRUE(server.Start().ok());
  TestClient scraper(server.port());
  ASSERT_TRUE(scraper.connected());
  ASSERT_TRUE(scraper.SendRaw("GET /metrics HTTP/1.0\r\n\r\n"));
  EXPECT_EQ(scraper.RecvAll().rfind("HTTP/1.0 503 Service Unavailable\r\n",
                                    0),
            0u);
  server.Shutdown();
}

TEST(ServerTest, DedicatedMetricsListenerBypassesAdmission) {
  obs::MetricsRegistry metrics;
  Server::Options options;
  options.num_shards = 1;
  options.max_connections = 1;
  options.metrics = &metrics;
  options.metrics_port = 0;  // Ephemeral.
  Server server(MakeIndex(), options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.metrics_port(), 0);
  ASSERT_NE(server.metrics_port(), server.port());

  // Saturate the single admission slot...
  TestClient holder(server.port());
  ASSERT_TRUE(holder.connected());
  EXPECT_NE(holder.RoundTrip("{\"op\":\"ping\"}").find("\"ok\":true"),
            std::string::npos);

  // ...and the scrape still succeeds on the dedicated listener.
  TestClient scraper(server.metrics_port());
  ASSERT_TRUE(scraper.connected());
  ASSERT_TRUE(scraper.SendRaw("GET /metrics HTTP/1.0\r\n\r\n"));
  const std::string response = scraper.RecvAll();
  EXPECT_EQ(response.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << response;
  EXPECT_NE(response.find("# TYPE serve_active_connections gauge\n"),
            std::string::npos);
  server.Shutdown();
}

TEST(ServerTest, StatsReportsLiveServeSection) {
  obs::MetricsRegistry metrics;
  Server::Options options;
  options.num_shards = 2;
  options.metrics = &metrics;
  Server server(MakeIndex(), options);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  EXPECT_NE(client.RoundTrip("{\"op\":\"ping\"}").find("\"ok\":true"),
            std::string::npos);
  const std::string stats = client.RoundTrip("{\"op\":\"stats\"}");
  EXPECT_NE(stats.find("\"serve\":{\"requests\":"), std::string::npos)
      << stats;
  EXPECT_NE(stats.find("\"active_connections\":1"), std::string::npos)
      << stats;
  EXPECT_NE(stats.find("\"shard_connections\":["), std::string::npos);
  EXPECT_NE(stats.find("\"slow_queries\":0"), std::string::npos);
  EXPECT_NE(stats.find("\"cache\":{\"hits\":"), std::string::npos);
  server.Shutdown();
}

TEST(ServerTest, SlowQueryLogFiresThroughTheSink) {
  // A threshold of ~1ns makes every request slow; the sink must see
  // structured lines with the phase breakdown.
  std::mutex mu;
  std::vector<std::string> lines;
  Server::Options options;
  options.num_shards = 1;
  options.slow_query_ms = 1e-6;
  options.slow_query_log = [&mu, &lines](const std::string& line) {
    std::lock_guard<std::mutex> lock(mu);
    lines.push_back(line);
  };
  Server server(MakeIndex(), options);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  EXPECT_NE(client
                .RoundTrip(
                    "{\"op\":\"topk\",\"metric\":\"confidence\",\"k\":3}")
                .find("\"ok\":true"),
            std::string::npos);
  const std::string stats = client.RoundTrip("{\"op\":\"stats\"}");
  server.Shutdown();

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_GE(lines.size(), 1u);
  const std::string& line = lines[0];
  EXPECT_NE(line.find("\"op\":\"topk_confidence\""), std::string::npos)
      << line;
  EXPECT_NE(line.find("\"latency_ms\":"), std::string::npos);
  EXPECT_NE(line.find("\"parse_ms\":"), std::string::npos);
  EXPECT_NE(line.find("\"index_ms\":"), std::string::npos);
  EXPECT_NE(line.find("\"snapshot_version\":1"), std::string::npos);
  EXPECT_NE(line.find("\"shard\":0"), std::string::npos);
  EXPECT_NE(line.find("\"status\":\"ok\""), std::string::npos);
  // The stats op (issued after the slow one) counted it live.
  EXPECT_NE(stats.find("\"slow_queries\":1"), std::string::npos) << stats;
}

TEST(ServerTest, SlowQuerySamplingKeepsEveryNth) {
  std::mutex mu;
  std::vector<std::string> lines;
  Server::Options options;
  options.num_shards = 1;
  options.slow_query_ms = 1e-6;
  options.slow_query_every = 3;
  options.slow_query_log = [&mu, &lines](const std::string& line) {
    std::lock_guard<std::mutex> lock(mu);
    lines.push_back(line);
  };
  Server server(MakeIndex(), options);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  for (int i = 0; i < 6; ++i) {
    EXPECT_NE(client.RoundTrip("{\"op\":\"ping\"}").find("\"ok\":true"),
              std::string::npos);
  }
  server.Shutdown();
  std::lock_guard<std::mutex> lock(mu);
  // 6 slow requests, every 3rd logged: exactly 2 lines (the 1st and
  // 4th — sampling is per shard, index % every == 0).
  EXPECT_EQ(lines.size(), 2u);
}

TEST(ServerTest, TraceCoversRequestPhases) {
  obs::TraceSession trace(/*num_lanes=*/2);
  Server::Options options;
  options.num_shards = 1;
  options.trace = &trace;
  Server server(MakeIndex(), options);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  EXPECT_NE(client
                .RoundTrip(
                    "{\"op\":\"topk\",\"metric\":\"confidence\",\"k\":3}")
                .find("\"ok\":true"),
            std::string::npos);
  server.Shutdown();  // Quiesces the shard lanes; rings are readable.

  std::set<std::string> names;
  for (std::size_t lane = 0; lane < trace.num_lanes(); ++lane) {
    for (const obs::TraceEvent& e : trace.ring(lane).Snapshot()) {
      names.insert(e.name);
    }
  }
  for (const char* want :
       {"serve.parse", "serve.cache_lookup", "serve.index", "serve.encode",
        "serve.topk"}) {
    EXPECT_TRUE(names.count(want) == 1) << "missing span " << want;
  }
}

TEST(ServerTest, TelemetryOffLeavesResponsesByteIdentical) {
  // The instrumented server with everything disabled must answer
  // byte-for-byte like the pre-telemetry one; a golden response guards
  // against instrumentation leaking into the payload.
  Server::Options options;
  options.num_shards = 1;
  Server server(MakeIndex(), options);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  EXPECT_EQ(client.RoundTrip("{\"op\":\"ping\"}"),
            "{\"ok\":true,\"op\":\"ping\",\"cached\":false}");
  server.Shutdown();
}

// Response bytes pinned at a known-good revision. The bench checks its
// sampled responses against RenderGroupsPayload itself, so only literal
// bytes catch a drift in the renderer: number formatting, field order,
// answer order. Over MakeSnapshot()'s store (34 groups with lower
// bounds); each payload excludes the "cached" flag and closing brace.
struct GoldenResponse {
  const char* request;
  const char* payload;
};

const GoldenResponse kGoldenResponses[] = {
    {R"({"op":"cover","items":[1,4,5,8,10,12,13,14,15],"limit":4})",
     R"({"ok":true,"op":"cover","count":4,"groups":[{"index":15,"support_p)"
     R"(os":3,"support_neg":0,"confidence":1,"chi_square":3.81818182,"ante)"
     R"(cedent":[4,8,13,14],"lower_bounds":[[4,8,14],[8,13,14]]},{"index":)"
     R"(21,"support_pos":2,"support_neg":0,"confidence":1,"chi_square":2.3)"
     R"(3333333,"antecedent":[4,5,10,12,15],"lower_bounds":[[4,10,12],[10,)"
     R"(15]]},{"index":12,"support_pos":4,"support_neg":1,"confidence":0.8)"
     R"(,"chi_square":2.8,"antecedent":[4,13,14],"lower_bounds":[[13,14]]})"
     R"(,{"index":13,"support_pos":3,"support_neg":1,"confidence":0.75,"ch)"
     R"(i_square":1.4,"antecedent":[8,14],"lower_bounds":[[8,14]]}])"},
    {R"({"op":"cover","items":[1,4,5,10,13,14],"limit":100})",
     R"({"ok":true,"op":"cover","count":11,"groups":[{"index":12,"support_)"
     R"(pos":4,"support_neg":1,"confidence":0.8,"chi_square":2.8,"antecede)"
     R"(nt":[4,13,14],"lower_bounds":[[13,14]]},{"index":16,"support_pos":)"
     R"(3,"support_neg":1,"confidence":0.75,"chi_square":1.4,"antecedent":)"
     R"([4,10],"lower_bounds":[[4,10]]},{"index":10,"support_pos":4,"suppo)"
     R"(rt_neg":2,"confidence":0.666666667,"chi_square":1.16666667,"antece)"
     R"(dent":[4,14],"lower_bounds":[[4,14]]},{"index":11,"support_pos":4,)"
     R"("support_neg":2,"confidence":0.666666667,"chi_square":1.16666667,")"
     R"(antecedent":[4,13],"lower_bounds":[[4,13]]},{"index":8,"support_po)"
     R"(s":5,"support_neg":3,"confidence":0.625,"chi_square":1.16666667,"a)"
     R"(ntecedent":[4],"lower_bounds":[[4]]},{"index":5,"support_pos":3,"s)"
     R"(upport_neg":2,"confidence":0.6,"chi_square":0.311111111,"anteceden)"
     R"(t":[5,10],"lower_bounds":[[5,10]]},{"index":2,"support_pos":4,"sup)"
     R"(port_neg":3,"confidence":0.571428571,"chi_square":0.285714286,"ant)"
     R"(ecedent":[10],"lower_bounds":[[10]]},{"index":9,"support_pos":4,"s)"
     R"(upport_neg":3,"confidence":0.571428571,"chi_square":0.285714286,"a)"
     R"(ntecedent":[14],"lower_bounds":[[14]]},{"index":0,"support_pos":5,)"
     R"("support_neg":5,"confidence":0.5,"chi_square":0,"antecedent":[13],)"
     R"("lower_bounds":[[13]]},{"index":7,"support_pos":4,"support_neg":4,)"
     R"("confidence":0.5,"chi_square":0,"antecedent":[1],"lower_bounds":[[)"
     R"(1]]},{"index":4,"support_pos":3,"support_neg":5,"confidence":0.375)"
     R"(,"chi_square":1.16666667,"antecedent":[5],"lower_bounds":[[5]]}])"},
    {R"({"op":"contains","items":[3],"limit":3})",
     R"({"ok":true,"op":"contains","count":3,"groups":[{"index":28,"suppor)"
     R"(t_pos":2,"support_neg":0,"confidence":1,"chi_square":2.33333333,"a)"
     R"(ntecedent":[2,3,4,11],"lower_bounds":[[2,3],[2,4]]},{"index":29,"s)"
     R"(upport_pos":2,"support_neg":0,"confidence":1,"chi_square":2.333333)"
     R"(33,"antecedent":[1,3,4,13,14],"lower_bounds":[[1,3],[3,13]]},{"ind)"
     R"(ex":25,"support_pos":3,"support_neg":1,"confidence":0.75,"chi_squa)"
     R"(re":1.4,"antecedent":[3,4],"lower_bounds":[[3]]}])"},
    {R"({"op":"topk","metric":"confidence","k":3})",
     R"({"ok":true,"op":"topk_confidence","count":3,"groups":[{"index":15,)"
     R"("support_pos":3,"support_neg":0,"confidence":1,"chi_square":3.8181)"
     R"(8182,"antecedent":[4,8,13,14],"lower_bounds":[[4,8,14],[8,13,14]]})"
     R"(,{"index":21,"support_pos":2,"support_neg":0,"confidence":1,"chi_s)"
     R"(quare":2.33333333,"antecedent":[4,5,10,12,15],"lower_bounds":[[4,1)"
     R"(0,12],[10,15]]},{"index":28,"support_pos":2,"support_neg":0,"confi)"
     R"(dence":1,"chi_square":2.33333333,"antecedent":[2,3,4,11],"lower_bo)"
     R"(unds":[[2,3],[2,4]]}])"},
    {R"({"op":"topk","metric":"chi_square","k":2})",
     R"({"ok":true,"op":"topk_chi_square","count":2,"groups":[{"index":15,)"
     R"("support_pos":3,"support_neg":0,"confidence":1,"chi_square":3.8181)"
     R"(8182,"antecedent":[4,8,13,14],"lower_bounds":[[4,8,14],[8,13,14]]})"
     R"(,{"index":12,"support_pos":4,"support_neg":1,"confidence":0.8,"chi)"
     R"(_square":2.8,"antecedent":[4,13,14],"lower_bounds":[[13,14]]}])"},
    {R"({"op":"filter","minsup":3,"minconf":0.55,"limit":3})",
     R"({"ok":true,"op":"filter","count":3,"groups":[{"index":15,"support_)"
     R"(pos":3,"support_neg":0,"confidence":1,"chi_square":3.81818182,"ant)"
     R"(ecedent":[4,8,13,14],"lower_bounds":[[4,8,14],[8,13,14]]},{"index")"
     R"(:12,"support_pos":4,"support_neg":1,"confidence":0.8,"chi_square":)"
     R"(2.8,"antecedent":[4,13,14],"lower_bounds":[[13,14]]},{"index":13,")"
     R"(support_pos":3,"support_neg":1,"confidence":0.75,"chi_square":1.4,)"
     R"("antecedent":[8,14],"lower_bounds":[[8,14]]}])"},
};

// The same request with an echo id: the JSON text minus its closing
// brace, plus the id field.
std::string WithEchoId(const std::string& request, const std::string& id) {
  return request.substr(0, request.size() - 1) + ",\"id\":\"" + id + "\"}";
}

TEST(ServerTest, GoldenResponsesInBothFramingsCachedAndUncached) {
  // Pass 0 asks each query over JSON first (uncached) and over FQP1
  // second (cached); pass 1 the other way round, with an echo id on the
  // cached JSON answer.
  for (const bool binary_first : {false, true}) {
    SCOPED_TRACE(binary_first ? "FQP1 first" : "JSON first");
    Server::Options options;
    options.num_shards = 2;
    Server server(MakeIndex(), options);
    ASSERT_TRUE(server.Start().ok());
    TestClient json_client(server.port());
    TestClient bin_client(server.port());
    ASSERT_TRUE(json_client.connected());
    ASSERT_TRUE(bin_client.connected());
    ASSERT_TRUE(bin_client.SendRaw(Preamble()));
    std::uint64_t next_id = 1;
    const auto ask_binary = [&](const GoldenResponse& golden) {
      QueryRequest req;
      EXPECT_TRUE(ParseRequest(golden.request, &req).ok());
      req.bin_id = next_id++;
      EXPECT_TRUE(bin_client.SendRaw(EncodeBinaryRequest(req)));
      std::uint64_t req_id = 0;
      FrameStatus status = FrameStatus::kInternal;
      std::string json;
      EXPECT_TRUE(bin_client.RecvFrame(&req_id, &status, &json));
      EXPECT_EQ(req_id, req.bin_id);
      EXPECT_EQ(status, FrameStatus::kOk);
      return json;
    };
    for (const GoldenResponse& golden : kGoldenResponses) {
      SCOPED_TRACE(golden.request);
      const std::string payload = golden.payload;
      if (binary_first) {
        EXPECT_EQ(ask_binary(golden), payload + ",\"cached\":false}");
        EXPECT_EQ(json_client.RoundTrip(WithEchoId(golden.request, "g7")),
                  payload + ",\"cached\":true,\"id\":\"g7\"}");
      } else {
        EXPECT_EQ(json_client.RoundTrip(golden.request),
                  payload + ",\"cached\":false}");
        EXPECT_EQ(ask_binary(golden), payload + ",\"cached\":true}");
      }
    }
    EXPECT_EQ(server.cache().hits(), std::size(kGoldenResponses));
    server.Shutdown();
  }
}

TEST(ProtocolTest, CanonicalKeysArePinned) {
  const std::pair<const char*, const char*> kKeys[] = {
      {R"({"op":"filter","minsup":0,"minconf":0.3333333333333333})",
       R"(filter minsup=0 minconf=0.333333333 limit=100)"},
      {R"({"op":"filter","minsup":7,"minconf":1e-7,"limit":0})",
       R"(filter minsup=7 minconf=1e-07 limit=0)"},
      {R"({"op":"filter","minsup":7,"minconf":-0.0,"limit":10000})",
       R"(filter minsup=7 minconf=-0 limit=10000)"},
      {R"({"op":"filter","minsup":7,"minconf":123456789012})",
       R"(filter minsup=7 minconf=1.23456789e+11 limit=100)"},
      {R"({"op":"cover","items":[]})",
       R"(cover items= limit=100)"},
      {R"({"op":"contains","items":[40000000,7,7,0]})",
       R"(contains items=0,7,40000000 limit=100)"},
      {R"({"op":"topk","metric":"chi_square","k":0,"limit":5,"id":"x","deadl)"
       R"(ine_ms":3})",
       R"(topk_chi_square k=0 limit=5)"},
      {R"({"op":"ping"})",
       R"(ping limit=100)"},
      {R"({"op":"stats","limit":9})",
       R"(stats limit=9)"},
      {R"({"op":"cover","items":[1,4,5,8,10,12,13,14,15],"limit":4})",
       R"(cover items=1,4,5,8,10,12,13,14,15 limit=4)"},
      {R"({"op":"cover","items":[1,4,5,10,13,14],"limit":100})",
       R"(cover items=1,4,5,10,13,14 limit=100)"},
      {R"({"op":"contains","items":[3],"limit":3})",
       R"(contains items=3 limit=3)"},
      {R"({"op":"topk","metric":"confidence","k":3})",
       R"(topk_confidence k=3 limit=100)"},
      {R"({"op":"topk","metric":"chi_square","k":2})",
       R"(topk_chi_square k=2 limit=100)"},
      {R"({"op":"filter","minsup":3,"minconf":0.55,"limit":3})",
       R"(filter minsup=3 minconf=0.55 limit=3)"},
  };
  for (const auto& [request, key] : kKeys) {
    QueryRequest req;
    ASSERT_TRUE(ParseRequest(request, &req).ok()) << request;
    EXPECT_EQ(CanonicalKey(req), key) << request;
  }
}

}  // namespace
}  // namespace serve
}  // namespace farmer
