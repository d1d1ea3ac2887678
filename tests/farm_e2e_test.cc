// End-to-end farm tests: a real Coordinator and real Workers talking
// FMP1 over localhost, plus a raw scripted client for the failure
// paths — death mid-lease, duplicate uploads, heartbeat-timeout
// revocation, and hello rejection. The headline assertion everywhere:
// whatever goes wrong short of losing the coordinator, the merged farm
// result is bit-identical to a single-process MineFarmer() run.

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/farmer.h"
#include "core/miner_options.h"
#include "dataset/dataset.h"
#include "dataset/discretize.h"
#include "dataset/synthetic.h"
#include "farm/coordinator.h"
#include "farm/protocol.h"
#include "farm/worker.h"
#include "obs/metrics.h"
#include "serve/index.h"
#include "serve/server.h"
#include "test_util.h"
#include "util/event_loop.h"
#include "util/net.h"
#include "util/timer.h"
#include "util/wire.h"

namespace farmer {
namespace farm {
namespace {

using testing_util::RandomDataset;

void ExpectIdenticalResults(const FarmerResult& want,
                            const FarmerResult& got) {
  ASSERT_EQ(want.groups.size(), got.groups.size());
  for (std::size_t i = 0; i < want.groups.size(); ++i) {
    SCOPED_TRACE("group " + std::to_string(i));
    const RuleGroup& a = want.groups[i];
    const RuleGroup& b = got.groups[i];
    EXPECT_EQ(a.antecedent, b.antecedent);
    EXPECT_EQ(a.rows, b.rows);
    EXPECT_EQ(a.support_pos, b.support_pos);
    EXPECT_EQ(a.support_neg, b.support_neg);
    EXPECT_EQ(a.confidence, b.confidence);
    EXPECT_EQ(a.chi_square, b.chi_square);
    EXPECT_EQ(a.lower_bounds, b.lower_bounds);
    EXPECT_EQ(a.lower_bounds_truncated, b.lower_bounds_truncated);
  }
  EXPECT_EQ(want.num_rows, got.num_rows);
  EXPECT_EQ(want.num_consequent_rows, got.num_consequent_rows);
}

// A blocking scripted FMP1 client for driving the coordinator into
// exact protocol states a well-behaved Worker never produces.
class RawClient {
 public:
  ~RawClient() { Close(); }

  bool Connect(int port) {
    return net::ConnectToHost("127.0.0.1", port, 5.0, &fd_).ok();
  }

  // Plays the coordinator's side instead: accepts one connection on
  // `listen_fd` and consumes its preamble.
  bool AcceptWorker(int listen_fd) {
    fd_ = ::accept(listen_fd, nullptr, nullptr);
    char preamble[kFarmPreambleSize];
    return fd_ >= 0 &&
           ::recv(fd_, preamble, sizeof(preamble), MSG_WAITALL) ==
               static_cast<ssize_t>(sizeof(preamble)) &&
           std::string_view(preamble, sizeof(preamble)) ==
               std::string_view(kFarmPreamble, kFarmPreambleSize);
  }

  bool Send(std::string_view bytes) { return net::SendAll(fd_, bytes); }

  bool SendPreambleAndHello(const HelloMsg& hello) {
    std::string bytes(kFarmPreamble, kFarmPreambleSize);
    bytes += EncodeHello(hello);
    return Send(bytes);
  }

  // Reads one frame (blocking). Returns false on EOF / error.
  bool ReadFrame(std::uint8_t* opcode, std::string* payload) {
    while (true) {
      std::size_t consumed = 0;
      std::string_view view;
      std::string error;
      const wire::FrameExtract got =
          wire::ExtractFrame(buf_, kMaxFarmFramePayload, &consumed, opcode,
                             &view, &error);
      if (got == wire::FrameExtract::kComplete) {
        *payload = std::string(view);
        buf_.erase(0, consumed);
        return true;
      }
      if (got == wire::FrameExtract::kError) return false;
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  // Hello + ack convenience; returns the ack.
  HelloAckMsg Handshake(const HelloMsg& hello) {
    HelloAckMsg ack;
    if (!SendPreambleAndHello(hello)) return ack;
    std::uint8_t opcode = 0;
    std::string payload;
    if (!ReadFrame(&opcode, &payload)) return ack;
    EXPECT_EQ(static_cast<FarmOp>(opcode), FarmOp::kHelloAck);
    EXPECT_TRUE(DecodeHelloAck(payload, &ack).ok());
    return ack;
  }

  // Requests a lease; EXPECTs a grant and returns it.
  LeaseGrantMsg RequestLease() {
    LeaseGrantMsg grant;
    EXPECT_TRUE(Send(EncodeEmptyFrame(FarmOp::kLeaseRequest)));
    std::uint8_t opcode = 0;
    std::string payload;
    EXPECT_TRUE(ReadFrame(&opcode, &payload));
    EXPECT_EQ(static_cast<FarmOp>(opcode), FarmOp::kLeaseGrant);
    EXPECT_TRUE(DecodeLeaseGrant(payload, &grant).ok());
    return grant;
  }

  // True when the coordinator closes the connection (EOF) within
  // `timeout_s`; bytes received before the EOF are discarded.
  bool WaitForEof(double timeout_s) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(timeout_s);
    tv.tv_usec = static_cast<suseconds_t>((timeout_s - tv.tv_sec) * 1e6);
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    char chunk[4096];
    ssize_t n;
    while ((n = ::recv(fd_, chunk, sizeof(chunk), 0)) > 0) {
    }
    return n == 0;
  }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
    buf_.clear();
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

HelloMsg MakeHello(const BinaryDataset& dataset, const MinerOptions& opts) {
  HelloMsg hello;
  hello.fingerprint = serve::SnapshotFingerprint::FromDataset(dataset);
  hello.params = serve::SnapshotParams::FromMinerOptions(opts);
  hello.simd_level = "test";
  hello.worker_name = "raw";
  return hello;
}

// Runs `count` real workers to completion against the coordinator's
// port; EXPECTs every Run() to come back Ok.
void RunWorkers(const BinaryDataset& dataset, const MinerOptions& opts,
                int port, int count, double no_work_poll_s = 0.02) {
  std::vector<std::thread> threads;
  std::vector<Status> statuses(static_cast<std::size_t>(count));
  std::vector<std::unique_ptr<Worker>> workers;
  for (int i = 0; i < count; ++i) {
    Worker::Options wopts;
    wopts.port = port;
    wopts.name = "w" + std::to_string(i);
    wopts.no_work_poll_s = no_work_poll_s;
    workers.push_back(std::make_unique<Worker>(dataset, opts, wopts));
  }
  for (int i = 0; i < count; ++i) {
    threads.emplace_back([&, i] { statuses[i] = workers[i]->Run(); });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < count; ++i) {
    EXPECT_TRUE(statuses[i].ok()) << "worker " << i << ": "
                                  << statuses[i].ToString();
  }
}

TEST(FarmE2ETest, TwoWorkersBitIdentical) {
  const BinaryDataset dataset = RandomDataset(20, 24, 0.3, 3);
  MinerOptions opts;
  opts.min_support = 2;
  opts.min_confidence = 0.6;
  const FarmerResult single = MineFarmer(dataset, opts);

  obs::MetricsRegistry metrics;
  Coordinator::Options copts;
  copts.metrics = &metrics;
  Coordinator coordinator(dataset, opts, copts);
  ASSERT_TRUE(coordinator.Start().ok());
  ASSERT_GT(coordinator.port(), 0);

  RunWorkers(dataset, opts, coordinator.port(), 2);
  ASSERT_TRUE(coordinator.WaitForCompletion(30.0));
  const FarmerResult farm = coordinator.Finalize();
  ExpectIdenticalResults(single, farm);
  EXPECT_EQ(single.stats.nodes_visited, farm.stats.nodes_visited);

  const Coordinator::Stats stats = coordinator.stats();
  EXPECT_EQ(stats.workers_seen, 2u);
  EXPECT_EQ(stats.results, coordinator.lease_total());
  EXPECT_EQ(stats.duplicate_results, 0u);
}

TEST(FarmE2ETest, WorkerKilledMidLeaseIsReleased) {
  const BinaryDataset dataset = RandomDataset(18, 22, 0.3, 7);
  MinerOptions opts;
  opts.min_support = 2;
  const FarmerResult single = MineFarmer(dataset, opts);

  Coordinator coordinator(dataset, opts, Coordinator::Options{});
  ASSERT_TRUE(coordinator.Start().ok());

  // A "worker" takes a lease and then dies without uploading. The
  // coordinator must revoke on disconnect and hand the row to the next
  // requester.
  RawClient raw;
  ASSERT_TRUE(raw.Connect(coordinator.port()));
  ASSERT_TRUE(raw.Handshake(MakeHello(dataset, opts)).accepted);
  const LeaseGrantMsg grant = raw.RequestLease();
  EXPECT_NE(grant.lease_id, 0u);
  raw.Close();  // Simulated SIGKILL.

  RunWorkers(dataset, opts, coordinator.port(), 1);
  ASSERT_TRUE(coordinator.WaitForCompletion(30.0));
  const FarmerResult farm = coordinator.Finalize();
  ExpectIdenticalResults(single, farm);

  const Coordinator::Stats stats = coordinator.stats();
  EXPECT_GE(stats.releases, 1u);
  EXPECT_EQ(stats.duplicate_results, 0u);
}

TEST(FarmE2ETest, DuplicateUploadIsDiscardedDeterministically) {
  const BinaryDataset dataset = RandomDataset(16, 20, 0.35, 9);
  MinerOptions opts;
  opts.min_support = 2;
  opts.report_all_rule_groups = true;  // Where duplicates would corrupt.
  const FarmerResult single = MineFarmer(dataset, opts);

  Coordinator coordinator(dataset, opts, Coordinator::Options{});
  ASSERT_TRUE(coordinator.Start().ok());

  // Mine one lease out-of-band so the raw client can upload it twice.
  internal::FarmerMiner miner(dataset, opts);
  miner.PlanFarm();

  RawClient raw;
  ASSERT_TRUE(raw.Connect(coordinator.port()));
  ASSERT_TRUE(raw.Handshake(MakeHello(dataset, opts)).accepted);
  const LeaseGrantMsg grant = raw.RequestLease();

  ResultMsg result;
  result.lease_id = grant.lease_id;
  result.root_row = grant.root_row;
  result.segments_wire = EncodeSegments(
      miner.MineFarmLease(grant.root_row, nullptr, nullptr));
  ASSERT_TRUE(raw.Send(EncodeResult(result)));
  std::uint8_t opcode = 0;
  std::string payload;
  ASSERT_TRUE(raw.ReadFrame(&opcode, &payload));
  ASSERT_EQ(static_cast<FarmOp>(opcode), FarmOp::kResultAck);
  ResultAckMsg ack;
  ASSERT_TRUE(DecodeResultAck(payload, &ack).ok());
  EXPECT_TRUE(ack.fresh);

  // Same upload again: acked, but flagged stale and never merged.
  ASSERT_TRUE(raw.Send(EncodeResult(result)));
  ASSERT_TRUE(raw.ReadFrame(&opcode, &payload));
  ASSERT_EQ(static_cast<FarmOp>(opcode), FarmOp::kResultAck);
  ASSERT_TRUE(DecodeResultAck(payload, &ack).ok());
  EXPECT_FALSE(ack.fresh);
  raw.Close();

  RunWorkers(dataset, opts, coordinator.port(), 1);
  ASSERT_TRUE(coordinator.WaitForCompletion(30.0));
  const FarmerResult farm = coordinator.Finalize();
  ExpectIdenticalResults(single, farm);
  EXPECT_EQ(coordinator.stats().duplicate_results, 1u);
}

TEST(FarmE2ETest, SilentWorkerHasLeaseRevokedAndReLeased) {
  const BinaryDataset dataset = RandomDataset(14, 20, 0.3, 13);
  MinerOptions opts;
  opts.min_support = 2;
  const FarmerResult single = MineFarmer(dataset, opts);

  Coordinator::Options copts;
  copts.heartbeat_timeout_s = 0.3;
  Coordinator coordinator(dataset, opts, copts);
  ASSERT_TRUE(coordinator.Start().ok());

  RawClient raw;
  ASSERT_TRUE(raw.Connect(coordinator.port()));
  ASSERT_TRUE(raw.Handshake(MakeHello(dataset, opts)).accepted);
  const LeaseGrantMsg grant = raw.RequestLease();

  // Go silent. Past the heartbeat timeout the coordinator must send
  // kRevoke for the held lease (the connection itself stays open).
  std::uint8_t opcode = 0;
  std::string payload;
  ASSERT_TRUE(raw.ReadFrame(&opcode, &payload));
  ASSERT_EQ(static_cast<FarmOp>(opcode), FarmOp::kRevoke);
  RevokeMsg revoke;
  ASSERT_TRUE(DecodeRevoke(payload, &revoke).ok());
  EXPECT_EQ(revoke.lease_id, grant.lease_id);
  EXPECT_GE(coordinator.stats().releases, 1u);

  // The revoked row must be grantable again — possibly to the same
  // connection, which is still welcome to take fresh leases.
  const LeaseGrantMsg again = raw.RequestLease();
  EXPECT_NE(again.lease_id, grant.lease_id);
  raw.Close();

  RunWorkers(dataset, opts, coordinator.port(), 1);
  ASSERT_TRUE(coordinator.WaitForCompletion(30.0));
  ExpectIdenticalResults(single, coordinator.Finalize());
}

TEST(FarmE2ETest, ParkedWorkerInheritsRevokedLease) {
  const BinaryDataset dataset = RandomDataset(16, 20, 0.3, 29);
  MinerOptions opts;
  opts.min_support = 2;
  const FarmerResult single = MineFarmer(dataset, opts);

  Coordinator::Options copts;
  copts.heartbeat_timeout_s = 0.5;
  Coordinator coordinator(dataset, opts, copts);
  ASSERT_TRUE(coordinator.Start().ok());
  ASSERT_GT(coordinator.lease_total(), 0u);

  // A raw client takes every lease and goes silent, so the worker's
  // request finds no pending row and parks. The heartbeat revoke returns
  // the rows; the parked request must get them then, not after a 10 s
  // kNoWork poll.
  RawClient hog;
  ASSERT_TRUE(hog.Connect(coordinator.port()));
  ASSERT_TRUE(hog.Handshake(MakeHello(dataset, opts)).accepted);
  for (std::size_t i = 0; i < coordinator.lease_total(); ++i) {
    hog.RequestLease();
  }
  const Stopwatch watch;
  RunWorkers(dataset, opts, coordinator.port(), 1, /*no_work_poll_s=*/10.0);
  EXPECT_LT(watch.ElapsedSeconds(), 5.0);
  ASSERT_TRUE(coordinator.WaitForCompletion(30.0));
  ExpectIdenticalResults(single, coordinator.Finalize());
  EXPECT_GE(coordinator.stats().releases, coordinator.lease_total());
}

TEST(FarmE2ETest, IdleWorkerSeesDoneWithoutPolling) {
  // More workers than the last leases need: the idle ones wait in a
  // parked request, and the completion broadcast answers it. A worker
  // that polled would sleep 10 s before it saw kDone.
  const BinaryDataset dataset = RandomDataset(14, 20, 0.3, 31);
  MinerOptions opts;
  opts.min_support = 2;

  Coordinator coordinator(dataset, opts, Coordinator::Options{});
  ASSERT_TRUE(coordinator.Start().ok());
  const Stopwatch watch;
  RunWorkers(dataset, opts, coordinator.port(), 3, /*no_work_poll_s=*/10.0);
  EXPECT_LT(watch.ElapsedSeconds(), 5.0);
  ASSERT_TRUE(coordinator.WaitForCompletion(30.0));
  ExpectIdenticalResults(MineFarmer(dataset, opts), coordinator.Finalize());
}

TEST(FarmE2ETest, MalformedUploadClosesAndReleasesTheRow) {
  // A kResult frame with a valid CRC whose segments are not a lease's:
  // the merge thread rejects it, the uploader's connection closes and
  // the row goes back to pending before it counts as done.
  const BinaryDataset dataset = RandomDataset(16, 20, 0.35, 37);
  MinerOptions opts;
  opts.min_support = 2;
  const FarmerResult single = MineFarmer(dataset, opts);

  Coordinator coordinator(dataset, opts, Coordinator::Options{});
  ASSERT_TRUE(coordinator.Start().ok());
  ASSERT_GE(coordinator.lease_total(), 2u);
  internal::FarmerMiner miner(dataset, opts);
  const internal::FarmerMiner::FarmPlan& plan = miner.PlanFarm();

  const auto upload = [&](bool other_rows_segments) {
    RawClient raw;
    ASSERT_TRUE(raw.Connect(coordinator.port()));
    ASSERT_TRUE(raw.Handshake(MakeHello(dataset, opts)).accepted);
    const LeaseGrantMsg grant = raw.RequestLease();
    ResultMsg result;
    result.lease_id = grant.lease_id;
    result.root_row = grant.root_row;
    if (other_rows_segments) {
      // Well-formed segments, but from another lease's subtree.
      const std::size_t other = grant.root_row == plan.lease_rows[0] ? 1 : 0;
      result.segments_wire = EncodeSegments(
          miner.MineFarmLease(plan.lease_rows[other], nullptr, nullptr));
    } else {
      result.segments_wire = "not segments";
    }
    ASSERT_TRUE(raw.Send(EncodeResult(result)));
    EXPECT_TRUE(raw.WaitForEof(10.0));
  };
  {
    SCOPED_TRACE("undecodable segments");
    upload(false);
  }
  {
    SCOPED_TRACE("segments of another lease");
    upload(true);
  }
  EXPECT_EQ(coordinator.stats().results, 0u);

  RunWorkers(dataset, opts, coordinator.port(), 1);
  ASSERT_TRUE(coordinator.WaitForCompletion(30.0));
  ExpectIdenticalResults(single, coordinator.Finalize());
  const Coordinator::Stats stats = coordinator.stats();
  EXPECT_EQ(stats.results, coordinator.lease_total());
  EXPECT_EQ(stats.releases, 2u);
}

TEST(FarmE2ETest, MergeDeadlineKeepsOnlyCheckedCandidates) {
  // The coordinator-path twin of the FarmerParallelTest case: the
  // coordinator's own deadline (the workers have none) has fired before
  // its merge thread merges the first upload. Each check samples the
  // deadline after its 128-candidate chunk and the candidates not
  // checked by then are dropped, so the result is a subset of the
  // untimed one, in its order, and holds only IRGs.
  const ExpressionMatrix matrix =
      GenerateSynthetic(PaperDatasetSpec("PC", /*column_scale=*/0.01));
  const BinaryDataset dataset =
      Discretization::FitEqualDepth(matrix, 10).Apply(matrix);
  MinerOptions opts;
  opts.min_support = 4;
  opts.min_confidence = 0.9;
  opts.mine_lower_bounds = false;
  const FarmerResult untimed = MineFarmer(dataset, opts);
  ASSERT_GT(untimed.groups.size(), 128u);  // More than one merge chunk.
  MinerOptions all_opts = opts;
  all_opts.report_all_rule_groups = true;
  const FarmerResult all = MineFarmer(dataset, all_opts);

  for (std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("coordinator threads = " + std::to_string(threads));
    MinerOptions timed = opts;
    timed.num_threads = threads;
    timed.deadline = Deadline::After(1e-9);
    while (!timed.deadline.ExpiredNow()) {
    }
    Coordinator coordinator(dataset, timed, Coordinator::Options{});
    ASSERT_TRUE(coordinator.Start().ok());
    RunWorkers(dataset, opts, coordinator.port(), 2);
    ASSERT_TRUE(coordinator.WaitForCompletion(30.0));
    const FarmerResult r = coordinator.Finalize();
    EXPECT_TRUE(r.stats.timed_out);
    EXPECT_LT(r.groups.size(), untimed.groups.size());
    // Inline, the merge checks one chunk, samples the deadline and stops.
    if (threads == 1) {
      EXPECT_LE(r.groups.size(), 128u);
    }
    std::size_t next = 0;
    for (const RuleGroup& g : r.groups) {
      while (next < untimed.groups.size() &&
             untimed.groups[next].rows != g.rows) {
        ++next;
      }
      ASSERT_LT(next, untimed.groups.size())
          << "kept group " << g.rows.ToString()
          << " is not in the untimed result, or out of its order";
      EXPECT_EQ(untimed.groups[next].confidence, g.confidence);
      ++next;
      for (const RuleGroup& h : all.groups) {
        EXPECT_FALSE(g.rows.IsProperSubsetOf(h.rows) &&
                     h.confidence >= g.confidence)
            << "kept group " << g.rows.ToString() << " is dominated by "
            << h.rows.ToString();
      }
    }
  }
}

TEST(FarmE2ETest, GrantOutsideThePlanEndsTheWorker) {
  // A coordinator that planned another decomposition grants rows this
  // worker has no lease for. The worker must refuse them and stop — not
  // abort its process, and not reconnect to the same coordinator.
  const BinaryDataset dataset = RandomDataset(12, 18, 0.35, 5);
  MinerOptions opts;
  opts.min_support = 2;
  int listen_fd = -1;
  int port = 0;
  ASSERT_TRUE(net::OpenListener("127.0.0.1", 0, &listen_fd, &port).ok());
  for (const std::uint32_t row :
       {static_cast<std::uint32_t>(dataset.num_rows()), UINT32_MAX}) {
    SCOPED_TRACE("granted row " + std::to_string(row));
    std::thread coordinator([&] {
      RawClient peer;
      ASSERT_TRUE(peer.AcceptWorker(listen_fd));
      std::uint8_t opcode = 0;
      std::string payload;
      ASSERT_TRUE(peer.ReadFrame(&opcode, &payload));
      ASSERT_EQ(static_cast<FarmOp>(opcode), FarmOp::kHello);
      HelloAckMsg ack;
      ack.accepted = true;
      ack.worker_id = 1;
      ASSERT_TRUE(peer.Send(EncodeHelloAck(ack)));
      ASSERT_TRUE(peer.ReadFrame(&opcode, &payload));
      ASSERT_EQ(static_cast<FarmOp>(opcode), FarmOp::kLeaseRequest);
      LeaseGrantMsg grant;
      grant.lease_id = 1;
      grant.root_row = row;
      ASSERT_TRUE(peer.Send(EncodeLeaseGrant(grant)));
      EXPECT_TRUE(peer.WaitForEof(10.0));
    });
    Worker::Options wopts;
    wopts.port = port;
    wopts.max_connect_attempts = 1;
    Worker worker(dataset, opts, wopts);
    const Status status = worker.Run();
    coordinator.join();
    EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
    EXPECT_EQ(worker.leases_completed(), 0u);
  }
  ::close(listen_fd);
}

TEST(FarmE2ETest, MismatchedWorkersAreRejected) {
  const BinaryDataset dataset = RandomDataset(14, 20, 0.3, 17);
  MinerOptions opts;
  opts.min_support = 2;

  Coordinator coordinator(dataset, opts, Coordinator::Options{});
  ASSERT_TRUE(coordinator.Start().ok());

  {
    // Wrong dataset fingerprint.
    RawClient raw;
    ASSERT_TRUE(raw.Connect(coordinator.port()));
    HelloMsg hello = MakeHello(dataset, opts);
    hello.fingerprint.dataset_hash ^= 1;
    const HelloAckMsg ack = raw.Handshake(hello);
    EXPECT_FALSE(ack.accepted);
    EXPECT_NE(ack.reason.find("fingerprint"), std::string::npos)
        << ack.reason;
  }
  {
    // Wrong mining parameters.
    RawClient raw;
    ASSERT_TRUE(raw.Connect(coordinator.port()));
    MinerOptions other = opts;
    other.min_support = opts.min_support + 1;
    const HelloAckMsg ack = raw.Handshake(MakeHello(dataset, other));
    EXPECT_FALSE(ack.accepted);
    EXPECT_NE(ack.reason.find("parameter"), std::string::npos)
        << ack.reason;
  }
  {
    // Wrong protocol version.
    RawClient raw;
    ASSERT_TRUE(raw.Connect(coordinator.port()));
    HelloMsg hello = MakeHello(dataset, opts);
    hello.version = kFarmProtocolVersion + 1;
    const HelloAckMsg ack = raw.Handshake(hello);
    EXPECT_FALSE(ack.accepted);
    EXPECT_NE(ack.reason.find("version"), std::string::npos) << ack.reason;
  }

  // A real Worker built with mismatched options reports the rejection
  // as InvalidArgument — not retryable, not a crash.
  MinerOptions other = opts;
  other.min_confidence = 0.9;
  Worker::Options wopts;
  wopts.port = coordinator.port();
  Worker worker(dataset, other, wopts);
  const Status status = worker.Run();
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_EQ(coordinator.stats().workers_rejected, 4u);

  // The farm still completes with a matching worker.
  RunWorkers(dataset, opts, coordinator.port(), 1);
  ASSERT_TRUE(coordinator.WaitForCompletion(30.0));
  ExpectIdenticalResults(MineFarmer(dataset, opts), coordinator.Finalize());
}

TEST(FarmE2ETest, MetricsScrapeOnTheFarmListener) {
  const BinaryDataset dataset = RandomDataset(12, 18, 0.3, 19);
  MinerOptions opts;
  opts.min_support = 2;

  obs::MetricsRegistry metrics;
  Coordinator::Options copts;
  copts.metrics = &metrics;
  Coordinator coordinator(dataset, opts, copts);
  ASSERT_TRUE(coordinator.Start().ok());

  int fd = -1;
  ASSERT_TRUE(net::ConnectToHost("127.0.0.1", coordinator.port(), 5.0, &fd)
                  .ok());
  ASSERT_TRUE(
      net::SendAll(fd, "GET /metrics HTTP/1.1\r\n\r\n"));
  std::string response;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(response.find("200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("farm"), std::string::npos) << response;

  coordinator.Stop();
}

TEST(FarmE2ETest, HandshakeSlowLorisIsClosedAfterHeartbeatTimeout) {
  const BinaryDataset dataset = RandomDataset(14, 20, 0.3, 23);
  MinerOptions opts;
  opts.min_support = 2;

  Coordinator::Options copts;
  copts.heartbeat_timeout_s = 0.3;
  Coordinator coordinator(dataset, opts, copts);
  ASSERT_TRUE(coordinator.Start().ok());

  // One socket says nothing, one stops halfway through the preamble.
  // Neither ever sends a hello, so neither may hold its socket past the
  // heartbeat timeout.
  const Stopwatch watch;
  RawClient silent;
  ASSERT_TRUE(silent.Connect(coordinator.port()));
  RawClient partial;
  ASSERT_TRUE(partial.Connect(coordinator.port()));
  ASSERT_TRUE(partial.Send("FM"));
  EXPECT_TRUE(silent.WaitForEof(10.0));
  EXPECT_TRUE(partial.WaitForEof(10.0));
  EXPECT_GE(watch.ElapsedSeconds(), 0.25);

  // Workers send their hello right after connecting: unaffected.
  RunWorkers(dataset, opts, coordinator.port(), 1);
  ASSERT_TRUE(coordinator.WaitForCompletion(30.0));
  ExpectIdenticalResults(MineFarmer(dataset, opts), coordinator.Finalize());
}

// Everything the peer sends back until it closes.
std::string Scrape(int port, const std::string& request) {
  int fd = -1;
  if (!net::ConnectToHost("127.0.0.1", port, 5.0, &fd).ok()) {
    return "<connect failed>";
  }
  timeval tv{};
  tv.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::string response;
  if (net::SendAll(fd, request)) {
    char chunk[4096];
    ssize_t n;
    while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
      response.append(chunk, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  return response;
}

// The three scrape surfaces — the serve port, the serve --metrics-port
// listener and the farm port — answer one table through the same
// responder: 200 / 404 / 503 (no registry) / 431 (oversized head).
TEST(ScrapeTableTest, EveryListenerAnswersTheSameTable) {
  const BinaryDataset dataset = RandomDataset(12, 18, 0.3, 29);
  MinerOptions opts;
  opts.min_support = 2;

  struct Surface {
    std::string name;
    int port;
    bool registry;
  };
  std::vector<Surface> surfaces;
  obs::MetricsRegistry serve_metrics;
  obs::MetricsRegistry farm_metrics;
  std::vector<std::unique_ptr<serve::Server>> servers;
  std::vector<std::unique_ptr<Coordinator>> coordinators;
  for (const bool registry : {true, false}) {
    const std::string suffix = registry ? "" : " (no registry)";
    FarmerResult mined = MineFarmer(dataset, opts);
    serve::RuleGroupSnapshot snapshot;
    snapshot.groups = std::move(mined.groups);
    snapshot.num_rows = dataset.num_rows();
    snapshot.params = serve::SnapshotParams::FromMinerOptions(opts);
    snapshot.fingerprint = serve::SnapshotFingerprint::FromDataset(dataset);
    serve::Server::Options sopts;
    sopts.num_shards = 1;
    sopts.metrics_port = 0;
    sopts.metrics = registry ? &serve_metrics : nullptr;
    servers.push_back(std::make_unique<serve::Server>(
        serve::RuleGroupIndex(std::move(snapshot)), sopts));
    ASSERT_TRUE(servers.back()->Start().ok());
    surfaces.push_back({"serve port" + suffix, servers.back()->port(),
                        registry});
    surfaces.push_back({"serve metrics port" + suffix,
                        servers.back()->metrics_port(), registry});

    Coordinator::Options copts;
    copts.metrics = registry ? &farm_metrics : nullptr;
    coordinators.push_back(
        std::make_unique<Coordinator>(dataset, opts, copts));
    ASSERT_TRUE(coordinators.back()->Start().ok());
    surfaces.push_back({"farm port" + suffix, coordinators.back()->port(),
                        registry});
  }

  // Exactly one byte over the cap, so the responder has read all of it
  // before it answers and closes.
  std::string oversized = "GET /metrics HTTP/1.0\r\nX-Pad: ";
  oversized.resize(kMaxScrapeHeadBytes + 1, 'x');
  struct Case {
    const char* name;
    std::string request;
    const char* with_registry;
    const char* without_registry;
  };
  const std::vector<Case> cases = {
      {"metrics", "GET /metrics HTTP/1.0\r\n\r\n", "200 OK",
       "503 Service Unavailable"},
      {"metrics with query and headers",
       "GET /metrics?name=x HTTP/1.1\r\nHost: a\r\n\r\n", "200 OK",
       "503 Service Unavailable"},
      {"bare newlines", "GET /metrics HTTP/1.0\n\n", "200 OK",
       "503 Service Unavailable"},
      {"other path", "GET /other HTTP/1.0\r\n\r\n", "404 Not Found",
       "404 Not Found"},
      {"oversized head", oversized, "431 Request Header Fields Too Large",
       "431 Request Header Fields Too Large"},
  };
  for (const Surface& surface : surfaces) {
    for (const Case& c : cases) {
      SCOPED_TRACE(surface.name + ": " + c.name);
      const std::string response = Scrape(surface.port, c.request);
      const std::string want = std::string("HTTP/1.0 ") +
                               (surface.registry ? c.with_registry
                                                 : c.without_registry) +
                               "\r\n";
      EXPECT_EQ(response.rfind(want, 0), 0u) << response.substr(0, 200);
      // One response, then close: the body is exactly Content-Length.
      const std::size_t head_end = response.find("\r\n\r\n");
      ASSERT_NE(head_end, std::string::npos);
      const std::size_t length_at = response.find("Content-Length: ");
      ASSERT_NE(length_at, std::string::npos);
      EXPECT_EQ(std::stoul(response.substr(length_at + 16)),
                response.size() - head_end - 4);
    }
  }
  for (auto& server : servers) server->Shutdown();
  for (auto& coordinator : coordinators) coordinator->Stop();
}

}  // namespace
}  // namespace farm
}  // namespace farmer
