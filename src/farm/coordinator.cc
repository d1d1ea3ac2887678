#include "farm/coordinator.h"

#include <unistd.h>

#include <cerrno>
#include <string_view>
#include <utility>

#include "obs/exposition.h"
#include "obs/progress.h"
#include "util/check.h"
#include "util/net.h"
#include "util/wire.h"

namespace farmer {
namespace farm {

namespace {

EventLoopMetrics LoopMetrics(obs::MetricsRegistry* m) {
  EventLoopMetrics loop;
  if (m != nullptr) {
    loop.bytes_in = m->GetCounter("farm.bytes_in");
    loop.bytes_out = m->GetCounter("farm.bytes_out");
  }
  return loop;
}

}  // namespace

Coordinator::Coordinator(const BinaryDataset& dataset,
                         const MinerOptions& options,
                         const Options& coordinator_options)
    : dataset_(dataset),
      miner_options_(options),
      options_(coordinator_options),
      miner_(dataset, options),
      fingerprint_(serve::SnapshotFingerprint::FromDataset(dataset)),
      params_(serve::SnapshotParams::FromMinerOptions(options)),
      loop_(Loop::Handler{nullptr,
                          [this](Conn& conn) { return HandleData(conn); },
                          [this] {
                            TickTimeouts();
                            PublishGauges();
                          },
                          [this](Conn& conn) {
                            RevokeHeld(conn, /*notify=*/false);
                          }},
            LoopMetrics(coordinator_options.metrics)) {
  if (options_.heartbeat_timeout_s <= 0) options_.heartbeat_timeout_s = 10.0;
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry* m = options_.metrics;
    metrics_.active_workers = m->GetGauge("farm.active_workers");
    metrics_.leases_pending = m->GetGauge("farm.leases_pending");
    metrics_.leases_outstanding = m->GetGauge("farm.leases_outstanding");
    metrics_.nodes_per_sec = m->GetGauge("farm.nodes_per_sec");
    metrics_.leases_granted = m->GetCounter("farm.leases_granted");
    metrics_.releases = m->GetCounter("farm.leases_releases");
    metrics_.results = m->GetCounter("farm.results");
    metrics_.duplicate_results = m->GetCounter("farm.duplicate_results");
    metrics_.workers_rejected = m->GetCounter("farm.workers_rejected");
    scrape_render_ = [m] { return obs::RenderPrometheus(m->Snapshot()); };
  }
}

Coordinator::~Coordinator() { Stop(); }

Status Coordinator::Start() {
  if (started_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("coordinator already started");
  }

  // Decompose before accepting anyone: the root visit is one node, and
  // doing it here keeps the loop thread free of mining work.
  const internal::FarmerMiner::FarmPlan& plan = miner_.PlanFarm();
  lease_total_ = plan.lease_rows.size();
  for (const std::uint32_t row : plan.lease_rows) {
    pending_.insert(row);
    leases_.emplace(row, LeaseState{});
  }
  if (lease_total_ == 0) {
    MutexLock lock(mutex_);
    complete_ = true;
  }

  const Status listening =
      net::OpenListener(options_.host, options_.port, &listen_fd_, &port_);
  if (!listening.ok()) return listening;
  const Status running =
      net::SetNonBlocking(listen_fd_)
          ? loop_.Start(listen_fd_)
          : Status::IoError("fcntl(listener): " + net::ErrnoString(errno));
  if (!running.ok()) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return running;
  }
  started_.store(true, std::memory_order_release);
  return Status::Ok();
}

bool Coordinator::WaitForCompletion(double timeout_seconds) {
  MutexLock lock(mutex_);
  if (timeout_seconds <= 0) {
    while (!complete_) done_cv_.Wait(mutex_);
    return true;
  }
  const Deadline deadline = Deadline::After(timeout_seconds);
  while (!complete_) {
    const double left = deadline.SecondsRemaining();
    if (left <= 0) return false;
    done_cv_.WaitForSeconds(mutex_, left);
  }
  return true;
}

bool Coordinator::complete() const {
  MutexLock lock(mutex_);
  return complete_;
}

Coordinator::Stats Coordinator::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

std::size_t Coordinator::lease_total() const { return lease_total_; }

std::size_t Coordinator::lease_remaining() const {
  MutexLock lock(mutex_);
  return lease_total_ - static_cast<std::size_t>(stats_.results);
}

FarmerResult Coordinator::Finalize() {
  // Stop the loop first: afterwards nothing can append to collected_,
  // so the merge sees every accepted upload exactly once.
  Stop();
  std::vector<MineSegment> segments;
  MinerStats stats;
  {
    MutexLock lock(mutex_);
    FARMER_CHECK(complete_)
        << "Finalize() before every lease completed (call "
           "WaitForCompletion first)";
    segments = std::move(collected_);
    collected_.clear();
    stats = worker_stats_;
  }
  const internal::FarmerMiner::FarmPlan& plan = miner_.PlanFarm();
  for (const MineSegment& seg : plan.root_segments) segments.push_back(seg);
  stats.MergeFrom(plan.root_stats);
  return miner_.FinalizeFarm(std::move(segments), stats);
}

void Coordinator::Stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  loop_.Stop();
  ::close(listen_fd_);
  listen_fd_ = -1;
  started_.store(false, std::memory_order_release);
}

// farmer-lint: begin(event-loop)
// Everything between these markers runs on the coordinator's event-loop
// thread (util/event_loop.cc) and must never block: replies are queued
// on the connection and the loop sends them, and the merge (Finalize)
// happens on the caller thread after the loop exits.

bool Coordinator::HandleData(Conn& conn) {
  Peer& peer = conn.state;
  if (peer.mode == Peer::Mode::kPreamble) {
    switch (DetectFarmProtocol(conn.rbuf)) {
      case FarmDetect::kNeedMore:
        return true;
      case FarmDetect::kUnknown:
        return false;
      case FarmDetect::kFarm:
        peer.mode = Peer::Mode::kFarm;
        conn.rbuf.erase(0, kFarmPreambleSize);
        break;
      case FarmDetect::kHttp:
        peer.mode = Peer::Mode::kHttp;
        break;
    }
  }
  if (peer.mode == Peer::Mode::kHttp) {
    AnswerScrape(conn, scrape_render_);
    return true;
  }
  while (true) {
    std::size_t consumed = 0;
    std::uint8_t opcode = 0;
    std::string_view payload;
    std::string error;
    const wire::FrameExtract got =
        wire::ExtractFrame(conn.rbuf, kMaxFarmFramePayload, &consumed,
                           &opcode, &payload, &error);
    if (got == wire::FrameExtract::kNeedMore) return true;
    if (got == wire::FrameExtract::kError) return false;
    peer.since_frame.Restart();
    if (!HandleFrame(conn, opcode, payload)) return false;
    conn.rbuf.erase(0, consumed);
  }
}

bool Coordinator::HandleFrame(Conn& conn, std::uint8_t opcode,
                              std::string_view payload) {
  switch (static_cast<FarmOp>(opcode)) {
    case FarmOp::kHello:
      return HandleHello(conn, payload);
    case FarmOp::kLeaseRequest:
      return payload.empty() && HandleLeaseRequest(conn);
    case FarmOp::kHeartbeat:
      return HandleHeartbeat(conn, payload);
    case FarmOp::kResult:
      return HandleResult(conn, payload);
    default:
      // Coordinator-to-worker opcodes (or junk) from a worker: protocol
      // error, close.
      return false;
  }
}

bool Coordinator::HandleHello(Conn& conn, std::string_view payload) {
  if (conn.state.hello_done) return false;
  HelloMsg hello;
  if (!DecodeHello(payload, &hello).ok()) return false;

  HelloAckMsg ack;
  if (hello.version != kFarmProtocolVersion) {
    ack.reason = "protocol version mismatch";
  } else if (!(hello.fingerprint == fingerprint_)) {
    ack.reason = "dataset fingerprint mismatch";
  } else if (!(hello.params == params_)) {
    ack.reason = "mining parameter mismatch";
  } else {
    ack.accepted = true;
    ack.worker_id = next_worker_id_++;
  }
  if (ack.accepted) {
    conn.state.hello_done = true;
    Count(nullptr, &Stats::workers_seen);
  } else {
    conn.want_close = true;
    Count(metrics_.workers_rejected, &Stats::workers_rejected);
  }
  conn.Queue(EncodeHelloAck(ack));
  return true;
}

bool Coordinator::HandleLeaseRequest(Conn& conn) {
  if (!conn.state.hello_done) return false;
  if (!pending_.empty()) {
    const std::uint32_t row = *pending_.begin();
    pending_.erase(pending_.begin());
    LeaseState& lease = leases_[row];
    lease.status = LeaseStatus::kLeased;
    lease.lease_id = next_lease_id_++;
    conn.state.held.insert(row);
    Count(metrics_.leases_granted, &Stats::leases_granted);
    LeaseGrantMsg grant;
    grant.lease_id = lease.lease_id;
    grant.root_row = row;
    conn.Queue(EncodeLeaseGrant(grant));
  } else if (done_count_ == lease_total_) {
    conn.Queue(EncodeEmptyFrame(FarmOp::kDone));
  } else {
    // Everything is leased out but not merged yet; the worker backs off
    // and asks again (it may yet inherit a re-leased row).
    conn.Queue(EncodeEmptyFrame(FarmOp::kNoWork));
  }
  return true;
}

bool Coordinator::HandleHeartbeat(Conn& conn, std::string_view payload) {
  if (!conn.state.hello_done) return false;
  HeartbeatMsg beat;
  if (!DecodeHeartbeat(payload, &beat).ok()) return false;
  conn.state.last_nodes_per_sec = beat.nodes_per_sec;
  return true;
}

bool Coordinator::HandleResult(Conn& conn, std::string_view payload) {
  if (!conn.state.hello_done) return false;
  ResultMsg msg;
  if (!DecodeResult(payload, &msg).ok()) return false;
  auto it = leases_.find(msg.root_row);
  if (it == leases_.end()) return false;  // Never a lease: protocol error.
  conn.state.held.erase(msg.root_row);

  ResultAckMsg ack;
  ack.lease_id = msg.lease_id;
  if (it->second.status == LeaseStatus::kDone) {
    // A re-leased row finished twice (or a duplicate retransmit). First
    // upload won; this one is discarded before it can reach the merge.
    ack.fresh = false;
    Count(metrics_.duplicate_results, &Stats::duplicate_results);
    conn.Queue(EncodeResultAck(ack));
    return true;
  }

  std::vector<MineSegment> segments;
  if (!DecodeSegments(msg.segments_wire, dataset_.num_rows(), &segments)
           .ok()) {
    return false;
  }
  it->second.status = LeaseStatus::kDone;
  pending_.erase(msg.root_row);
  ++done_count_;
  ack.fresh = true;
  if (metrics_.results != nullptr) metrics_.results->Increment();
  {
    MutexLock lock(mutex_);
    ++stats_.results;
    for (MineSegment& seg : segments) {
      collected_.push_back(std::move(seg));
    }
    worker_stats_.nodes_visited += msg.nodes_visited;
    if (msg.mine_seconds > worker_stats_.mine_seconds) {
      worker_stats_.mine_seconds = msg.mine_seconds;
    }
  }
  if (miner_options_.progress != nullptr) {
    miner_options_.progress->root_done.fetch_add(1,
                                                 std::memory_order_relaxed);
  }
  CheckCompletion();
  conn.Queue(EncodeResultAck(ack));
  return true;
}

void Coordinator::Count(obs::Counter* metric, std::uint64_t Stats::*stat) {
  if (metric != nullptr) metric->Increment();
  MutexLock lock(mutex_);
  ++(stats_.*stat);
}

void Coordinator::RevokeHeld(Conn& conn, bool notify) {
  for (const std::uint32_t row : conn.state.held) {
    auto it = leases_.find(row);
    if (it == leases_.end() || it->second.status != LeaseStatus::kLeased) {
      continue;
    }
    // Book-keeping strictly before the notify: the wire is observable,
    // so a peer that saw the revoke frame must also see the release in
    // stats() and the row back in the pending set.
    const std::uint64_t stale_lease = it->second.lease_id;
    it->second.status = LeaseStatus::kPending;
    pending_.insert(row);
    Count(metrics_.releases, &Stats::releases);
    if (notify) {
      RevokeMsg revoke;
      revoke.lease_id = stale_lease;
      conn.Queue(EncodeRevoke(revoke));
    }
  }
  conn.state.held.clear();
}

void Coordinator::TickTimeouts() {
  loop_.ForEach([this](Conn& conn) {
    Peer& peer = conn.state;
    if (peer.hello_done && peer.held.empty()) return;
    if (peer.since_frame.ElapsedSeconds() <= options_.heartbeat_timeout_s) {
      return;
    }
    if (!peer.hello_done) {
      // Still no hello (or no complete HTTP request head) this long
      // after connecting. The farm port has no admission bound, so a
      // slow-loris socket must not hold its slot forever.
      loop_.Close(conn);
      return;
    }
    // Silent past the deadline: revoke (the worker, if alive, abandons
    // the lease on receipt) and hand the rows to the next requester.
    // The connection itself stays open — a stalled worker may recover
    // and take fresh leases.
    RevokeHeld(conn, /*notify=*/true);
    loop_.Flush(conn);
  });
}

void Coordinator::CheckCompletion() {
  if (done_count_ != lease_total_) return;
  // Tell every connected worker the farm is finished before the caller
  // tears the loop down; without the broadcast an idle worker only
  // sees its socket die and wastes its reconnect budget.
  loop_.ForEach([this](Conn& conn) {
    if (!conn.state.hello_done || conn.want_close) return;
    conn.Queue(EncodeEmptyFrame(FarmOp::kDone));
    loop_.Flush(conn);
  });
  {
    MutexLock lock(mutex_);
    complete_ = true;
  }
  done_cv_.NotifyAll();
}

void Coordinator::PublishGauges() {
  if (options_.metrics == nullptr) return;
  std::size_t workers = 0;
  double nodes_per_sec = 0.0;
  std::size_t outstanding = 0;
  loop_.ForEach([&](Conn& conn) {
    if (!conn.state.hello_done) return;
    ++workers;
    nodes_per_sec += conn.state.last_nodes_per_sec;
    outstanding += conn.state.held.size();
  });
  metrics_.active_workers->Set(static_cast<double>(workers));
  metrics_.nodes_per_sec->Set(nodes_per_sec);
  metrics_.leases_outstanding->Set(static_cast<double>(outstanding));
  metrics_.leases_pending->Set(static_cast<double>(pending_.size()));
}

// farmer-lint: end(event-loop)

}  // namespace farm
}  // namespace farmer
