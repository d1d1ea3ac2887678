#include "farm/coordinator.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <string_view>
#include <utility>
#include <vector>

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
                            ApplyVerdicts();
                            TickTimeouts();
                            PublishGauges();
                          },
                          [this](Conn& conn) {
                            RevokeHeld(conn, /*notify=*/false);
                            ServeParked();
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
  for (std::size_t i = 0; i < lease_total_; ++i) {
    pending_.insert(plan.lease_rows[i]);
    leases_.emplace(plan.lease_rows[i],
                    LeaseState{LeaseStatus::kPending, 0, i});
  }
  lease_segments_.resize(lease_total_);
  lease_decoded_.assign(lease_total_, 0);
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
  merge_thread_ = std::thread([this] { MergeLoop(); });
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
  // Stop first: afterwards neither thread runs, and completion means
  // every lease decoded, so the tail below is exactly what the merge
  // thread had not merged yet.
  Stop();
  MinerStats stats;
  {
    MutexLock lock(mutex_);
    FARMER_CHECK(complete_)
        << "Finalize() before every lease completed (call "
           "WaitForCompletion first)";
    stats = worker_stats_;
  }
  std::vector<MineSegment> tail;
  for (std::size_t i = merged_leases_; i < lease_total_; ++i) {
    for (MineSegment& seg : lease_segments_[i]) tail.push_back(std::move(seg));
  }
  const internal::FarmerMiner::FarmPlan& plan = miner_.PlanFarm();
  for (const MineSegment& seg : plan.root_segments) tail.push_back(seg);
  stats.MergeFrom(plan.root_stats);
  return miner_.FinalizeFarm(std::move(tail), stats);
}

void Coordinator::Stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  // The merge thread wakes the loop: join it before the loop stops.
  {
    MutexLock lock(mutex_);
    merge_stop_ = true;
  }
  merge_cv_.NotifyAll();
  merge_thread_.join();
  loop_.Stop();
  ::close(listen_fd_);
  listen_fd_ = -1;
  started_.store(false, std::memory_order_release);
}

void Coordinator::MergeLoop() {
  while (true) {
    std::vector<Upload> batch;
    {
      MutexLock lock(mutex_);
      while (uploads_.empty() && !merge_stop_) merge_cv_.Wait(mutex_);
      if (merge_stop_) return;
      batch.swap(uploads_);
    }
    std::vector<Verdict> verdicts;
    verdicts.reserve(batch.size());
    MinerStats decoded_stats;
    for (Upload& upload : batch) {
      const bool ok = DecodeUpload(upload);
      verdicts.push_back(Verdict{upload.msg.root_row, upload.worker_id, ok});
      if (!ok) continue;
      decoded_stats.nodes_visited += upload.msg.nodes_visited;
      decoded_stats.mine_seconds =
          std::max(decoded_stats.mine_seconds, upload.msg.mine_seconds);
    }
    {
      MutexLock lock(mutex_);
      worker_stats_.nodes_visited += decoded_stats.nodes_visited;
      worker_stats_.mine_seconds =
          std::max(worker_stats_.mine_seconds, decoded_stats.mine_seconds);
      verdicts_.insert(verdicts_.end(), verdicts.begin(), verdicts.end());
    }
    loop_.Wake();

    // Leases are granted in row order, so the decoded prefix of
    // lease_rows is usually long: merge it now. Its candidates are final
    // (Lemma 3.4: the merge is in post-order, and a candidate's fate
    // depends only on the candidates before it).
    std::vector<MineSegment> prefix;
    for (; merged_leases_ < lease_total_ && lease_decoded_[merged_leases_];
         ++merged_leases_) {
      for (MineSegment& seg : lease_segments_[merged_leases_]) {
        prefix.push_back(std::move(seg));
      }
      std::vector<MineSegment>().swap(lease_segments_[merged_leases_]);
    }
    if (!prefix.empty()) miner_.MergeFarmSegments(std::move(prefix));
  }
}

bool Coordinator::DecodeUpload(Upload& upload) {
  std::string& wire = upload.msg.segments_wire;
  std::vector<MineSegment> segments;
  const Status decoded = DecodeSegments(wire, dataset_.num_rows(), &segments);
  std::string().swap(wire);
  if (!decoded.ok()) return false;
  // Every segment of a lease lies in the lease's subtree, so its id
  // starts with the lease's row; anything else would break the merge's
  // id order.
  for (const MineSegment& seg : segments) {
    if (seg.id.empty() || seg.id.front() != upload.msg.root_row) {
      return false;
    }
  }
  lease_segments_[upload.index] = std::move(segments);
  lease_decoded_[upload.index] = 1;
  return true;
}

// farmer-lint: begin(event-loop)
// Everything between these markers runs on the coordinator's event-loop
// thread (util/event_loop.cc) and must never block: replies are queued
// on the connection and the loop sends them. Segment decoding and the
// merge run on the merge thread (above), the merge's tail on the caller
// thread after the loop exits.

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
    conn.state.worker_id = ack.worker_id;
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
    Grant(conn);
  } else if (done_count_ == lease_total_) {
    conn.Queue(EncodeEmptyFrame(FarmOp::kDone));
  } else {
    // Every row is leased out or uploaded but not done yet. The request
    // waits for a row to return to pending (ServeParked) or for the kDone
    // broadcast; the worker never has to poll.
    conn.state.parked = true;
  }
  return true;
}

void Coordinator::Grant(Conn& conn) {
  const std::uint32_t row = *pending_.begin();
  pending_.erase(pending_.begin());
  LeaseState& lease = leases_[row];
  lease.status = LeaseStatus::kLeased;
  lease.lease_id = next_lease_id_++;
  conn.state.held.insert(row);
  // A parked worker was silent while it waited; its heartbeat deadline
  // starts with the lease.
  conn.state.since_frame.Restart();
  Count(metrics_.leases_granted, &Stats::leases_granted);
  LeaseGrantMsg grant;
  grant.lease_id = lease.lease_id;
  grant.root_row = row;
  conn.Queue(EncodeLeaseGrant(grant));
}

void Coordinator::ServeParked() {
  loop_.ForEach([this](Conn& conn) {
    if (!conn.state.parked || pending_.empty()) return;
    conn.state.parked = false;
    Grant(conn);
    loop_.Flush(conn);
  });
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

  LeaseState& lease = it->second;
  ResultAckMsg ack;
  ack.lease_id = msg.lease_id;
  ack.fresh = lease.status == LeaseStatus::kPending ||
              lease.status == LeaseStatus::kLeased;
  if (!ack.fresh) {
    // A re-leased row finished twice (or a duplicate retransmit). First
    // upload won; this one is discarded before it can reach the merge.
    Count(metrics_.duplicate_results, &Stats::duplicate_results);
  } else {
    // The merge thread decodes it; the row is done once its verdict is
    // back (ApplyVerdicts).
    pending_.erase(msg.root_row);
    lease.status = LeaseStatus::kUploaded;
    Upload upload{lease.index, conn.state.worker_id, std::move(msg)};
    {
      MutexLock lock(mutex_);
      uploads_.push_back(std::move(upload));
    }
    merge_cv_.NotifyOne();
  }
  conn.Queue(EncodeResultAck(ack));
  return true;
}

void Coordinator::ApplyVerdicts() {
  std::vector<Verdict> verdicts;
  {
    MutexLock lock(mutex_);
    verdicts.swap(verdicts_);
  }
  if (verdicts.empty()) return;
  bool requeued = false;
  for (const Verdict& verdict : verdicts) {
    LeaseState& lease = leases_[verdict.row];
    if (!verdict.ok) {
      // A valid frame whose segments do not decode: a protocol error, as
      // if the loop had decoded them. The row goes back to pending, and
      // the uploader's connection closes.
      lease.status = LeaseStatus::kPending;
      pending_.insert(verdict.row);
      Count(metrics_.releases, &Stats::releases);
      requeued = true;
      loop_.ForEach([&](Conn& conn) {
        if (conn.state.worker_id != verdict.worker_id) return;
        conn.state.parked = false;
        loop_.Close(conn);
      });
      continue;
    }
    lease.status = LeaseStatus::kDone;
    ++done_count_;
    Count(metrics_.results, &Stats::results);
    if (miner_options_.progress != nullptr) {
      miner_options_.progress->root_done.fetch_add(1,
                                                   std::memory_order_relaxed);
    }
  }
  if (requeued) ServeParked();
  CheckCompletion();
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
  bool revoked = false;
  loop_.ForEach([&](Conn& conn) {
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
    revoked = true;
  });
  if (revoked) ServeParked();
}

void Coordinator::CheckCompletion() {
  if (done_count_ != lease_total_) return;
  // Tell every connected worker the farm is finished before the caller
  // tears the loop down; without the broadcast an idle worker only
  // sees its socket die and wastes its reconnect budget.
  loop_.ForEach([this](Conn& conn) {
    if (!conn.state.hello_done || conn.want_close) return;
    conn.state.parked = false;
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
