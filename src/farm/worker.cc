#include "farm/worker.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "util/net.h"
#include "util/simd/simd.h"
#include "util/timer.h"
#include "util/wire.h"

namespace farmer {
namespace farm {

namespace {

constexpr std::size_t kReadChunk = 65536;

MinerOptions WithProgress(MinerOptions options, obs::ProgressCounters* p) {
  options.progress = p;
  return options;
}

void SleepSeconds(double seconds) {
  if (seconds <= 0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

void ResetCounters(obs::ProgressCounters& c) {
  const auto relaxed = std::memory_order_relaxed;
  c.nodes.store(0, relaxed);
  c.groups.store(0, relaxed);
  c.pruned_backscan.store(0, relaxed);
  c.pruned_support.store(0, relaxed);
  c.pruned_confidence.store(0, relaxed);
  c.pruned_chi.store(0, relaxed);
  c.pruned_extension.store(0, relaxed);
  c.rows_absorbed.store(0, relaxed);
  c.tasks_spawned.store(0, relaxed);
  c.tasks_completed.store(0, relaxed);
  c.minelb_done.store(0, relaxed);
  c.max_depth.store(0, relaxed);
}

}  // namespace

Worker::Worker(const BinaryDataset& dataset, const MinerOptions& options,
               const Options& worker_options)
    : miner_options_(WithProgress(options, &counters_)),
      options_(worker_options),
      miner_(dataset, miner_options_),
      fingerprint_(serve::SnapshotFingerprint::FromDataset(dataset)),
      params_(serve::SnapshotParams::FromMinerOptions(options)) {}

void Worker::RequestStop() {
  stop_requested_.store(true, std::memory_order_release);
}

bool Worker::SendLocked(int fd, std::string_view bytes) {
  MutexLock lock(send_mutex_);
  return net::SendAll(fd, bytes);
}

Status Worker::Run() {
  int attempts = 0;
  double backoff = options_.backoff_initial_s;
  while (!stop_requested_.load(std::memory_order_acquire)) {
    int fd = -1;
    const Status connected = net::ConnectToHost(
        options_.host, options_.port, options_.connect_timeout_s, &fd);
    if (!connected.ok()) {
      if (connected.IsInvalidArgument()) return connected;
      ++attempts;
      if (attempts >= options_.max_connect_attempts) {
        return Status::IoError("coordinator unreachable after " +
                               std::to_string(attempts) +
                               " attempts: " + connected.ToString());
      }
      // Exponential backoff with a cap: transient refusals (coordinator
      // restarting, listen backlog) deserve patience, not a hot loop.
      SleepSeconds(backoff);
      backoff = std::min(backoff * 2, options_.backoff_max_s);
      continue;
    }
    attempts = 0;
    backoff = options_.backoff_initial_s;

    bool done = false;
    bool rejected = false;
    const Status session = RunSession(fd, &done, &rejected);
    ::close(fd);
    if (rejected) return session;  // Mismatch: retrying cannot help.
    if (done) return Status::Ok();
    if (stop_requested_.load(std::memory_order_acquire)) {
      return Status::Ok();
    }
    // The connection died mid-session (session carries the detail); any
    // mined-but-unacked result is kept in pending_result_frame_ and
    // re-uploaded after the reconnect.
    SleepSeconds(backoff);
    backoff = std::min(backoff * 2, options_.backoff_max_s);
  }
  return Status::Ok();
}

Status Worker::RunSession(int fd, bool* done, bool* rejected) {
  net::SetTcpNoDelay(fd);
  {
    MutexLock lock(inbox_mutex_);
    inbox_.clear();
    conn_dead_ = false;
  }
  {
    MutexLock lock(beat_mutex_);
    session_over_ = false;
  }

  // Preamble + hello, before any helper thread exists (early-return on
  // failure needs no teardown).
  HelloMsg hello;
  hello.fingerprint = fingerprint_;
  hello.params = params_;
  hello.simd_level = simd::LevelName(simd::ActiveLevel());
  hello.worker_name = options_.name;
  std::string opening(kFarmPreamble, kFarmPreambleSize);
  opening += EncodeHello(hello);
  if (!SendLocked(fd, opening)) {
    return Status::IoError("hello send failed: " +
                           net::ErrnoString(errno));
  }

  // Reader: drains frames so a kRevoke can cancel the current mine
  // mid-subtree; everything else lands in the inbox for the state
  // machine below.
  std::thread reader([this, fd] {
    std::string buf;
    char chunk[kReadChunk];
    bool alive = true;
    while (alive) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      buf.append(chunk, static_cast<std::size_t>(n));
      while (alive) {
        std::size_t consumed = 0;
        std::uint8_t opcode = 0;
        std::string_view payload;
        std::string error;
        const wire::FrameExtract got =
            wire::ExtractFrame(buf, kMaxFarmFramePayload, &consumed,
                               &opcode, &payload, &error);
        if (got == wire::FrameExtract::kNeedMore) break;
        if (got == wire::FrameExtract::kError) {
          alive = false;
          break;
        }
        if (static_cast<FarmOp>(opcode) == FarmOp::kRevoke) {
          RevokeMsg revoke;
          if (DecodeRevoke(payload, &revoke).ok() && revoke.lease_id != 0 &&
              revoke.lease_id ==
                  current_lease_.load(std::memory_order_acquire)) {
            leases_revoked_.fetch_add(1, std::memory_order_relaxed);
            cancel_.Cancel();
          }
        } else {
          MutexLock lock(inbox_mutex_);
          inbox_.push_back(InFrame{opcode, std::string(payload)});
          inbox_cv_.NotifyOne();
        }
        buf.erase(0, consumed);
      }
    }
    {
      MutexLock lock(inbox_mutex_);
      conn_dead_ = true;
    }
    inbox_cv_.NotifyAll();
  });

  // Heartbeat: while a lease is active, report nodes + nodes/s + depth
  // from the miner's live progress counters.
  std::thread beater([this, fd] {
    std::uint64_t last_nodes = 0;
    Stopwatch since;
    MutexLock lock(beat_mutex_);
    while (!session_over_) {
      beat_cv_.WaitForSeconds(beat_mutex_, options_.heartbeat_interval_s);
      if (session_over_) break;
      const std::uint64_t lease =
          current_lease_.load(std::memory_order_acquire);
      if (lease == 0) {
        last_nodes = counters_.nodes.load(std::memory_order_relaxed);
        since.Restart();
        continue;
      }
      HeartbeatMsg beat;
      beat.lease_id = lease;
      beat.nodes = counters_.nodes.load(std::memory_order_relaxed);
      const double dt = since.ElapsedSeconds();
      const std::uint64_t delta =
          beat.nodes >= last_nodes ? beat.nodes - last_nodes : beat.nodes;
      beat.nodes_per_sec =
          dt > 0 ? static_cast<double>(delta) / dt : 0.0;
      beat.depth = static_cast<std::uint32_t>(
          counters_.max_depth.load(std::memory_order_relaxed));
      beat.groups = counters_.groups.load(std::memory_order_relaxed);
      last_nodes = beat.nodes;
      since.Restart();
      // Failure is not fatal here: the reader observes the dead socket
      // and wakes the state machine.
      SendLocked(fd, EncodeHeartbeat(beat));
    }
  });

  const auto wait_frame = [this](InFrame* out) {
    MutexLock lock(inbox_mutex_);
    while (inbox_.empty() && !conn_dead_) inbox_cv_.Wait(inbox_mutex_);
    if (inbox_.empty()) return false;
    *out = std::move(inbox_.front());
    inbox_.pop_front();
    return true;
  };

  const Status result = [&]() -> Status {
    InFrame frame;
    if (!wait_frame(&frame)) {
      return Status::IoError("connection closed before hello ack");
    }
    if (static_cast<FarmOp>(frame.opcode) != FarmOp::kHelloAck) {
      return Status::IoError("unexpected frame before hello ack");
    }
    HelloAckMsg ack;
    if (!DecodeHelloAck(frame.payload, &ack).ok()) {
      return Status::IoError("malformed hello ack");
    }
    if (!ack.accepted) {
      *rejected = true;
      return Status::InvalidArgument("coordinator rejected worker: " +
                                     ack.reason);
    }

    const std::string lease_request = EncodeEmptyFrame(FarmOp::kLeaseRequest);
    while (!stop_requested_.load(std::memory_order_acquire)) {
      // One send per round trip: a pending result carries the next lease
      // request behind it, and the coordinator answers both, ack first.
      // Send failures are not handled here: the reader sees the dead
      // socket and wait_frame reports it — and a broadcast kDone that
      // raced the failed send is still drained from the inbox first.
      const std::string& frames =
          have_pending_result_ ? pending_result_frames_ : lease_request;
      SendLocked(fd, frames);
      if (have_pending_result_) {
        if (!wait_frame(&frame)) {
          return Status::IoError("connection lost awaiting result ack");
        }
        if (static_cast<FarmOp>(frame.opcode) == FarmOp::kDone) {
          // Completion implies every row is merged, including this one
          // (another worker got there first); drop the retransmit.
          *done = true;
          return Status::Ok();
        }
        if (static_cast<FarmOp>(frame.opcode) != FarmOp::kResultAck) {
          return Status::IoError("unexpected frame awaiting result ack");
        }
        ResultAckMsg rack;
        if (!DecodeResultAck(frame.payload, &rack).ok()) {
          return Status::IoError("malformed result ack");
        }
        // Duplicate (fresh == false) still completes the lease from
        // this worker's point of view: the coordinator has the row.
        have_pending_result_ = false;
        pending_result_frames_.clear();
        leases_completed_.fetch_add(1, std::memory_order_relaxed);
      }

      if (!wait_frame(&frame)) {
        return Status::IoError("connection lost awaiting lease");
      }
      switch (static_cast<FarmOp>(frame.opcode)) {
        case FarmOp::kDone:
          *done = true;
          return Status::Ok();
        case FarmOp::kNoWork:
          // Sent only by a coordinator that does not park requests.
          SleepSeconds(options_.no_work_poll_s);
          continue;
        case FarmOp::kLeaseGrant:
          break;
        default:
          return Status::IoError("unexpected frame awaiting lease");
      }
      LeaseGrantMsg grant;
      if (!DecodeLeaseGrant(frame.payload, &grant).ok()) {
        return Status::IoError("malformed lease grant");
      }
      const std::vector<std::uint32_t>& rows = miner_.PlanFarm().lease_rows;
      if (!std::binary_search(rows.begin(), rows.end(), grant.root_row)) {
        // The coordinator planned another decomposition: reconnecting
        // cannot fix that.
        *rejected = true;
        return Status::InvalidArgument(
            "lease grant for row " + std::to_string(grant.root_row) +
            ", which is not a lease of this worker's plan");
      }

      cancel_.Reset();
      ResetCounters(counters_);
      current_lease_.store(grant.lease_id, std::memory_order_release);
      Stopwatch lease_watch;
      MinerStats stats;
      std::vector<MineSegment> segments =
          miner_.MineFarmLease(grant.root_row, &cancel_, &stats);
      current_lease_.store(0, std::memory_order_release);
      if (stats.timed_out) {
        // Revoked (or deadline-expired) mid-mine: the partial result
        // must never be uploaded — the coordinator re-leases the row.
        continue;
      }
      ResultMsg msg;
      msg.lease_id = grant.lease_id;
      msg.root_row = grant.root_row;
      msg.nodes_visited = stats.nodes_visited;
      msg.mine_seconds = lease_watch.ElapsedSeconds();
      msg.segments_wire = EncodeSegments(segments);
      const std::string result_frame = EncodeResult(std::move(msg));
      pending_result_frames_.clear();
      pending_result_frames_.reserve(result_frame.size() +
                                     lease_request.size());
      pending_result_frames_ += result_frame;
      pending_result_frames_ += lease_request;
      have_pending_result_ = true;
    }
    return Status::Ok();
  }();

  {
    MutexLock lock(beat_mutex_);
    session_over_ = true;
  }
  beat_cv_.NotifyAll();
  ::shutdown(fd, SHUT_RDWR);  // Unblocks the reader's recv.
  reader.join();
  beater.join();
  return result;
}

}  // namespace farm
}  // namespace farmer
