#ifndef FARMER_FARM_WORKER_H_
#define FARMER_FARM_WORKER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>

#include "core/farmer.h"
#include "core/miner_options.h"
#include "dataset/dataset.h"
#include "farm/protocol.h"
#include "obs/progress.h"
#include "util/status.h"
#include "util/sync.h"
#include "util/thread_pool.h"

namespace farmer {
namespace farm {

/// A farm worker: connects to the coordinator, mines leases until the
/// coordinator says the farm is done, and survives coordinator
/// restarts and transient network failures by reconnecting with
/// exponential backoff.
///
/// Threads per session: the main thread runs the lease state machine
/// (request -> mine -> upload with the next request -> ack); a reader
/// thread drains incoming frames so a kRevoke can cancel the current
/// mine mid-subtree; a heartbeat thread reports liveness and progress
/// (from the miner's live ProgressCounters) while a lease is being
/// mined. A mined result that could not be uploaded (connection died
/// first) is kept and re-uploaded on the next session — the
/// coordinator dedups, so retransmits are safe.
class Worker {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    int port = 0;
    std::string name;  // Free-form label sent in the hello.
    double heartbeat_interval_s = 1.0;
    double connect_timeout_s = 5.0;
    double backoff_initial_s = 0.2;
    double backoff_max_s = 5.0;
    /// Consecutive failed connect attempts before Run() gives up.
    int max_connect_attempts = 10;
    /// Wait between lease requests while the coordinator says kNoWork.
    /// This coordinator parks a request it cannot serve instead, but an
    /// older one still polls its workers this way.
    double no_work_poll_s = 0.1;
  };

  Worker(const BinaryDataset& dataset, const MinerOptions& options,
         const Options& worker_options);

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// Mines until the coordinator reports completion. Ok on a clean
  /// kDone; InvalidArgument when the coordinator rejected the hello
  /// (mismatched dataset/params — retrying cannot help) or granted a
  /// row that is not a lease of this worker's plan; IoError when
  /// the coordinator stayed unreachable past the backoff budget.
  Status Run();

  /// Asks Run() to stop after the current lease (used by tests).
  void RequestStop();

  std::uint64_t leases_completed() const {
    return leases_completed_.load(std::memory_order_relaxed);
  }
  std::uint64_t leases_revoked() const {
    return leases_revoked_.load(std::memory_order_relaxed);
  }

 private:
  struct InFrame {
    std::uint8_t opcode = 0;
    std::string payload;
  };

  /// One connected session. Sets *done when the coordinator sent
  /// kDone, *rejected when it refused the hello or granted a lease
  /// outside this worker's plan.
  Status RunSession(int fd, bool* done, bool* rejected);

  bool SendLocked(int fd, std::string_view bytes);

  MinerOptions miner_options_;
  Options options_;
  /// Live counters the heartbeat thread samples while mining. Must be
  /// declared before miner_ so the options pointer outlives it.
  obs::ProgressCounters counters_;
  internal::FarmerMiner miner_;
  serve::SnapshotFingerprint fingerprint_;
  serve::SnapshotParams params_;

  std::atomic<std::uint64_t> leases_completed_{0};
  std::atomic<std::uint64_t> leases_revoked_{0};
  std::atomic<bool> stop_requested_{false};

  /// Lease currently being mined (0 = none) and its cancel flag; the
  /// reader thread fires the flag when a kRevoke for this lease
  /// arrives.
  std::atomic<std::uint64_t> current_lease_{0};
  CancelFlag cancel_;

  /// Guards interleaved sends (heartbeat thread vs. state machine).
  Mutex send_mutex_;

  // Session-scoped inbox filled by the reader thread.
  Mutex inbox_mutex_;
  CondVar inbox_cv_;
  std::deque<InFrame> inbox_ FARMER_GUARDED_BY(inbox_mutex_);
  bool conn_dead_ FARMER_GUARDED_BY(inbox_mutex_) = false;

  // Heartbeat thread control.
  Mutex beat_mutex_;
  CondVar beat_cv_;
  bool session_over_ FARMER_GUARDED_BY(beat_mutex_) = false;

  /// A result mined but not yet acked, framed with the next lease
  /// request behind it; survives reconnects.
  bool have_pending_result_ = false;
  std::string pending_result_frames_;
};

}  // namespace farm
}  // namespace farmer

#endif  // FARMER_FARM_WORKER_H_
