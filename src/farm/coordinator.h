#ifndef FARMER_FARM_COORDINATOR_H_
#define FARMER_FARM_COORDINATOR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/farmer.h"
#include "core/miner_options.h"
#include "dataset/dataset.h"
#include "farm/protocol.h"
#include "obs/metrics.h"
#include "serve/snapshot.h"
#include "util/event_loop.h"
#include "util/status.h"
#include "util/sync.h"
#include "util/timer.h"

namespace farmer {
namespace farm {

/// The mining farm's coordinator: owns the dataset, decomposes the
/// search into per-root-subtree leases (FarmerMiner::PlanFarm), hands
/// them to worker processes over FMP1, and merges the uploads back into
/// a result bit-identical to a single-process MineFarmer() run.
///
/// Lease lifecycle:
///
///   pending --grant--> leased --result--> uploaded --decoded--> done
///      ^                  |                   |
///      +-----revoke-------+                   |
///      +-----------malformed segments---------+
///
/// Leases are granted in ascending row order. A lease is revoked when
/// its holder's connection closes or goes silent past
/// `heartbeat_timeout_s`; the row returns to the pending set and the
/// next hungry worker re-mines it. A revoked worker that finishes
/// anyway may still upload; the first upload of a row wins and later
/// ones are acked `fresh=0` and discarded — duplicates never reach the
/// merge, which keeps it deterministic. An upload whose segments do not
/// decode closes its connection and returns its row to pending. A lease
/// request that finds no pending row is parked, and answered when a row
/// returns to pending or by the completion broadcast of kDone.
///
/// Threading: Start() runs one util/event_loop.h EventLoop (the same
/// loop the serve shards run on) that accepts on the farm port and owns
/// all connection and lease state (thread-confined), and one merge
/// thread. The loop only frames, acks and grants: it hands each fresh
/// upload to the merge thread, which decodes it, reports the verdict
/// back, and feeds the merge the contiguous prefix of decoded leases
/// (FarmerMiner::MergeFarmSegments) while later leases are still being
/// mined. The caller thread talks to both only through the mutex-guarded
/// state. Finalize() stops both, then merges the tail and the root's
/// segments on the caller thread.
class Coordinator {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    int port = 0;  // 0 = ephemeral; read the bound port with port().
    /// A worker silent for longer than this has its leases revoked. A
    /// connection that has not finished its hello (or its HTTP request
    /// head) this long after connecting is closed.
    double heartbeat_timeout_s = 10.0;
    /// Optional metrics sink: farm.* counters/gauges, plus the "GET "
    /// scrape surface on the listener.
    obs::MetricsRegistry* metrics = nullptr;
  };

  struct Stats {
    std::uint64_t leases_granted = 0;
    // Leases revoked, or whose upload did not decode, and re-queued.
    std::uint64_t releases = 0;
    std::uint64_t results = 0;   // Fresh uploads that decoded.
    std::uint64_t duplicate_results = 0;
    std::uint64_t workers_seen = 0;
    std::uint64_t workers_rejected = 0;
  };

  Coordinator(const BinaryDataset& dataset, const MinerOptions& options,
              const Options& coordinator_options);
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Plans the decomposition, opens the listener, starts the loop.
  Status Start();

  /// The bound listen port (valid after Start()).
  int port() const { return port_; }

  /// Blocks until every lease is merged. Returns false on timeout
  /// (non-positive = wait forever).
  bool WaitForCompletion(double timeout_seconds);

  /// True once every lease's result has been merged.
  bool complete() const;

  /// Merges the uploads the merge thread has not merged yet plus the
  /// root's own segments, and finishes the mine (top-k, MineLB, row-id
  /// remap). Call once, after WaitForCompletion() succeeded; stops the
  /// loop and the merge thread first so neither can race it.
  FarmerResult Finalize();

  /// Joins the merge thread, stops the event loop and closes every
  /// connection. Idempotent.
  void Stop();

  Stats stats() const;

  /// Total and remaining lease counts (for progress displays).
  std::size_t lease_total() const;
  std::size_t lease_remaining() const;

 private:
  enum class LeaseStatus : std::uint8_t { kPending, kLeased, kUploaded, kDone };

  /// The farm protocol's per-connection state; the EventLoop keeps the
  /// transport half (buffers, out-queue).
  struct Peer {
    enum class Mode : std::uint8_t {
      kPreamble,  // Waiting for "FMP1" / "GET ".
      kFarm,      // Frames.
      kHttp,      // Metrics scrape: flush the response, then close.
    };

    Mode mode = Mode::kPreamble;
    bool hello_done = false;
    std::uint32_t worker_id = 0;  // Assigned by an accepted hello.
    /// A lease request is waiting for a row (or for kDone).
    bool parked = false;
    /// Rows this connection currently holds a lease on.
    std::set<std::uint32_t> held;
    /// Time since the last frame (any frame counts as liveness), or
    /// since connecting before the hello.
    Stopwatch since_frame;
    double last_nodes_per_sec = 0.0;
  };
  using Loop = EventLoop<Peer>;
  using Conn = Loop::Conn;

  struct LeaseState {
    LeaseStatus status = LeaseStatus::kPending;
    std::uint64_t lease_id = 0;  // Current (latest) lease of the row.
    std::size_t index = 0;       // Position in the plan's lease_rows.
  };

  /// A fresh upload on its way from the loop to the merge thread.
  struct Upload {
    std::size_t index = 0;        // The lease's position in lease_rows.
    std::uint32_t worker_id = 0;  // The uploading connection.
    ResultMsg msg;
  };

  /// The merge thread's verdict on one upload, for the loop.
  struct Verdict {
    std::uint32_t row = 0;
    std::uint32_t worker_id = 0;
    bool ok = false;  // False: its segments did not decode.
  };

  // ---- Event-loop callbacks (all loop-confined state below) ----
  bool HandleData(Conn& conn);
  bool HandleFrame(Conn& conn, std::uint8_t opcode,
                   std::string_view payload);
  bool HandleHello(Conn& conn, std::string_view payload);
  bool HandleLeaseRequest(Conn& conn);
  bool HandleHeartbeat(Conn& conn, std::string_view payload);
  bool HandleResult(Conn& conn, std::string_view payload);
  /// Leases the lowest pending row to `conn`.
  void Grant(Conn& conn);
  /// Grants pending rows to parked requests.
  void ServeParked();
  /// Applies the merge thread's verdicts: rows done, or back to pending.
  void ApplyVerdicts();
  /// Bumps one stats() field and, when set, its farm.* counter.
  void Count(obs::Counter* metric, std::uint64_t Stats::*stat);
  /// Returns every lease `conn` holds to the pending set.
  void RevokeHeld(Conn& conn, bool notify);
  void TickTimeouts();
  void CheckCompletion();
  void PublishGauges();

  // ---- The merge thread ----
  void MergeLoop();
  /// Decodes one upload into lease_segments_; false when it is
  /// malformed.
  bool DecodeUpload(Upload& upload);

  const BinaryDataset& dataset_;
  MinerOptions miner_options_;
  Options options_;
  internal::FarmerMiner miner_;
  serve::SnapshotFingerprint fingerprint_;
  serve::SnapshotParams params_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> started_{false};

  /// Renders the registry for AnswerScrape; empty when no registry.
  std::function<std::string()> scrape_render_;
  // Loop-confined state (no locks: single owner thread).
  std::map<std::uint32_t, LeaseState> leases_;  // Keyed by root row.
  std::set<std::uint32_t> pending_;
  std::size_t done_count_ = 0;
  std::uint64_t next_lease_id_ = 1;
  std::uint32_t next_worker_id_ = 1;

  mutable Mutex mutex_;
  CondVar done_cv_;
  bool complete_ FARMER_GUARDED_BY(mutex_) = false;
  Stats stats_ FARMER_GUARDED_BY(mutex_);
  /// Aggregated worker-side stats (nodes, mine seconds) of the uploads
  /// that decoded.
  MinerStats worker_stats_ FARMER_GUARDED_BY(mutex_);
  /// Loop -> merge thread, and back.
  CondVar merge_cv_;
  std::vector<Upload> uploads_ FARMER_GUARDED_BY(mutex_);
  std::vector<Verdict> verdicts_ FARMER_GUARDED_BY(mutex_);
  bool merge_stop_ FARMER_GUARDED_BY(mutex_) = false;

  // Merge-thread state; Finalize() reads it after the join.
  /// Decoded segments of each lease (by lease_rows index) not merged yet.
  std::vector<std::vector<MineSegment>> lease_segments_;
  std::vector<std::uint8_t> lease_decoded_;
  /// Leases [0, merged_leases_) are merged.
  std::size_t merged_leases_ = 0;

  struct Metrics {
    obs::Gauge* active_workers = nullptr;
    obs::Gauge* leases_pending = nullptr;
    obs::Gauge* leases_outstanding = nullptr;
    obs::Gauge* nodes_per_sec = nullptr;
    obs::Counter* leases_granted = nullptr;
    obs::Counter* releases = nullptr;
    obs::Counter* results = nullptr;
    obs::Counter* duplicate_results = nullptr;
    obs::Counter* workers_rejected = nullptr;
  } metrics_;

  std::size_t lease_total_ = 0;

  /// Runs MergeLoop(); started after the loop, joined before it stops.
  std::thread merge_thread_;
  /// Last: its thread runs the callbacks above, so it is built after and
  /// destroyed before the state they touch.
  Loop loop_;
};

}  // namespace farm
}  // namespace farmer

#endif  // FARMER_FARM_COORDINATOR_H_
