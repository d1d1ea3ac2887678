#ifndef FARMER_CORE_MINER_OPTIONS_H_
#define FARMER_CORE_MINER_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "dataset/types.h"
#include "util/timer.h"

namespace farmer {

namespace obs {
class Histogram;
class TraceSession;
class MetricsRegistry;
struct ProgressCounters;
}  // namespace obs

/// Configuration shared by the FARMER miner and (where applicable) the
/// baseline miners.
struct MinerOptions {
  /// The consequent class `C`; rules take the form `A -> consequent`.
  ClassLabel consequent = 1;

  /// Minimum rule support: |R(A ∪ C)| >= min_support. Must be >= 1.
  std::size_t min_support = 1;

  /// Minimum confidence in [0, 1].
  double min_confidence = 0.0;

  /// Minimum chi-square value (0 disables the constraint).
  double min_chi_square = 0.0;

  /// Optional extension constraints (0 disables; footnote 3 of the paper).
  double min_lift = 0.0;
  double min_conviction = 0.0;
  double min_entropy_gain = 0.0;
  double min_gini_gain = 0.0;
  double min_correlation = 0.0;  // Phi coefficient.

  /// When > 0, keep only the top-k IRGs by (confidence, support) and use the
  /// running k-th confidence as an additional dynamic pruning threshold.
  std::size_t top_k = 0;

  /// Report every constraint-satisfying rule group instead of only the
  /// interesting ones (skips the confidence-dominance comparison). Used,
  /// e.g., to materialize CBA's candidate rules.
  bool report_all_rule_groups = false;

  /// Compute lower bounds of every reported IRG (MineLB). The paper's
  /// experiments include this in FARMER's runtime.
  bool mine_lower_bounds = true;

  /// Cap on MineLB candidate sets per group; prevents pathological
  /// combinatorial blow-up on extremely long antecedents. Groups that hit
  /// the cap are flagged `lower_bounds_truncated`.
  std::size_t max_lower_bound_candidates = 100000;

  /// Store each IRG's upper-bound antecedent. Disable to save memory in
  /// sweeps that only count IRGs; the row set is always stored.
  bool store_antecedents = true;

  /// Pruning toggles (for the ablation study; all on in normal use).
  bool enable_pruning1 = true;  // Remove rows found in every tuple.
  bool enable_pruning2 = true;  // Back-scan duplicate-subtree detection.
  bool enable_pruning3 = true;  // Measure-threshold bounds.

  /// Worker threads for the enumeration search. 1 (the default) runs the
  /// plain sequential miner; larger values mine subtrees of the
  /// row-enumeration tree on a work-stealing thread pool with adaptive
  /// subtree splitting: whenever the pool runs low on queued work, a
  /// worker converts the remaining sibling branches of its current node
  /// into new tasks instead of recursing into them. Each task carries a
  /// lexicographic id (the row path at its split points) and the
  /// per-task results are merged in id order, so every thread count
  /// produces bit-identical rule groups.
  std::size_t num_threads = 1;

  /// Maximum enumeration depth at which a parallel worker may split its
  /// remaining sibling branches into new tasks. Nodes deeper than this
  /// always recurse sequentially (small subtrees stay allocation-free).
  std::size_t max_split_depth = 12;

  /// Self-verification mode: cross-checks every word-parallel bitset
  /// kernel call in the enumeration hot path (AndInto/AndNotInto/
  /// CountPrefix) and every node's delivered state (its alive list,
  /// common and occupied sets, tight-bound maximum and back-scan verdict)
  /// against scalar reference implementations, re-validates the
  /// rule-group store after every parallel segment merge (dominance
  /// soundness, distinct closed row sets, index consistency), verifies
  /// each reported antecedent is closed (I(R(A)) = A), checks every MineLB
  /// lower bound is a minimal generator of its group, and asserts the
  /// thread pool drained cleanly.
  /// Failures fire FARMER_CHECK (fatal). Orders of magnitude slower than
  /// a plain run — for tests and debugging only, never production.
  bool verify_invariants = false;

  /// SIMD kernel tier for the word-parallel bitset kernels. "" or
  /// "auto" keeps the process-wide selection (the FARMER_SIMD
  /// environment override when set, else the widest level the binary
  /// and host CPU support); "scalar" / "sse42" / "avx2" / "avx512"
  /// force that tier for testing and benchmarking. The selection is
  /// process-global (simd::Configure), so it outlives the run; a level
  /// this binary/host cannot execute is a fatal error, never a silent
  /// fallback. Every tier yields bit-identical rule groups.
  std::string simd_level;

  /// Cooperative time limit; the miner reports `timed_out` when it fires.
  /// Sampled between enumeration nodes and inside MineLB update steps,
  /// so even a run dominated by one long lower-bound computation stops
  /// close to the limit.
  Deadline deadline;

  /// Observability hooks (src/obs/), all optional and all owned by the
  /// caller. With every pointer null — the default — the miner touches
  /// no atomics beyond the scheduler's own counters: the instrumented
  /// paths are guarded by one predictable branch each.
  ///
  /// Tracing: per-worker spans and events (task run/steal/merge, MineLB,
  /// per-phase totals) recorded into the session's ring buffers. Build
  /// the session with at least `num_threads + 1` lanes.
  obs::TraceSession* trace = nullptr;
  /// Metrics: end-of-run counters, timings, and distribution histograms
  /// published under "farmer.*" names.
  obs::MetricsRegistry* metrics = nullptr;
  /// Progress: live counters flushed in small batches during the search,
  /// for a ProgressReporter (or any other sampler) to read.
  obs::ProgressCounters* progress = nullptr;
};

/// Search statistics reported by the miners.
struct MinerStats {
  std::size_t nodes_visited = 0;
  std::size_t pruned_by_backscan = 0;   // Pruning 2.
  std::size_t pruned_by_support = 0;    // Pruning 3, support bounds.
  std::size_t pruned_by_confidence = 0; // Pruning 3, confidence bounds.
  std::size_t pruned_by_chi = 0;        // Pruning 3, chi-square bound.
  std::size_t pruned_by_extension = 0;  // Extension-measure bounds.
  std::size_t rows_absorbed = 0;        // Pruning 1 removals.
  // Parallel-scheduler counters (0 in sequential runs). Unlike the tree
  // statistics above they depend on runtime timing, not on the input.
  std::size_t tasks_spawned = 0;        // Subtree tasks created.
  // Steals count the whole pool of a mine: search, merge, MineLB, remap.
  std::size_t task_steals = 0;          // Successful deque steals.
  std::size_t tasks_stolen = 0;         // Tasks transferred by steals.
  double mine_seconds = 0.0;            // Upper-bound search time.
  double lower_bound_seconds = 0.0;     // MineLB time.
  bool timed_out = false;
  /// Name of the SIMD kernel tier the run executed with ("scalar",
  /// "sse42", "avx2", "avx512"), so recorded perf numbers stay
  /// attributable to the ISA that produced them. Set by the miner at
  /// run start; empty in per-task partial stats.
  std::string simd_level;

  /// Adds every additive counter of `other` into this (the parallel
  /// miner's per-task aggregation); `timed_out` ORs, the phase timings
  /// are left alone (they are whole-run, not per-task, quantities).
  void MergeFrom(const MinerStats& other);

  /// The full stats block as one JSON object, e.g.
  /// {"nodes_visited": 12, ..., "timed_out": false}. Shared by the CLI's
  /// --stats flag and the benches, which embed it per measurement.
  std::string ToJson() const;
};

}  // namespace farmer

#endif  // FARMER_CORE_MINER_OPTIONS_H_
