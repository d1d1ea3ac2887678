#ifndef FARMER_CORE_FARMER_H_
#define FARMER_CORE_FARMER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_set>
#include <vector>

#include "core/miner_options.h"
#include "core/rule.h"
#include "dataset/dataset.h"
#include "dataset/types.h"
#include "util/bitset.h"
#include "util/sync.h"
#include "util/thread_pool.h"

namespace farmer {

/// Lexicographic id of a merge event in the parallel (and farm)
/// search: the row path of the node it belongs to. A task's id is the
/// path of its root node; a node's own step-7 record is ordered after
/// its whole subtree by appending kCloserRank (larger than any row
/// index). Paths ascend along every branch, so id order == sequential
/// (DFS post-order insertion) order.
using TaskId = std::vector<std::uint32_t>;
inline constexpr std::uint32_t kCloserRank = 0xFFFFFFFFu;

/// A contiguous run of the sequential insertion stream, tagged with the
/// id it merges at. Tasks emit one segment per uninterrupted inline
/// stretch plus one single-group segment per deferred step-7 record.
/// This is both the unit of the in-process deterministic merge and the
/// unit a farm worker uploads to its coordinator.
struct MineSegment {
  TaskId id;
  std::vector<RuleGroup> groups;
};

/// Result of a FARMER run.
struct FarmerResult {
  /// The interesting rule groups satisfying all constraints, in discovery
  /// order (top-k mode: the k best by confidence, then support).
  std::vector<RuleGroup> groups;
  MinerStats stats;
  /// Dataset context: total rows and rows labeled with the consequent.
  std::size_t num_rows = 0;
  std::size_t num_consequent_rows = 0;
};

/// The FARMER algorithm (paper §3): finds all interesting rule groups with
/// the configured consequent by depth-first *row* enumeration over the
/// transposed table, with pruning strategies 1–3, and optionally computes
/// each group's lower bounds with MineLB.
///
/// Usage:
///   MinerOptions opts;
///   opts.consequent = 1;
///   opts.min_support = 3;
///   opts.min_confidence = 0.9;
///   FarmerResult result = MineFarmer(dataset, opts);
///
/// The input dataset may list rows in any order; the miner permutes them
/// into the consequent-first order internally and reports row sets in the
/// caller's original row ids.
///
/// With `options.num_threads > 1` the enumeration tree runs on a
/// work-stealing thread pool with adaptive subtree splitting: whenever
/// the pool runs low on queued work, a mining worker re-enqueues the
/// remaining sibling branches of its current node as new tasks instead
/// of recursing into them. Every task carries a lexicographic id (its
/// row path) and per-task results are merged in id order, so the groups
/// are bit-identical to a sequential run for every thread count. The
/// merge, MineLB and the row-id remap run on the same pool.
FarmerResult MineFarmer(const BinaryDataset& dataset,
                        const MinerOptions& options);

namespace internal {

/// Implementation class exposed for white-box tests.
///
/// The conditional transposed table of a node is represented word-parallel:
/// every item keeps one immutable Bitset over all rows (built once from the
/// transposed table), and a node is (alive item list, candidate-row mask,
/// identified-support mask). No node scans its own tuples: a node that
/// survives its prunings makes one pass over its alive tuples and
/// *delivers* each tuple t to every surviving candidate r ∈ t (LCM's
/// occurrence deliver, applied to rows). Each child r thereby receives its
/// alive list, the intersection and union of its tuples and its tight
/// support bound, so its back scan, absorption and bounds cost a few
/// words each.
class FarmerMiner {
 public:
  FarmerMiner(const BinaryDataset& dataset, const MinerOptions& options);
  ~FarmerMiner();

  FarmerMiner(const FarmerMiner&) = delete;
  FarmerMiner& operator=(const FarmerMiner&) = delete;

  FarmerResult Mine();

  // ---- Farm decomposition (distributed mining) -----------------------
  //
  // The farm runs the same subtree tasks as the in-process pool. The
  // plan is the root task with every child of the root split off: one
  // lease per root candidate row surviving the root visit, plus the
  // root's own deferred step-7 closer. A worker process mines one lease
  // with MineFarmLease(); the coordinator replays every uploaded segment
  // in id order with MergeFarmSegments() and FinalizeFarm(). Because the
  // tasks and the merge are the in-process parallel ones verbatim, the
  // farm output is bit-identical to MineFarmer() on one machine.

  // The root split: which subtrees exist and what the root itself
  // contributed. Computed once, lazily, by PlanFarm().
  struct FarmPlan {
    // True when the root yields nothing: no leases and no root segments
    // — the result is empty (FinalizeFarm({} ...) handles it).
    bool root_pruned = false;
    // One lease per surviving root candidate row, ascending. Lease i
    // mines the subtree rooted at row lease_rows[i].
    std::vector<std::uint32_t> lease_rows;
    // The root task's segments: its deferred step-7 closer (when the
    // root pattern qualifies). Must be merged along with the workers'
    // uploads.
    std::vector<MineSegment> root_segments;
    // Stats of the root visit (nodes_visited etc.).
    MinerStats root_stats;
  };

  // Runs the root task once and returns the lease decomposition. The
  // root visit ignores the deadline, so a plan made after it fired still
  // lists every lease. Idempotent; the plan is cached across calls.
  const FarmPlan& PlanFarm();

  // Mines the subtree of one lease (a row from FarmPlan::lease_rows;
  // fatal for any other row) and returns its segments. Reentrant with
  // respect to distinct miner instances, NOT thread-safe on one instance
  // (workers are single-threaded processes). `cancel` may be null; when
  // it fires the partial result must be discarded (stats->timed_out is
  // set). `stats` may be null.
  std::vector<MineSegment> MineFarmLease(std::uint32_t row,
                                         CancelFlag* cancel,
                                         MinerStats* stats);

  // Feeds `batch` (in any order) to the farm's deterministic id-ordered
  // merge now, so the merge runs while later leases are still mined.
  // Every id in `batch` must order after every id merged before: the
  // segments of a contiguous prefix of FarmPlan::lease_rows qualify,
  // since a lease's segment ids all start with its row. Calls (and
  // FinalizeFarm) must not overlap, but may come from different threads.
  void MergeFarmSegments(std::vector<MineSegment> batch);

  // Merges `segments` (in any order; the rest of the workers' uploads
  // plus FarmPlan's root_segments, all ordering after what
  // MergeFarmSegments() merged) and finishes exactly like Mine(): top-k
  // cut, MineLB, row-id remap, metrics export. `stats` seeds the
  // result's counters (the caller accumulates worker stats); the root
  // visit's stats should be included by the caller.
  FarmerResult FinalizeFarm(std::vector<MineSegment> segments,
                            MinerStats stats);

 private:
  // Scratch owned by one depth of the enumeration recursion. All bitsets
  // are sized to the row count once and the delivery buffers grow to their
  // high-water mark, so steady-state recursion allocates nothing. The node
  // inputs are written by whoever enters the node (EnterRoot, EnterChild);
  // the visit overwrites only the derived fields and the delivery.
  struct DepthScratch {
    // ---- Node inputs.
    // Tuples of the conditional table, in the parent's order: a view of
    // the parent's delivery (of root_alive_ at the root).
    std::span<const ItemId> alive;
    Bitset cand;      // Enumeration candidate rows of the node.
    Bitset support;   // Rows identified as R(I(X)) on entry (X + absorbed).
    Bitset common;    // Rows occurring in every alive tuple (full tuples).
    Bitset occupied;  // Candidates occurring in >= 1 alive tuple.
    // max over alive tuples t of |t ∩ cand ∩ [0, m)|: the tight support
    // bound's per-tuple maximum.
    std::size_t max_ep = 0;
    // ---- Derived by the visit.
    Bitset new_cands; // Candidates surviving the scan (not absorbed).
    Bitset absorbed;  // Y = common ∩ cand, the absorption set.
    // ---- The node's delivery to its children, indexed by row; filled by
    // Deliver() for the rows it delivers to, sized to n rows on first use.
    // Row r's alive tuples are delivered[list_begin[r], list_end[r]).
    std::vector<ItemId> delivered;
    std::vector<std::uint32_t> list_begin;
    std::vector<std::uint32_t> list_end;
    // Row r's words [r * W, (r + 1) * W): the AND and the OR of its
    // tuples (W = words per row set).
    std::vector<std::uint64_t> child_common;
    std::vector<std::uint64_t> child_union;
    // Row r's max_ep as a child: max over its tuples t of
    // |t ∩ cands ∩ (r, m)|.
    std::vector<std::uint32_t> child_max_ep;
  };

  // Groups discovered so far plus the superset index the IRG comparison
  // queries: a vertical row→group bitmap. `row_groups` is block-major:
  // block b covers groups 64b..64b+63 and holds one word per dataset row,
  // whose bit j is set iff group 64b+j contains that row. ANDing a query's
  // row words within a block leaves exactly the block's supersets of the
  // query; `counts` and `confs` (parallel to `groups`) then decide
  // properness and confidence without touching a RuleGroup. The merge
  // uses the same layout to index its candidates.
  struct GroupStore {
    std::vector<RuleGroup> groups;
    std::vector<std::uint32_t> counts;  // |groups[i].rows|
    std::vector<double> confs;          // groups[i].confidence
    // At least ceil(|groups| / 64) blocks of n words each; slots past the
    // last group are clear. Grown on demand, or sized once up front.
    std::vector<std::uint64_t> row_groups;
    // IsDominated scratch: the query's row ids.
    std::vector<std::uint32_t> query_rows;
    // Sorted confidences of the current top-k groups (top-k mode only).
    std::vector<double> topk_confs;
    // Row sets already inserted (exact-mode deduplication): a hash set on
    // the bitset digest, with full equality verified on collision.
    std::unordered_set<Bitset, BitsetHash> seen_exact;

    // Empties the store for the next task, keeping every capacity.
    void Clear();
  };

  // Read-only view of an index in GroupStore layout (a store's, or one
  // slab of the merge's): the data of row_groups, counts and confs. Taken
  // from vectors that no longer reallocate, it stays valid while they
  // keep appending, so worker threads can query it without touching the
  // vectors themselves.
  struct IndexView {
    const std::uint64_t* row_groups;
    const std::uint32_t* counts;
    const double* confs;
  };

  using TaskId = farmer::TaskId;
  static constexpr std::uint32_t kCloserRank = farmer::kCloserRank;

  // Immutable inputs shared by all sibling tasks spawned at one split
  // node: one snapshot allocation per split instead of one full bitset
  // copy per spawned task. Each task derives its own masks from it
  // inside the worker (into preallocated arena storage).
  struct SplitSnapshot {
    std::vector<ItemId> alive;  // Alive tuples of the split node.
    Bitset cands;               // The split node's surviving candidates.
    Bitset support;             // Identified support of the split node.
  };

  // One subtree task: descend from the snapshot's node into `row`.
  // parent == nullptr marks the root task (mine from the tree root; all
  // other fields but `id` are ignored).
  struct SubtreeTask {
    std::shared_ptr<const SplitSnapshot> parent;
    std::uint32_t row = 0;
    std::size_t depth = 0;  // Tree depth of the task's root node.
    std::size_t supp = 0;   // Identified counts after descending into row.
    std::size_t supn = 0;
    TaskId id;
    // Worker whose deque the task was pushed to (kExternalWorker when
    // submitted from outside the pool). A task running on a different
    // worker was stolen — the trace annotates its span with that.
    std::uint32_t home_worker = kExternalWorker;
  };
  static constexpr std::uint32_t kExternalWorker = 0xFFFFFFFFu;

  using Segment = MineSegment;

  // Where a running task's split children go: the one choice a caller
  // of ExecuteSubtree makes.
  enum class Split {
    kNone,         // Nowhere: mine the whole subtree inline.
    kWhenHungry,   // To ctx.shared's pool, whenever it runs low on work.
    kCollectRoot,  // Every child of the task's root, into ctx.collected.
  };

  struct SearchContext;

  // State shared by all workers of one parallel run.
  struct ParallelShared {
    ThreadPool* pool = nullptr;
    std::vector<SearchContext>* contexts = nullptr;
    // Split when fewer tasks than this are queued (the pool is hungry).
    std::size_t hungry_below = 1;
    Mutex mutex;
    // All tasks' output, unordered (the merge sorts by id later).
    std::vector<Segment> segments FARMER_GUARDED_BY(mutex);
    // Aggregated task statistics.
    MinerStats stats FARMER_GUARDED_BY(mutex);
  };

  // Per-thread search state: recursion arena plus a private group store,
  // reused across the tasks the thread executes. A pool worker publishes
  // each task's segments into the shared state.
  struct SearchContext {
    std::vector<DepthScratch> arena;
    GroupStore store;
    MinerStats stats;
    Deadline deadline;           // Private copy: Expired() mutates state.
    CancelFlag* cancel = nullptr;  // Shared cross-worker stop signal.
    ParallelShared* shared = nullptr;  // Set for Split::kWhenHungry.
    // The running task's split policy, and whether its top-k confidence
    // floor may rise with its store (see ExecuteSubtree).
    Split split = Split::kNone;
    bool dynamic_floor = false;
    TaskId path;  // Row path of the current node (unless kNone).
    // Trace lane of the thread running this context: 0 for the control
    // thread, worker_id + 1 for a pool worker.
    std::size_t lane = 0;
    // Progress baseline: the counter values already flushed to
    // MinerOptions::progress, so each flush publishes only the delta.
    MinerStats published;
    std::size_t published_groups = 0;
    // Segment boundaries of the running task: (segment id, index into
    // store.groups where the segment starts).
    std::vector<std::pair<TaskId, std::size_t>> seg_bounds;
    // Deferred step-7 records of nodes that spawned their children.
    std::vector<Segment> closers;
    // The tasks split off under Split::kCollectRoot.
    std::vector<SubtreeTask> collected;
    // Deliver's scratch: the receiving rows of each delivered tuple, in
    // tuple order, and each tuple's end in that list.
    std::vector<std::uint32_t> occurrence_rows;
    std::vector<std::uint32_t> occurrence_ends;
  };

  // Recursive MineIRGs (paper Figure 5). The node's conditional table and
  // row masks live in ctx.arena[depth] (written by the caller); supp/supn
  // are the identified counts of R(I(X) ∪ C) / R(I(X) ∪ ¬C).
  void MineIRGs(SearchContext& ctx, std::size_t depth, std::size_t supp,
                std::size_t supn);

  // Steps 1-4 of a node visit: back scan, loose bounds, absorption, tight
  // bounds, all on the delivered state. Returns false when the node was
  // pruned; otherwise arena[depth].new_cands holds the surviving
  // candidates and *supp/*supn the post-absorption counts.
  bool VisitNode(SearchContext& ctx, std::size_t depth, std::size_t* supp,
                 std::size_t* supn);

  // Occurrence delivery: one pass over `alive` hands each tuple t to every
  // row r ∈ t ∩ cands (only to `only_row` when it is < n), filling out's
  // delivery fields for those rows. `cands` is the delivering node's
  // surviving candidate set.
  void Deliver(SearchContext& ctx, std::span<const ItemId> alive,
               const Bitset& cands, std::size_t only_row,
               DepthScratch* out) const;

  // Writes the inputs of child `row` into *child from the delivery in
  // `from`, made over the node (alive, cands, support). The child's
  // candidates are the cands after `row`.
  void EnterChild(const DepthScratch& from, std::span<const ItemId> alive,
                  const Bitset& cands, const Bitset& support,
                  std::size_t row, DepthScratch* child) const;

  // Writes the tree root's inputs into *root: every non-empty tuple, all
  // rows as candidates, nothing identified (the root task's entry).
  void EnterRoot(DepthScratch* root) const;

  // Step 7: applies the constraint checks and the IRG comparison against
  // ctx's store, and stores the group when it qualifies. In exact mode
  // (ablation with Pruning 1 or 2 disabled) recomputes the true row
  // support from arena[depth].common first.
  void MaybeInsertGroup(SearchContext& ctx, std::size_t depth,
                        std::size_t supp, std::size_t supn);

  // The dominance half of the IRG comparison (Definition 2.2): true when
  // one of the first `limit` indexed groups has a row set properly
  // containing the one whose row ids are `query` with confidence >=
  // `conf`. Reads the index only, so several threads may query one index
  // at once.
  bool IsDominated(const IndexView& index, std::size_t limit,
                   std::span<const std::uint32_t> query, double conf) const;

  // Appends `g` to the store and indexes it. Assumes dominance and
  // thresholds were already checked.
  void InsertGroup(GroupStore& store, RuleGroup g) const;

  // Sets slot `idx`'s bit on `rows` in a row->group bitmap (GroupStore
  // layout) that already holds the slot's block.
  void IndexRows(std::uint64_t* row_groups, std::size_t idx,
                 const Bitset& rows) const;

  // The deterministic merge shared by RunSearch, FinalizeFarm and the
  // farm coordinator, fed in batches of segments in id order. Its result
  // equals replaying every segment's groups in id order through the
  // sequential dedup -> dominance -> insert path, but it needs no
  // replay: a candidate survives iff no earlier candidate dominates it
  // (see the .cc comment). The appending thread dedups and indexes the
  // candidates segment by segment, and the pool (inline when null)
  // checks each completed chunk of them against the lower indices
  // meanwhile. Once options_.deadline fires, the candidates not checked
  // yet are dropped and Finish() sets stats->timed_out.
  class Merger;

  // True when all measure thresholds hold for a rule with the given exact
  // counts (x = supp + supn, y = supp).
  bool PassesThresholds(std::size_t supp, std::size_t supn) const;

  // verify_invariants: fatal-checks an index (GroupStore layout) of
  // `size` groups, group_at(i) being the i-th — the row→group bitmap
  // holds each group's bit on exactly its rows, every slot past the last
  // group is clear, and counts/confs mirror the groups. Runs after the
  // sequential search and, on the merge's candidate index, after every
  // merged segment. O(groups · rows).
  template <typename GroupAt>
  void ValidateIndex(std::span<const std::uint64_t> row_groups,
                     std::span<const std::uint32_t> counts,
                     std::span<const double> confs, std::size_t size,
                     const GroupAt& group_at) const;

  // verify_invariants: fatal-checks the final groups — every group's
  // counts/confidence agree with its row set, all row sets are distinct
  // closed patterns, and (unless report_all_rule_groups) no group is
  // dominated by another (Definition 2.2 soundness, checked pairwise
  // without the bitmap). Runs after the sequential search and after the
  // merge. O(groups²) bitset work.
  void ValidateGroups(const std::vector<RuleGroup>& groups) const;

  // verify_invariants: fatal-checks that each group's stored antecedent
  // is the closed upper bound of its row set, I(rows) over the permuted
  // dataset. Groups must still be in permuted row ids.
  void ValidateClosedAntecedents(const std::vector<RuleGroup>& groups) const;

  // The confidence floor: min_confidence, raised in top-k mode to the
  // current k-th best confidence of the store when ctx.dynamic_floor is
  // set (see ExecuteSubtree for when it is).
  double EffectiveMinConfidence(const SearchContext& ctx) const;

  // Builds a ready-to-recurse context (arena sized to the row count).
  SearchContext MakeContext(CancelFlag* cancel) const;

  // Builds the RuleGroup for `rows` with the given exact counts (shared
  // by the inline step 7 and the deferred closer path).
  RuleGroup MakeGroup(const DepthScratch& s, const Bitset& rows,
                      std::size_t supp, std::size_t supn) const;

  // True when the node at `depth` should convert its remaining sibling
  // branches into tasks, under ctx.split (not kNone, where no node
  // splits).
  bool ShouldSplit(const SearchContext& ctx, std::size_t depth) const;

  // Spawns one task per remaining candidate (from `first_row` on) of the
  // node at `depth`, sharing one immutable snapshot between them, and
  // sends each where ctx.split says.
  void SpawnRemaining(SearchContext& ctx, std::size_t depth,
                      std::size_t first_row, std::size_t supp,
                      std::size_t supn);

  // Step 7 of a node whose children were spawned: thresholds are checked
  // now (state-independent); the group is shipped as a closer segment at
  // id path+[kCloserRank] so dedup/dominance rerun after the children
  // merge. Opens a fresh inline segment at path+[kCloserRank,kCloserRank].
  void DeferStep7(SearchContext& ctx, std::size_t depth, std::size_t supp,
                  std::size_t supn);

  // Submits `task` to the pool: the worker executes it and hands its
  // segments and stats to `shared`. `lane` is the submitting thread's
  // trace lane (for the enqueue event).
  void SubmitTask(ParallelShared& shared, SubtreeTask task,
                  std::size_t lane);

  // Flushes the delta between ctx.stats and the last flush into the
  // live progress counters (MinerOptions::progress must be non-null).
  void PublishProgress(SearchContext& ctx) const;

  // Publishes the end-of-run counters, timings, and per-group
  // distributions into MinerOptions::metrics (must be non-null).
  void ExportMetrics(const FarmerResult& result) const;

  // Enters the root of a split task at `depth`: delivers the snapshot's
  // tuples to `row` alone, into arena[depth - 1], and enters
  // arena[depth] from there.
  void EnterSplitChild(SearchContext& ctx, const SplitSnapshot& parent,
                       std::size_t row, std::size_t depth) const;

  // Mines one subtree task in `ctx` and returns its segments: resets the
  // context (capacities kept), enters the task's root, runs MineIRGs,
  // slices the store into segments, publishes progress and records the
  // task's span and wall time. The sequential search, pool tasks, the
  // farm plan and farm leases all run here and differ only in `split`.
  // ctx.stats holds the task's counters afterwards.
  std::vector<Segment> ExecuteSubtree(SearchContext& ctx,
                                      const SubtreeTask& task, Split split);

  // Runs the search from the root: one task without a pool; otherwise a
  // root task on `pool` with adaptive subtree splitting, followed by the
  // deterministic id-ordered merge on the same pool. Stats are
  // accumulated into *stats.
  std::vector<RuleGroup> RunSearch(MinerStats* stats, ThreadPool* pool);

  // Applies options_.simd_level (fatal on an unknown level). Mine() and
  // the farm entry points all route through this so a worker process
  // honors the override too.
  void ApplySimdOverride() const;

  // The shared tail of Mine() and FinalizeFarm(): takes the merged
  // groups (plus stats_ already populated), and produces the final
  // result — validation, top-k cut, MineLB, row-id remap back to the
  // caller's ids, metrics export. MineLB and the remap run on `pool`
  // when it is set.
  FarmerResult FinalizeResult(std::vector<RuleGroup> groups,
                              ThreadPool* pool);

  // MineLB for every group (still in permuted row ids), in chunks on
  // `pool` or inline. Each worker owns its scratch and its Deadline
  // copy; once the deadline fires, every group not finished is flagged
  // lower_bounds_truncated and stats_.timed_out is set.
  void MineGroupLowerBounds(std::vector<RuleGroup>& groups,
                            ThreadPool* pool);

  // Rewrites every group's row set from permuted to the caller's row
  // ids, in place, in chunks on `pool` or inline.
  void RemapRows(std::vector<RuleGroup>& groups, ThreadPool* pool) const;

  // The farm decomposition: the plan, and the task of each lease
  // (parallel to plan.lease_rows). Built by the first PlanFarm().
  struct FarmRoot {
    FarmPlan plan;
    std::vector<SubtreeTask> leases;
  };

  std::unique_ptr<FarmRoot> farm_root_;
  // The farm's merge in progress: its pool and its Merger, created by
  // the first MergeFarmSegments() and consumed by FinalizeFarm().
  struct FarmMerge;
  std::unique_ptr<FarmMerge> farm_merge_;
  // Runs the plan and every MineFarmLease call (arena allocation is the
  // dominant per-lease cost for small subtrees).
  std::unique_ptr<SearchContext> farm_ctx_;
  // Per-task wall-time distribution (null unless metrics are wired).
  obs::Histogram* task_seconds_ = nullptr;

  MinerOptions options_;  // Copied: the miner may outlive the caller's copy.
  RowOrder order_;
  BinaryDataset permuted_;
  std::size_t n_ = 0;  // rows
  std::size_t m_ = 0;  // rows labeled with the consequent (first m_ ids)
  bool exact_mode_ = false;

  // One immutable bitset per item: the rows containing it (the transposed
  // table, word-parallel form).
  std::vector<Bitset> tuple_bits_;
  std::size_t words_ = 0;  // W: 64-bit words per row set.
  // The root's inputs, built once: the non-empty tuples, their
  // intersection and union, and the root's max_ep.
  std::vector<ItemId> root_alive_;
  Bitset root_common_;
  Bitset root_union_;
  std::size_t root_max_ep_ = 0;

  MinerStats stats_;
};

}  // namespace internal
}  // namespace farmer

#endif  // FARMER_CORE_FARMER_H_
