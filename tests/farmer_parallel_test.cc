// Determinism of the parallel FARMER search: for any thread count the
// reported rule groups must be bit-identical to the sequential run —
// same antecedents, row sets, supports, confidences, and ordering.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/farmer.h"
#include "core/miner_options.h"
#include "dataset/dataset.h"
#include "dataset/discretize.h"
#include "dataset/synthetic.h"
#include "serve/snapshot.h"
#include "test_util.h"
#include "util/timer.h"

namespace farmer {
namespace {

using testing_util::PaperExampleDataset;
using testing_util::RandomDataset;

// A deliberately skewed dataset: a dense cluster of heavily overlapping
// rows (one deep, narrow region of the row-enumeration tree) plus sparse
// low-overlap filler rows whose subtrees are shallow. A static
// first-level fan-out leaves almost all the work in the cluster's tasks;
// the adaptive splitter must re-split inside the cluster. Deterministic
// in `seed`.
BinaryDataset SkewedDataset(std::size_t dense_rows, std::size_t sparse_rows,
                            std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t items = 24;
  BinaryDataset ds(items);
  for (std::size_t r = 0; r < dense_rows; ++r) {
    // Cluster rows share items 0..11 almost entirely.
    ItemVector row;
    for (ItemId i = 0; i < 12; ++i) {
      if (rng.NextBool(0.9)) row.push_back(i);
    }
    ds.AddRow(std::move(row), static_cast<ClassLabel>(r % 2 == 0));
  }
  for (std::size_t r = 0; r < sparse_rows; ++r) {
    // Filler rows draw thinly from the disjoint upper item range.
    ItemVector row;
    for (ItemId i = 12; i < items; ++i) {
      if (rng.NextBool(0.15)) row.push_back(i);
    }
    ds.AddRow(std::move(row), static_cast<ClassLabel>(rng.NextBool(0.5)));
  }
  return ds;
}

// Asserts that `got` reports exactly the groups of `want`, in the same
// order, field by field.
void ExpectIdenticalResults(const FarmerResult& want,
                            const FarmerResult& got) {
  ASSERT_EQ(want.groups.size(), got.groups.size());
  for (std::size_t i = 0; i < want.groups.size(); ++i) {
    SCOPED_TRACE("group " + std::to_string(i));
    const RuleGroup& a = want.groups[i];
    const RuleGroup& b = got.groups[i];
    EXPECT_EQ(a.antecedent, b.antecedent);
    EXPECT_EQ(a.rows, b.rows) << a.rows.ToString() << " vs "
                              << b.rows.ToString();
    EXPECT_EQ(a.support_pos, b.support_pos);
    EXPECT_EQ(a.support_neg, b.support_neg);
    EXPECT_EQ(a.confidence, b.confidence);  // Bit-identical, not approximate.
    EXPECT_EQ(a.chi_square, b.chi_square);
    EXPECT_EQ(a.lower_bounds, b.lower_bounds);
    EXPECT_EQ(a.lower_bounds_truncated, b.lower_bounds_truncated);
  }
  EXPECT_EQ(want.num_rows, got.num_rows);
  EXPECT_EQ(want.num_consequent_rows, got.num_consequent_rows);
}

// Runs the miner at 1, 2, 4 and 8 threads and checks all results against
// the sequential one.
void ExpectThreadCountInvariant(const BinaryDataset& dataset,
                                MinerOptions opts) {
  opts.num_threads = 1;
  const FarmerResult sequential = MineFarmer(dataset, opts);
  EXPECT_FALSE(sequential.stats.timed_out);
  for (std::size_t threads : {2u, 4u, 8u}) {
    SCOPED_TRACE("threads = " + std::to_string(threads));
    opts.num_threads = threads;
    const FarmerResult parallel = MineFarmer(dataset, opts);
    EXPECT_FALSE(parallel.stats.timed_out);
    ExpectIdenticalResults(sequential, parallel);
    // Tree-shape stats are thread-count-invariant too: the same nodes are
    // visited, just on different threads.
    EXPECT_EQ(sequential.stats.nodes_visited, parallel.stats.nodes_visited);
    EXPECT_EQ(sequential.stats.rows_absorbed, parallel.stats.rows_absorbed);
  }
}

// A small synthetic paper dataset, discretized like the benchmarks do.
BinaryDataset SmallPaperDataset(const std::string& name) {
  SyntheticSpec spec = PaperDatasetSpec(name, /*column_scale=*/0.01);
  ExpressionMatrix matrix = GenerateSynthetic(spec);
  Discretization disc = Discretization::FitEqualDepth(matrix, 10);
  return disc.Apply(matrix);
}

// The farm decomposition in-process: one miner plans and mines every
// lease. Returns the uploads plus the root's segments, and their stats.
std::vector<MineSegment> FarmUploads(const BinaryDataset& dataset,
                                     const MinerOptions& opts,
                                     MinerStats* stats) {
  internal::FarmerMiner worker(dataset, opts);
  const internal::FarmerMiner::FarmPlan& plan = worker.PlanFarm();
  std::vector<MineSegment> uploads = plan.root_segments;
  *stats = plan.root_stats;
  if (!plan.root_pruned) {
    for (const std::uint32_t row : plan.lease_rows) {
      MinerStats lease_stats;
      std::vector<MineSegment> segments =
          worker.MineFarmLease(row, nullptr, &lease_stats);
      for (MineSegment& seg : segments) uploads.push_back(std::move(seg));
      stats->MergeFrom(lease_stats);
    }
  }
  return uploads;
}

// Replays the farm decomposition in-process: FarmUploads, then a second
// miner merges the uploads and the root's segments, as a coordinator
// would.
FarmerResult MineViaFarm(const BinaryDataset& dataset,
                         const MinerOptions& opts) {
  MinerStats stats;
  std::vector<MineSegment> uploads = FarmUploads(dataset, opts, &stats);
  internal::FarmerMiner coordinator(dataset, opts);
  return coordinator.FinalizeFarm(std::move(uploads), stats);
}

// Definition 2.2 by brute force, independent of the miner's dominance
// index: from every group passing the thresholds (report-all mode), keep
// the groups no other group dominates — a proper row superset with
// confidence at least as high. Sets *candidates to the report-all count.
FarmerResult DominanceOracle(const BinaryDataset& dataset,
                             MinerOptions opts, std::size_t* candidates) {
  opts.report_all_rule_groups = true;
  opts.num_threads = 1;
  FarmerResult all = MineFarmer(dataset, opts);
  *candidates = all.groups.size();
  std::vector<RuleGroup> kept;
  for (const RuleGroup& g : all.groups) {
    bool dominated = false;
    for (const RuleGroup& h : all.groups) {
      if (g.rows.IsProperSubsetOf(h.rows) && h.confidence >= g.confidence) {
        dominated = true;
        break;
      }
    }
    if (!dominated) kept.push_back(g);
  }
  all.groups = std::move(kept);
  return all;
}

TEST(FarmerParallelTest, PaperExampleAllThreadCounts) {
  MinerOptions opts;
  opts.min_support = 1;
  ExpectThreadCountInvariant(PaperExampleDataset(), opts);
}

TEST(FarmerParallelTest, VerifyInvariantsModeAllThreadCounts) {
  // Runs the full self-verification mode (kernel cross-checks, store
  // re-validation after every segment merge, pool quiescence, closure and
  // MineLB minimality proofs) across thread counts. Any divergence between
  // the word-parallel kernels and the scalar references, or any unsound
  // merge, aborts the binary.
  MinerOptions opts;
  opts.min_support = 2;
  opts.min_confidence = 0.5;
  opts.verify_invariants = true;
  ExpectThreadCountInvariant(RandomDataset(13, 22, 0.35, 77), opts);
  ExpectThreadCountInvariant(SkewedDataset(10, 14, 77), opts);
}

TEST(FarmerParallelTest, VerifyInvariantsAcrossIndexBlocks) {
  // Self-verification on a store spanning several 64-group blocks of the
  // row->group bitmap, with multi-word row sets: the bitmap must match
  // every group's rows after the sequential search, after every segment
  // of the thread merge, and after every segment of the farm merge.
  const BinaryDataset ds = SmallPaperDataset("BC");
  ASSERT_GT(ds.num_rows(), 64u);
  MinerOptions opts;
  opts.min_support = 6;
  opts.min_confidence = 0.8;
  opts.verify_invariants = true;
  opts.num_threads = 1;
  const FarmerResult sequential = MineFarmer(ds, opts);
  ASSERT_GT(sequential.groups.size(), 128u);
  opts.num_threads = 4;
  ExpectIdenticalResults(sequential, MineFarmer(ds, opts));
  SCOPED_TRACE("farm");
  ExpectIdenticalResults(sequential, MineViaFarm(ds, opts));
}

TEST(FarmerParallelTest, DominanceMatchesBruteForceOracle) {
  // The IRG comparison against the definition itself, on datasets whose
  // row sets span two and three words and whose stores fill several
  // 64-group blocks. The mined groups must equal the oracle's element by
  // element and in order, sequentially, in parallel and through the farm.
  struct Case {
    const char* name;
    std::size_t min_support;
    double min_confidence;
  };
  for (const Case& c : {Case{"BC", 6, 0.8}, Case{"PC", 4, 0.9}}) {
    SCOPED_TRACE(c.name);
    const BinaryDataset ds = SmallPaperDataset(c.name);
    ASSERT_GT(ds.num_rows(), 64u);
    MinerOptions opts;
    opts.min_support = c.min_support;
    opts.min_confidence = c.min_confidence;
    opts.mine_lower_bounds = false;
    std::size_t candidates = 0;
    const FarmerResult oracle = DominanceOracle(ds, opts, &candidates);
    ASSERT_GT(oracle.groups.size(), 128u);
    ASSERT_LT(oracle.groups.size(), candidates);  // Dominance drops some.
    for (std::size_t threads : {1u, 4u}) {
      SCOPED_TRACE("threads = " + std::to_string(threads));
      opts.num_threads = threads;
      ExpectIdenticalResults(oracle, MineFarmer(ds, opts));
    }
    SCOPED_TRACE("farm");
    ExpectIdenticalResults(oracle, MineViaFarm(ds, opts));
  }
}

TEST(FarmerParallelTest, RandomDatasetsAllThreadCounts) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed = " + std::to_string(seed));
    MinerOptions opts;
    opts.min_support = 2;
    opts.min_confidence = 0.6;
    ExpectThreadCountInvariant(RandomDataset(14, 24, 0.3, seed), opts);
  }
}

TEST(FarmerParallelTest, SyntheticPaperDatasets) {
  for (const char* name : {"BC", "CT"}) {
    SCOPED_TRACE(name);
    MinerOptions opts;
    opts.min_support = 4;
    opts.min_confidence = 0.8;
    opts.mine_lower_bounds = false;
    ExpectThreadCountInvariant(SmallPaperDataset(name), opts);
  }
}

TEST(FarmerParallelTest, TopKIsThreadCountInvariant) {
  // The dynamic top-k confidence floor is worker-local in parallel runs;
  // the reported groups must still match the sequential ones exactly.
  MinerOptions opts;
  opts.min_support = 2;
  opts.top_k = 5;
  opts.mine_lower_bounds = false;
  for (std::uint64_t seed = 10; seed <= 12; ++seed) {
    SCOPED_TRACE("seed = " + std::to_string(seed));
    const BinaryDataset ds = RandomDataset(16, 20, 0.35, seed);
    opts.num_threads = 1;
    const FarmerResult sequential = MineFarmer(ds, opts);
    for (std::size_t threads : {2u, 4u, 8u}) {
      SCOPED_TRACE("threads = " + std::to_string(threads));
      opts.num_threads = threads;
      ExpectIdenticalResults(sequential, MineFarmer(ds, opts));
    }
  }
}

TEST(FarmerParallelTest, TopKOrderIsThreadCountInvariant) {
  // A one-thread mine's rising confidence floor can leave exactly k
  // candidates, and the pool keeps more; both must come out ranked by
  // confidence, then support, in the same order, and so must the
  // snapshots the server loads.
  MinerOptions opts;
  opts.min_support = 1;
  opts.min_confidence = 0.0;
  opts.top_k = 3;
  const auto snapshot_bytes = [&opts](const BinaryDataset& ds,
                                      const FarmerResult& result) {
    serve::RuleGroupSnapshot snapshot;
    snapshot.groups = result.groups;
    snapshot.num_rows = ds.num_rows();
    snapshot.params = serve::SnapshotParams::FromMinerOptions(opts);
    snapshot.fingerprint = serve::SnapshotFingerprint::FromDataset(ds);
    return serve::SerializeSnapshot(snapshot);
  };
  std::vector<std::uint64_t> differing;
  for (std::uint64_t seed = 1; seed <= 399; ++seed) {
    const BinaryDataset ds = RandomDataset(10, 16, 0.3, seed);
    opts.num_threads = 1;
    const FarmerResult one = MineFarmer(ds, opts);
    opts.num_threads = 4;
    const FarmerResult four = MineFarmer(ds, opts);
    bool same = one.groups.size() == four.groups.size();
    for (std::size_t i = 0; same && i < one.groups.size(); ++i) {
      same = one.groups[i].rows == four.groups[i].rows;
    }
    same = same && snapshot_bytes(ds, one) == snapshot_bytes(ds, four);
    if (!same) differing.push_back(seed);
  }
  EXPECT_TRUE(differing.empty())
      << differing.size() << " seeds differ, first " << differing.front();
}

TEST(FarmerParallelTest, ExactModeIsThreadCountInvariant) {
  // Ablation configurations take the exact-mode path (hash-set dedup on
  // the recomputed row sets); the merge must preserve its semantics.
  for (const bool p1 : {false, true}) {
    MinerOptions opts;
    opts.min_support = 2;
    opts.enable_pruning1 = p1;
    opts.enable_pruning2 = false;
    opts.mine_lower_bounds = false;
    SCOPED_TRACE(p1 ? "pruning2 off" : "pruning1+2 off");
    ExpectThreadCountInvariant(RandomDataset(12, 18, 0.35, 7), opts);
  }
}

TEST(FarmerParallelTest, ReportAllGroupsIsThreadCountInvariant) {
  MinerOptions opts;
  opts.min_support = 2;
  opts.min_confidence = 0.5;
  opts.report_all_rule_groups = true;
  opts.mine_lower_bounds = false;
  ExpectThreadCountInvariant(RandomDataset(13, 20, 0.3, 21), opts);
}

TEST(FarmerParallelTest, ShortDeadlineTerminatesWithoutDeadlock) {
  // An already-expired deadline over a search far too large to finish:
  // every thread count must terminate promptly (one worker noticing the
  // expiry cancels the siblings), report timed_out, and keep the
  // partial-result contract (whatever is returned satisfies the
  // thresholds). Deadline throttles its clock reads, so the tree must be
  // big enough for some worker to make a few hundred checks.
  const BinaryDataset ds = SmallPaperDataset("BC");
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("threads = " + std::to_string(threads));
    MinerOptions opts;
    opts.min_support = 1;
    opts.mine_lower_bounds = false;
    opts.store_antecedents = false;
    opts.num_threads = threads;
    opts.deadline = Deadline::After(1e-9);
    const FarmerResult result = MineFarmer(ds, opts);
    EXPECT_TRUE(result.stats.timed_out);
    for (const RuleGroup& g : result.groups) {
      EXPECT_GE(g.support_pos, opts.min_support);
    }
  }
}

TEST(FarmerParallelTest, SkewedTreesAllThreadCounts) {
  // The workload the work-stealing scheduler exists for: nearly all of
  // the enumeration tree hangs under a handful of heavily overlapping
  // rows. Results must stay bit-identical while idle workers steal and
  // re-split the deep subtrees.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed = " + std::to_string(seed));
    MinerOptions opts;
    opts.min_support = 2;
    ExpectThreadCountInvariant(SkewedDataset(12, 8, seed), opts);
  }
}

TEST(FarmerParallelTest, SkewedTreesTopKAndExactMode) {
  const BinaryDataset ds = SkewedDataset(11, 6, 42);
  {
    MinerOptions opts;
    opts.min_support = 2;
    opts.top_k = 4;
    opts.mine_lower_bounds = false;
    opts.num_threads = 1;
    const FarmerResult sequential = MineFarmer(ds, opts);
    for (std::size_t threads : {2u, 4u, 8u}) {
      SCOPED_TRACE("top-k, threads = " + std::to_string(threads));
      opts.num_threads = threads;
      ExpectIdenticalResults(sequential, MineFarmer(ds, opts));
    }
  }
  {
    MinerOptions opts;
    opts.min_support = 2;
    opts.enable_pruning1 = false;
    opts.enable_pruning2 = false;
    opts.mine_lower_bounds = false;
    SCOPED_TRACE("exact mode");
    ExpectThreadCountInvariant(ds, opts);
  }
}

TEST(FarmerParallelTest, SplitDepthDoesNotChangeResults) {
  // max_split_depth only shifts where tasks are cut, never what they
  // mine. 0 disables splitting entirely (the root task mines the whole
  // tree sequentially on one worker); large values split eagerly.
  const BinaryDataset ds = SkewedDataset(10, 6, 5);
  MinerOptions opts;
  opts.min_support = 2;
  opts.num_threads = 1;
  const FarmerResult sequential = MineFarmer(ds, opts);
  for (std::size_t depth : {0u, 1u, 3u, 64u}) {
    SCOPED_TRACE("max_split_depth = " + std::to_string(depth));
    opts.max_split_depth = depth;
    opts.num_threads = 4;
    ExpectIdenticalResults(sequential, MineFarmer(ds, opts));
  }
}

TEST(FarmerParallelTest, MidRunDeadlinePropagatesThroughStolenTasks) {
  // A deadline that expires *during* the search (not before it): the
  // worker that notices cancels its siblings; tasks already stolen or
  // queued must all observe the flag, the pool must drain, and every
  // thread count must report timed_out with the partial-result contract
  // intact. The workload is far too large to finish in 30ms.
  SyntheticSpec spec = PaperDatasetSpec("BC", /*column_scale=*/0.02);
  ExpressionMatrix matrix = GenerateSynthetic(spec);
  Discretization disc = Discretization::FitEqualDepth(matrix, 10);
  const BinaryDataset ds = disc.Apply(matrix);
  for (std::size_t threads : {2u, 4u, 8u}) {
    SCOPED_TRACE("threads = " + std::to_string(threads));
    MinerOptions opts;
    opts.min_support = 1;
    opts.mine_lower_bounds = false;
    opts.store_antecedents = false;
    opts.num_threads = threads;
    opts.max_split_depth = 64;  // Split aggressively: many stealable tasks.
    opts.deadline = Deadline::After(0.03);
    const FarmerResult result = MineFarmer(ds, opts);
    EXPECT_TRUE(result.stats.timed_out);
    for (const RuleGroup& g : result.groups) {
      EXPECT_GE(g.support_pos, opts.min_support);
    }
  }
}

// Checks a 4-thread mine and a farm mine with a 4-thread coordinator
// against a 1-thread mine: the merge, MineLB and the remap run on the
// mine's pool in both.
void ExpectPoolPathsMatchSequential(const BinaryDataset& ds,
                                    MinerOptions opts) {
  opts.num_threads = 1;
  const FarmerResult sequential = MineFarmer(ds, opts);
  opts.num_threads = 4;
  {
    SCOPED_TRACE("4 threads");
    const FarmerResult parallel = MineFarmer(ds, opts);
    EXPECT_FALSE(parallel.stats.timed_out);
    ExpectIdenticalResults(sequential, parallel);
  }
  SCOPED_TRACE("farm, 4-thread coordinator");
  ExpectIdenticalResults(sequential, MineViaFarm(ds, opts));
}

TEST(FarmerParallelTest, PoolMergeMatchesSequentialOnLargeStores) {
  // Enough candidates reach the merge for several 128-candidate chunks
  // to be checked on the pool while later segments are still indexed.
  struct Case {
    const char* name;
    std::size_t min_support;
    double min_confidence;
  };
  for (const Case& c : {Case{"BC", 5, 0.8}, Case{"PC", 4, 0.8}}) {
    SCOPED_TRACE(c.name);
    const BinaryDataset ds = SmallPaperDataset(c.name);
    MinerOptions opts;
    opts.min_support = c.min_support;
    opts.min_confidence = c.min_confidence;
    opts.mine_lower_bounds = false;
    {
      SCOPED_TRACE("dominance");
      opts.num_threads = 1;
      ASSERT_GT(MineFarmer(ds, opts).groups.size(), 256u);
      ExpectPoolPathsMatchSequential(ds, opts);
    }
    {
      SCOPED_TRACE("top-k");
      MinerOptions topk = opts;
      topk.top_k = 40;
      ExpectPoolPathsMatchSequential(ds, topk);
    }
    {
      SCOPED_TRACE("report-all");
      MinerOptions all = opts;
      all.report_all_rule_groups = true;
      ExpectPoolPathsMatchSequential(ds, all);
    }
    {
      SCOPED_TRACE("exact mode");
      MinerOptions exact = opts;
      exact.enable_pruning2 = false;
      ExpectPoolPathsMatchSequential(ds, exact);
    }
  }
}

TEST(FarmerParallelTest, PoolMineLbMatchesSequential) {
  // MineLB in chunks on the pool, every bound proven minimal by the
  // verify_invariants oracle: bounds and truncation flags must match the
  // 1-thread mine group for group. A small candidate cap truncates some.
  const BinaryDataset ds = SmallPaperDataset("BC");
  MinerOptions opts;
  opts.min_support = 6;
  opts.min_confidence = 0.8;
  opts.verify_invariants = true;
  ExpectPoolPathsMatchSequential(ds, opts);
  SCOPED_TRACE("candidate cap");
  opts.max_lower_bound_candidates = 2;
  opts.num_threads = 1;
  std::size_t truncated = 0;
  for (const RuleGroup& g : MineFarmer(ds, opts).groups) {
    truncated += g.lower_bounds_truncated ? 1 : 0;
  }
  EXPECT_GT(truncated, 0u);
  ExpectPoolPathsMatchSequential(ds, opts);
}

TEST(FarmerParallelTest, PoolMineLbWithExpiredDeadlineFlagsEveryGroup) {
  // A deadline already past when the mine starts but never sampled by the
  // search: each task reads the clock only every 256 nodes, and this tree
  // is smaller. MineLB samples it before every group, so no bound is
  // computed: every group is flagged truncated and the run timed out.
  // Report-all mode keeps enough groups for several MineLB chunks.
  const BinaryDataset ds = RandomDataset(10, 22, 0.35, 77);
  MinerOptions opts;
  opts.min_support = 1;
  opts.report_all_rule_groups = true;
  opts.num_threads = 1;
  const FarmerResult full = MineFarmer(ds, opts);
  ASSERT_LT(full.stats.nodes_visited, 256u);
  ASSERT_GT(full.groups.size(), 32u);  // More than one MineLB chunk.

  opts.num_threads = 4;
  opts.deadline = Deadline::After(1e-9);
  Stopwatch past;
  while (past.ElapsedSeconds() < 1e-6) {
  }
  const FarmerResult r = MineFarmer(ds, opts);
  EXPECT_TRUE(r.stats.timed_out);
  ASSERT_EQ(r.groups.size(), full.groups.size());
  for (const RuleGroup& g : r.groups) {
    EXPECT_TRUE(g.lower_bounds_truncated);
    EXPECT_TRUE(g.lower_bounds.empty());
  }
}

TEST(FarmerParallelTest, PoolPathsWithDistantDeadline) {
  // A deadline that never fires still has every worker sample its own
  // copy (the clock reads update the copy's state): results must match
  // the run without one.
  const BinaryDataset ds = SmallPaperDataset("BC");
  MinerOptions opts;
  opts.min_support = 6;
  opts.min_confidence = 0.8;
  opts.num_threads = 1;
  const FarmerResult want = MineFarmer(ds, opts);
  opts.deadline = Deadline::After(3600.0);
  opts.num_threads = 4;
  const FarmerResult got = MineFarmer(ds, opts);
  EXPECT_FALSE(got.stats.timed_out);
  ExpectIdenticalResults(want, got);
  SCOPED_TRACE("farm, 4-thread coordinator");
  ExpectIdenticalResults(want, MineViaFarm(ds, opts));
}

TEST(FarmerParallelTest, MergeDeadlineKeepsOnlyCheckedCandidates) {
  // The complete segments of a mine, merged under a deadline that fires
  // before or during the merge. Each worker samples the deadline after
  // every 128-candidate chunk it checks, and every candidate not checked
  // by then is dropped. The kept groups must be a subset of the untimed
  // result, in its order, and the brute-force dominance oracle must find
  // none of them dominated by a threshold-passing group.
  const BinaryDataset ds = SmallPaperDataset("PC");
  MinerOptions opts;
  opts.min_support = 4;
  opts.min_confidence = 0.9;
  opts.mine_lower_bounds = false;
  MinerStats stats;
  const std::vector<MineSegment> uploads = FarmUploads(ds, opts, &stats);
  const FarmerResult untimed =
      internal::FarmerMiner(ds, opts).FinalizeFarm(uploads, stats);
  ASSERT_FALSE(untimed.stats.timed_out);
  ASSERT_GT(untimed.groups.size(), 128u);  // More than one merge chunk.
  MinerOptions all_opts = opts;
  all_opts.report_all_rule_groups = true;
  const FarmerResult all = MineFarmer(ds, all_opts);

  for (std::size_t threads : {1u, 4u}) {
    // 0 stands for a deadline that has passed before the merge starts.
    for (double seconds : {0.0, 1e-4, 1e-3}) {
      SCOPED_TRACE("threads = " + std::to_string(threads) +
                   ", deadline = " + std::to_string(seconds));
      opts.num_threads = threads;
      if (seconds > 0.0) {
        opts.deadline = Deadline::After(seconds);
      } else {
        opts.deadline = Deadline::After(1e-9);
        while (!opts.deadline.ExpiredNow()) {
        }
      }
      const FarmerResult r =
          internal::FarmerMiner(ds, opts).FinalizeFarm(uploads, stats);
      if (seconds == 0.0) {
        EXPECT_TRUE(r.stats.timed_out);
        EXPECT_LT(r.groups.size(), untimed.groups.size());
        // Inline, the merge checks one chunk, samples the deadline and
        // stops.
        if (threads == 1) {
          EXPECT_LE(r.groups.size(), 128u);
        }
      }
      if (!r.stats.timed_out) {
        ExpectIdenticalResults(untimed, r);
        continue;
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
}

TEST(FarmerParallelTest, MoreThreadsThanSubtrees) {
  // Thread counts far beyond the available subtree tasks must clamp,
  // not hang or crash.
  MinerOptions opts;
  opts.min_support = 1;
  opts.num_threads = 64;
  const FarmerResult parallel = MineFarmer(PaperExampleDataset(), opts);
  opts.num_threads = 1;
  const FarmerResult sequential = MineFarmer(PaperExampleDataset(), opts);
  ExpectIdenticalResults(sequential, parallel);
}

}  // namespace
}  // namespace farmer
