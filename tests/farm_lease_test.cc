// The farm decomposition's determinism contract: PlanFarm +
// MineFarmLease over every lease + FinalizeFarm must be bit-identical
// to a single-process MineFarmer() run — same groups, same order, same
// floats — for any option set and any upload order, and whether the
// coordinator merges the uploads at once or in prefix batches
// (MergeFarmSegments) as they arrive.

#include <algorithm>
#include <cstddef>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "core/farmer.h"
#include "core/miner_options.h"
#include "dataset/dataset.h"
#include "dataset/discretize.h"
#include "dataset/synthetic.h"
#include "test_util.h"
#include "util/timer.h"

namespace farmer {
namespace {

using testing_util::PaperExampleDataset;
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
    EXPECT_EQ(a.confidence, b.confidence);  // Bit-identical.
    EXPECT_EQ(a.chi_square, b.chi_square);
    EXPECT_EQ(a.lower_bounds, b.lower_bounds);
    EXPECT_EQ(a.lower_bounds_truncated, b.lower_bounds_truncated);
  }
  EXPECT_EQ(want.num_rows, got.num_rows);
  EXPECT_EQ(want.num_consequent_rows, got.num_consequent_rows);
}

// Mines every lease of `dataset` with one FarmerMiner (the "worker"),
// optionally shuffles the upload order, and finalizes with another (the
// "coordinator") — the two-instance split mirrors the real deployment,
// where planner and workers are separate processes.
FarmerResult MineViaFarm(const BinaryDataset& dataset,
                         const MinerOptions& opts,
                         std::uint64_t shuffle_seed) {
  internal::FarmerMiner worker(dataset, opts);
  const internal::FarmerMiner::FarmPlan& plan = worker.PlanFarm();
  std::vector<MineSegment> uploads;
  MinerStats stats;
  if (!plan.root_pruned) {
    for (const std::uint32_t row : plan.lease_rows) {
      MinerStats lease_stats;
      std::vector<MineSegment> segments =
          worker.MineFarmLease(row, nullptr, &lease_stats);
      stats.MergeFrom(lease_stats);
      for (MineSegment& seg : segments) uploads.push_back(std::move(seg));
    }
  }
  if (shuffle_seed != 0) {
    std::mt19937_64 rng(shuffle_seed);
    std::shuffle(uploads.begin(), uploads.end(), rng);
  }

  internal::FarmerMiner coordinator(dataset, opts);
  const internal::FarmerMiner::FarmPlan& cplan = coordinator.PlanFarm();
  EXPECT_EQ(cplan.root_pruned, plan.root_pruned);
  EXPECT_EQ(cplan.lease_rows, plan.lease_rows);
  for (const MineSegment& seg : cplan.root_segments) {
    uploads.push_back(seg);
  }
  stats.MergeFrom(cplan.root_stats);
  return coordinator.FinalizeFarm(std::move(uploads), stats);
}

// Merges the leases the way the coordinator does: contiguous prefixes of
// lease_rows through MergeFarmSegments, each batch shuffled, split at
// points drawn from `split_seed`, then the rest and the root's segments
// through FinalizeFarm. The coordinator miner runs `threads` threads.
FarmerResult MineViaFarmInBatches(const BinaryDataset& dataset,
                                  MinerOptions opts, std::size_t threads,
                                  std::uint64_t split_seed) {
  opts.num_threads = 1;
  internal::FarmerMiner worker(dataset, opts);
  const internal::FarmerMiner::FarmPlan& plan = worker.PlanFarm();
  opts.num_threads = threads;
  internal::FarmerMiner coordinator(dataset, opts);
  const internal::FarmerMiner::FarmPlan& cplan = coordinator.PlanFarm();
  MinerStats stats = cplan.root_stats;
  std::mt19937_64 rng(split_seed);
  std::vector<MineSegment> batch;
  if (!plan.root_pruned) {
    for (const std::uint32_t row : plan.lease_rows) {
      MinerStats lease_stats;
      std::vector<MineSegment> segments =
          worker.MineFarmLease(row, nullptr, &lease_stats);
      for (MineSegment& seg : segments) batch.push_back(std::move(seg));
      stats.MergeFrom(lease_stats);
      if (rng() % 3 == 0) {
        std::shuffle(batch.begin(), batch.end(), rng);
        coordinator.MergeFarmSegments(std::move(batch));
        batch.clear();
      }
    }
  }
  for (const MineSegment& seg : cplan.root_segments) batch.push_back(seg);
  std::shuffle(batch.begin(), batch.end(), rng);
  return coordinator.FinalizeFarm(std::move(batch), stats);
}

void ExpectFarmInvariant(const BinaryDataset& dataset, MinerOptions opts,
                         bool expect_same_nodes = true) {
  opts.num_threads = 1;
  const FarmerResult single = MineFarmer(dataset, opts);
  EXPECT_FALSE(single.stats.timed_out);
  for (const std::uint64_t shuffle_seed : {0ull, 1ull, 99ull}) {
    SCOPED_TRACE("shuffle seed " + std::to_string(shuffle_seed));
    const FarmerResult farm = MineViaFarm(dataset, opts, shuffle_seed);
    ExpectIdenticalResults(single, farm);
    // Tree-shape equality does not hold in top-k mode: the sequential
    // run tightens its confidence floor as the top-k heap fills, while
    // a farm worker (like an in-process parallel worker) only has the
    // static floor and so visits a superset of the nodes. The reported
    // groups are identical either way — that is the contract.
    if (expect_same_nodes) {
      EXPECT_EQ(single.stats.nodes_visited, farm.stats.nodes_visited);
    } else {
      EXPECT_GE(farm.stats.nodes_visited, single.stats.nodes_visited);
    }
  }
  const FarmerResult one_shot = MineViaFarm(dataset, opts, 0);
  for (const std::size_t threads : {1u, 4u}) {
    for (const std::uint64_t split_seed : {1ull, 2ull, 3ull}) {
      SCOPED_TRACE("incremental merge, " + std::to_string(threads) +
                   " coordinator threads, split seed " +
                   std::to_string(split_seed));
      const FarmerResult farm =
          MineViaFarmInBatches(dataset, opts, threads, split_seed);
      ExpectIdenticalResults(one_shot, farm);
      EXPECT_EQ(one_shot.stats.nodes_visited, farm.stats.nodes_visited);
    }
  }
}

TEST(FarmLeaseTest, PaperExample) {
  MinerOptions opts;
  opts.min_support = 1;
  ExpectFarmInvariant(PaperExampleDataset(), opts);
}

TEST(FarmLeaseTest, RandomDatasets) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed = " + std::to_string(seed));
    MinerOptions opts;
    opts.min_support = 2;
    opts.min_confidence = 0.6;
    ExpectFarmInvariant(RandomDataset(14, 24, 0.3, seed), opts);
  }
}

TEST(FarmLeaseTest, TopKMode) {
  // Top-k exercises the dynamic-confidence-floor subtlety: a farm
  // worker must use the static floor (like in-process parallel
  // workers), or its pruning would depend on upload order.
  MinerOptions opts;
  opts.min_support = 2;
  opts.top_k = 5;
  ExpectFarmInvariant(RandomDataset(15, 20, 0.35, 11), opts,
                      /*expect_same_nodes=*/false);
}

TEST(FarmLeaseTest, TopKLeaseKeepsTheStaticFloor) {
  // A dataset where a lease that raised its floor to its own store's
  // k-th-best confidence would prune a group of the sequential top 3:
  // only the static floor keeps the farm's result equal to it.
  MinerOptions opts;
  opts.min_support = 1;
  opts.min_confidence = 0.0;
  opts.top_k = 3;
  ExpectFarmInvariant(RandomDataset(10, 16, 0.3, 2975), opts,
                      /*expect_same_nodes=*/false);
}

TEST(FarmLeaseTest, ReportAllRuleGroups) {
  MinerOptions opts;
  opts.min_support = 2;
  opts.min_confidence = 0.5;
  opts.report_all_rule_groups = true;
  ExpectFarmInvariant(RandomDataset(12, 18, 0.35, 23), opts);
}

TEST(FarmLeaseTest, ChiSquareAndNoLowerBounds) {
  MinerOptions opts;
  opts.min_support = 2;
  opts.min_chi_square = 1.0;
  opts.mine_lower_bounds = false;
  ExpectFarmInvariant(RandomDataset(14, 22, 0.3, 31), opts);
}

TEST(FarmLeaseTest, LargeStoreSpansMergeChunksAndSlabs) {
  // Thousands of candidates: many 128-candidate check chunks and several
  // index slabs, with batch boundaries falling inside them.
  const ExpressionMatrix matrix =
      GenerateSynthetic(PaperDatasetSpec("PC", /*column_scale=*/0.01));
  const BinaryDataset dataset =
      Discretization::FitEqualDepth(matrix, 10).Apply(matrix);
  MinerOptions opts;
  opts.min_support = 3;
  opts.min_confidence = 0.6;
  opts.mine_lower_bounds = false;
  ASSERT_GT(MineFarmer(dataset, opts).groups.size(), 8192u);
  ExpectFarmInvariant(dataset, opts);
}

TEST(FarmLeaseTest, ExactMode) {
  // Pruning 1 off: the same group is reached at several nodes, and the
  // merge dedups it on the row set across segments and batches.
  MinerOptions opts;
  opts.min_support = 2;
  opts.min_confidence = 0.6;
  opts.enable_pruning1 = false;
  ExpectFarmInvariant(RandomDataset(13, 20, 0.35, 41), opts);
}

TEST(FarmLeaseTest, VerifyInvariantsMode) {
  // The miner's full self-verification (closure proofs, store
  // re-validation after every merged segment, so after every batch of
  // the incremental merge) must hold on the farm path too.
  MinerOptions opts;
  opts.min_support = 2;
  opts.min_confidence = 0.5;
  opts.verify_invariants = true;
  ExpectFarmInvariant(RandomDataset(13, 22, 0.35, 77), opts);
}

TEST(FarmLeaseTest, EmptyDataset) {
  BinaryDataset empty(4);
  MinerOptions opts;
  internal::FarmerMiner miner(empty, opts);
  const internal::FarmerMiner::FarmPlan& plan = miner.PlanFarm();
  EXPECT_TRUE(plan.root_pruned);
  EXPECT_TRUE(plan.lease_rows.empty());
  const FarmerResult result = miner.FinalizeFarm({}, MinerStats{});
  EXPECT_TRUE(result.groups.empty());
}

TEST(FarmLeaseTest, PlanIgnoresExpiredDeadline) {
  // The plan visits only the root, so it ignores the deadline: a plan
  // made after the deadline fired still lists every lease and carries
  // the root's closer. A row holding every item makes the root pattern
  // an IRG, so root_segments is not empty.
  BinaryDataset dataset = RandomDataset(14, 22, 0.35, 21);
  ItemVector all_items;
  for (ItemId i = 0; i < 22; ++i) all_items.push_back(i);
  dataset.AddRow(all_items, 1);
  MinerOptions opts;
  opts.min_support = 1;
  opts.min_confidence = 0.5;
  internal::FarmerMiner untimed(dataset, opts);
  opts.deadline = Deadline::After(1e-9);
  while (!opts.deadline.ExpiredNow()) {
  }
  internal::FarmerMiner expired(dataset, opts);

  const internal::FarmerMiner::FarmPlan& want = untimed.PlanFarm();
  const internal::FarmerMiner::FarmPlan& got = expired.PlanFarm();
  ASSERT_FALSE(want.root_pruned);
  ASSERT_FALSE(want.lease_rows.empty());
  ASSERT_EQ(want.root_segments.size(), 1u);
  EXPECT_EQ(got.root_pruned, want.root_pruned);
  EXPECT_EQ(got.lease_rows, want.lease_rows);
  ASSERT_EQ(got.root_segments.size(), want.root_segments.size());
  for (std::size_t i = 0; i < want.root_segments.size(); ++i) {
    const MineSegment& a = want.root_segments[i];
    const MineSegment& b = got.root_segments[i];
    EXPECT_EQ(a.id, b.id);
    ASSERT_EQ(a.groups.size(), b.groups.size());
    for (std::size_t g = 0; g < a.groups.size(); ++g) {
      EXPECT_EQ(a.groups[g].antecedent, b.groups[g].antecedent);
      EXPECT_EQ(a.groups[g].rows, b.groups[g].rows);
      EXPECT_EQ(a.groups[g].support_pos, b.groups[g].support_pos);
      EXPECT_EQ(a.groups[g].support_neg, b.groups[g].support_neg);
      EXPECT_EQ(a.groups[g].confidence, b.groups[g].confidence);
    }
  }
  EXPECT_EQ(got.root_stats.ToJson(), want.root_stats.ToJson());
  EXPECT_FALSE(got.root_stats.timed_out);
  EXPECT_EQ(got.root_stats.nodes_visited, 1u);

  // The leases themselves honor the deadline.
  MinerStats lease_stats;
  expired.MineFarmLease(got.lease_rows.front(), nullptr, &lease_stats);
  EXPECT_TRUE(lease_stats.timed_out);
}

TEST(FarmLeaseTest, DuplicateUploadWouldDoubleCount) {
  // Documents why the coordinator dedups by row: replaying the same
  // lease's segments twice is NOT harmless in report-all mode. The
  // coordinator's first-upload-wins rule is what keeps the merge exact.
  const BinaryDataset dataset = RandomDataset(12, 18, 0.35, 5);
  MinerOptions opts;
  opts.min_support = 2;
  opts.report_all_rule_groups = true;
  const FarmerResult single = MineFarmer(dataset, opts);

  internal::FarmerMiner worker(dataset, opts);
  const internal::FarmerMiner::FarmPlan& plan = worker.PlanFarm();
  ASSERT_FALSE(plan.root_pruned);
  ASSERT_FALSE(plan.lease_rows.empty());
  std::vector<MineSegment> uploads;
  for (const std::uint32_t row : plan.lease_rows) {
    for (MineSegment& seg : worker.MineFarmLease(row, nullptr, nullptr)) {
      uploads.push_back(std::move(seg));
    }
  }
  // Duplicate the first lease's upload wholesale.
  std::vector<MineSegment> again =
      worker.MineFarmLease(plan.lease_rows.front(), nullptr, nullptr);
  for (MineSegment& seg : again) uploads.push_back(std::move(seg));
  for (const MineSegment& seg : plan.root_segments) uploads.push_back(seg);

  internal::FarmerMiner coordinator(dataset, opts);
  coordinator.PlanFarm();
  const FarmerResult doubled =
      coordinator.FinalizeFarm(std::move(uploads), MinerStats{});
  EXPECT_NE(single.groups.size(), doubled.groups.size())
      << "duplicate uploads were expected to corrupt a report-all merge; "
         "if this ever becomes benign, the dedup rationale changed";
}

}  // namespace
}  // namespace farmer
