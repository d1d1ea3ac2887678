#include "core/minelb.h"

#include <algorithm>
#include <iterator>
#include <numeric>
#include <set>

#include <gtest/gtest.h>

#include "core/brute_force.h"
#include "core/farmer.h"
#include "dataset/transpose.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace farmer {
namespace {

using testing_util::AsSet;
using testing_util::MakeDataset;
using testing_util::RandomDataset;

// The miner's view of `ds`: one row bitset per item, built from the
// transposed table exactly as FarmerMiner builds its tuple bitsets.
std::vector<Bitset> ItemRows(const BinaryDataset& ds) {
  const TransposedTable tt = TransposedTable::Build(ds);
  std::vector<Bitset> item_rows(tt.num_items(), Bitset(ds.num_rows()));
  for (ItemId i = 0; i < tt.num_items(); ++i) {
    for (RowId r : tt.tuple(i)) item_rows[i].Set(r);
  }
  return item_rows;
}

// R(A): the rows holding every item of `itemset`.
Bitset RowsOf(const BinaryDataset& ds, const ItemVector& itemset) {
  Bitset rows(ds.num_rows());
  for (RowId r = 0; r < ds.num_rows(); ++r) {
    const ItemVector& row = ds.row(r);
    if (std::includes(row.begin(), row.end(), itemset.begin(),
                      itemset.end())) {
      rows.Set(r);
    }
  }
  return rows;
}

// Independent oracle: the lower bounds of A are the minimal transversals
// of the hypergraph {A − I(r) : r ∉ R(A)}. Every minimal transversal is
// the union of one item picked from each edge, so the oracle enumerates
// all picks and keeps the inclusion-minimal unions. Edges that contain
// another edge constrain nothing and are dropped first, which keeps the
// product small.
std::set<ItemVector> MinimalTransversals(const BinaryDataset& ds,
                                         const ItemVector& antecedent,
                                         const Bitset& rows) {
  std::set<ItemVector> all_edges;
  for (RowId r = 0; r < ds.num_rows(); ++r) {
    if (rows.Test(r)) continue;
    ItemVector edge;
    std::set_difference(antecedent.begin(), antecedent.end(),
                        ds.row(r).begin(), ds.row(r).end(),
                        std::back_inserter(edge));
    all_edges.insert(edge);
  }
  std::vector<ItemVector> edges;
  for (const ItemVector& e : all_edges) {
    bool contains_other = false;
    for (const ItemVector& f : all_edges) {
      if (f != e && std::includes(e.begin(), e.end(), f.begin(), f.end())) {
        contains_other = true;
      }
    }
    if (!contains_other) edges.push_back(e);
  }
  std::set<ItemVector> unions;
  std::vector<ItemId> pick;
  auto enumerate = [&](auto&& self, std::size_t e) -> void {
    if (e == edges.size()) {
      ItemVector u = pick;
      std::sort(u.begin(), u.end());
      u.erase(std::unique(u.begin(), u.end()), u.end());
      unions.insert(u);
      return;
    }
    for (ItemId i : edges[e]) {
      pick.push_back(i);
      self(self, e + 1);
      pick.pop_back();
    }
  };
  enumerate(enumerate, 0);
  std::set<ItemVector> minimal;
  for (const ItemVector& u : unions) {
    bool has_smaller = false;
    for (const ItemVector& v : unions) {
      if (v.size() < u.size() &&
          std::includes(u.begin(), u.end(), v.begin(), v.end())) {
        has_smaller = true;
        break;
      }
    }
    if (!has_smaller) minimal.insert(u);
  }
  return minimal;
}

// A table with one wide antecedent: antecedent position p is item 2p+1,
// the even items lie outside it. Row 0 (and, for some seeds, a copy of
// it) holds the whole antecedent; each other row misses 1–5 random
// positions, so its I(r) ∩ A spans several words. Some rows repeat or
// enlarge another row's missing set (duplicate and non-maximal Σ
// members), and every row carries random items outside the antecedent.
struct WideCase {
  BinaryDataset ds;
  ItemVector antecedent;
};

WideCase MakeWideCase(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t width = 65 + rng.NextBelow(136);  // 65..200 positions
  WideCase c{BinaryDataset(2 * width + 2), {}};
  for (std::size_t p = 0; p < width; ++p) {
    c.antecedent.push_back(static_cast<ItemId>(2 * p + 1));
  }
  auto add_row = [&](const std::set<std::size_t>& missing, ClassLabel y) {
    ItemVector row;
    for (std::size_t p = 0; p < width; ++p) {
      if (rng.NextBool(0.3)) row.push_back(static_cast<ItemId>(2 * p));
      if (missing.count(p) == 0) row.push_back(static_cast<ItemId>(2 * p + 1));
    }
    c.ds.AddRow(std::move(row), y);
  };
  add_row({}, 1);
  if (rng.NextBool(0.5)) add_row({}, 1);
  std::vector<std::set<std::size_t>> missing_sets;
  const std::size_t outside = 2 + rng.NextBelow(4);  // 2..5 rows
  for (std::size_t k = 0; k < outside; ++k) {
    std::set<std::size_t> missing;
    if (!missing_sets.empty() && rng.NextBool(0.3)) {
      // Repeat an earlier row's missing set, or enlarge it: the row's
      // I(r) ∩ A then duplicates or sits inside an earlier one.
      missing = missing_sets[rng.NextBelow(missing_sets.size())];
      if (rng.NextBool(0.5)) missing.insert(rng.NextBelow(width));
    } else {
      const std::size_t size = 1 + rng.NextBelow(5);
      while (missing.size() < size) missing.insert(rng.NextBelow(width));
    }
    missing_sets.push_back(missing);
    add_row(missing, 0);
  }
  return c;
}

class MineLbWideTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MineLbWideTest, MatchesMinimalTransversalsOnBothPaths) {
  const WideCase c = MakeWideCase(GetParam());
  const Bitset rows = RowsOf(c.ds, c.antecedent);
  const LowerBoundResult lb = MineLowerBounds(c.ds, c.antecedent, rows);
  ASSERT_FALSE(lb.truncated);
  EXPECT_EQ(AsSet(lb.lower_bounds),
            MinimalTransversals(c.ds, c.antecedent, rows))
      << "seed=" << GetParam() << " width=" << c.antecedent.size();
  EXPECT_TRUE(
      ValidateLowerBounds(c.ds, c.antecedent, rows, lb.lower_bounds).ok());

  MineLbScratch scratch;
  const LowerBoundResult miner_path = MineLowerBounds(
      ItemRows(c.ds), c.antecedent, rows, 0, nullptr, &scratch);
  EXPECT_EQ(miner_path.lower_bounds, lb.lower_bounds);
  EXPECT_EQ(miner_path.truncated, lb.truncated);
}

INSTANTIATE_TEST_SUITE_P(WideAntecedents, MineLbWideTest,
                         ::testing::Range<std::uint64_t>(1, 41));

TEST(MineLbTest, MinerBoundsMatchDatasetPathOnWideGroups) {
  // The miner runs MineLB on its own tuple bitsets in permuted row ids;
  // every group it reports must carry exactly the bounds the dataset
  // entry point computes on the caller's table.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const WideCase c = MakeWideCase(seed);
    MinerOptions opts;
    opts.consequent = 0;
    opts.min_support = 1;
    opts.min_confidence = 0.0;
    opts.mine_lower_bounds = true;
    opts.verify_invariants = true;
    const FarmerResult r = MineFarmer(c.ds, opts);
    ASSERT_FALSE(r.groups.empty());
    bool saw_wide = false;
    for (const RuleGroup& g : r.groups) {
      saw_wide |= g.antecedent.size() > 64;
      const LowerBoundResult lb = MineLowerBounds(c.ds, g.antecedent, g.rows);
      EXPECT_FALSE(g.lower_bounds_truncated);
      EXPECT_EQ(g.lower_bounds, lb.lower_bounds) << "seed=" << seed;
    }
    EXPECT_TRUE(saw_wide) << "seed=" << seed;
  }
}

TEST(MineLbTest, TruncationIsDeterministicUnderTies) {
  // 130 antecedent positions (3 words); outside row k misses the pair
  // {2k, 2k+1}, so Σ holds 24 sets of equal cardinality 128 and Γ
  // doubles with every update step until the cap fires. Which pairs were
  // processed before the cap depends only on Σ's canonical order — not
  // on the row order, the entry point or the scratch's history.
  const std::size_t width = 130;
  const std::size_t pairs = 24;
  auto build = [&](const std::vector<std::size_t>& pair_order) {
    std::vector<std::pair<std::vector<int>, int>> table;
    std::vector<int> all(width);
    std::iota(all.begin(), all.end(), 0);
    table.push_back({all, 1});
    for (std::size_t k : pair_order) {
      std::vector<int> row;
      for (std::size_t p = 0; p < width; ++p) {
        if (p / 2 != k) row.push_back(static_cast<int>(p));
      }
      table.push_back({row, 0});
    }
    return MakeDataset(table);
  };
  std::vector<std::size_t> order(pairs);
  std::iota(order.begin(), order.end(), 0);
  const BinaryDataset ds = build(order);
  ItemVector antecedent(width);
  std::iota(antecedent.begin(), antecedent.end(), 0);
  const Bitset rows = RowsOf(ds, antecedent);
  const std::size_t cap = 1000;

  const LowerBoundResult first = MineLowerBounds(ds, antecedent, rows, cap);
  ASSERT_TRUE(first.truncated);
  EXPECT_FALSE(first.timed_out);
  // Nine doublings (2^9 = 512 bounds), then 512 × 2 candidates > cap.
  EXPECT_EQ(first.lower_bounds.size(), 512u);

  const LowerBoundResult again = MineLowerBounds(ds, antecedent, rows, cap);
  EXPECT_EQ(again.lower_bounds, first.lower_bounds);

  // The miner's entry point, with a scratch dirtied by another call.
  MineLbScratch scratch;
  const std::vector<Bitset> item_rows = ItemRows(ds);
  const ItemVector narrow = {0, 1, 2};
  (void)MineLowerBounds(item_rows, narrow, RowsOf(ds, narrow), 0, nullptr,
                        &scratch);
  const LowerBoundResult miner_path = MineLowerBounds(
      item_rows, antecedent, rows, cap, nullptr, &scratch);
  EXPECT_TRUE(miner_path.truncated);
  EXPECT_EQ(miner_path.lower_bounds, first.lower_bounds);

  // The same table with the outside rows in other orders.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    std::vector<std::size_t> shuffled = order;
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.NextBelow(i)]);
    }
    const BinaryDataset permuted = build(shuffled);
    const LowerBoundResult lb = MineLowerBounds(
        permuted, antecedent, RowsOf(permuted, antecedent), cap);
    EXPECT_EQ(lb.lower_bounds, first.lower_bounds) << "seed=" << seed;
  }
}

TEST(MineLbTest, PaperExampleSeven) {
  // Example 7: upper bound antecedent A = abcde; other rows r1 = abcf,
  // r2 = cdeg. Expected lower bounds: {ad, bd, ae, be}.
  // Build a dataset where some row set supports abcde: one row abcde
  // (class 1) plus the two interfering rows.
  BinaryDataset ds = MakeDataset({
      {{0, 1, 2, 3, 4}, 1},  // abcde
      {{0, 1, 2, 5}, 0},     // abcf
      {{2, 3, 4, 6}, 0},     // cdeg
  });
  const ItemVector antecedent = {0, 1, 2, 3, 4};
  Bitset rows(3);
  rows.Set(0);
  LowerBoundResult lb = MineLowerBounds(ds, antecedent, rows);
  EXPECT_FALSE(lb.truncated);
  EXPECT_EQ(AsSet(lb.lower_bounds),
            AsSet({{0, 3}, {1, 3}, {0, 4}, {1, 4}}));
}

TEST(MineLbTest, SingletonAntecedent) {
  BinaryDataset ds = MakeDataset({{{0, 1}, 1}, {{1}, 0}});
  Bitset rows(2);
  rows.Set(0);
  LowerBoundResult lb = MineLowerBounds(ds, {0, 1}, rows);
  // Item 0 alone identifies row 0; item 1 does not.
  EXPECT_EQ(AsSet(lb.lower_bounds), AsSet({{0}}));
}

TEST(MineLbTest, NoInterferingRowsYieldSingletons) {
  // When the antecedent's rows are the whole dataset, every single item of
  // the antecedent is already a lower bound.
  BinaryDataset ds = MakeDataset({{{0, 1, 2}, 1}, {{0, 1, 2}, 0}});
  Bitset rows(2);
  rows.Set(0);
  rows.Set(1);
  LowerBoundResult lb = MineLowerBounds(ds, {0, 1, 2}, rows);
  EXPECT_EQ(AsSet(lb.lower_bounds), AsSet({{0}, {1}, {2}}));
  // Singletons are minimal even though the empty set selects every row.
  EXPECT_TRUE(ValidateLowerBounds(ds, {0, 1, 2}, rows, lb.lower_bounds).ok());
}

TEST(MineLbTest, CandidateCapSetsTruncatedFlag) {
  // Force an update step whose candidate cross-product exceeds the cap.
  BinaryDataset ds = MakeDataset({
      {{0, 1, 2, 3, 4, 5, 6, 7}, 1},
      {{0, 1, 2, 3}, 0},  // A' = {0,1,2,3}: 4 bounds × 4 missing = 16.
  });
  Bitset rows(2);
  rows.Set(0);
  LowerBoundResult lb =
      MineLowerBounds(ds, {0, 1, 2, 3, 4, 5, 6, 7}, rows, 8);
  EXPECT_TRUE(lb.truncated);
}

// Property: MineLB equals the exhaustive minimal-subset search on random
// data, for every rule group of the dataset.
class MineLbSweepTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MineLbSweepTest, MatchesBruteForceOnAllRuleGroups) {
  BinaryDataset ds = RandomDataset(8, 10, 0.5, GetParam());
  for (const RuleGroup& g : BruteForceAllRuleGroups(ds, 1)) {
    if (g.antecedent.size() > 12) continue;  // Keep the oracle tractable.
    LowerBoundResult lb = MineLowerBounds(ds, g.antecedent, g.rows);
    ASSERT_FALSE(lb.truncated);
    EXPECT_EQ(AsSet(lb.lower_bounds),
              AsSet(BruteForceLowerBounds(ds, g.antecedent, g.rows)))
        << "seed=" << GetParam()
        << " antecedent size=" << g.antecedent.size();
  }
}

INSTANTIATE_TEST_SUITE_P(RandomDatasets, MineLbSweepTest,
                         ::testing::Range<std::uint64_t>(1, 25));

// Denser sweep: larger antecedents stress the incremental update.
class MineLbDenseTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MineLbDenseTest, MatchesBruteForceOnDenseRows) {
  BinaryDataset ds = RandomDataset(7, 14, 0.8, GetParam());
  for (const RuleGroup& g : BruteForceAllRuleGroups(ds, 1)) {
    if (g.antecedent.size() > 14) continue;
    LowerBoundResult lb = MineLowerBounds(ds, g.antecedent, g.rows);
    ASSERT_FALSE(lb.truncated);
    EXPECT_EQ(AsSet(lb.lower_bounds),
              AsSet(BruteForceLowerBounds(ds, g.antecedent, g.rows)))
        << "seed=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(DenseDatasets, MineLbDenseTest,
                         ::testing::Range<std::uint64_t>(100, 110));

TEST(MineLbTest, LowerBoundsHaveSameSupportAsUpperBound) {
  BinaryDataset ds = RandomDataset(10, 12, 0.45, 5);
  for (const RuleGroup& g : BruteForceAllRuleGroups(ds, 1)) {
    LowerBoundResult lb = MineLowerBounds(ds, g.antecedent, g.rows);
    for (const ItemVector& bound : lb.lower_bounds) {
      EXPECT_EQ(RowSupportSet(ds, bound), g.rows);
    }
  }
}

TEST(MineLbTest, ValidatorAcceptsRealOutput) {
  for (std::uint64_t seed = 40; seed < 45; ++seed) {
    BinaryDataset ds = RandomDataset(10, 12, 0.45, seed);
    for (const RuleGroup& g : BruteForceAllRuleGroups(ds, 1)) {
      LowerBoundResult lb = MineLowerBounds(ds, g.antecedent, g.rows);
      ASSERT_FALSE(lb.truncated);
      Status s = ValidateLowerBounds(ds, g.antecedent, g.rows,
                                     lb.lower_bounds);
      EXPECT_TRUE(s.ok()) << s.ToString() << " seed=" << seed;
    }
  }
}

TEST(MineLbTest, ValidatorRejectsCorruptedBounds) {
  // Paper Example 7 setup (see PaperExampleSeven above).
  BinaryDataset ds = MakeDataset({
      {{0, 1, 2, 3, 4}, 1},
      {{0, 1, 2, 5}, 0},
      {{2, 3, 4, 6}, 0},
  });
  const ItemVector antecedent = {0, 1, 2, 3, 4};
  Bitset rows(3);
  rows.Set(0);
  LowerBoundResult lb = MineLowerBounds(ds, antecedent, rows);
  ASSERT_FALSE(lb.lower_bounds.empty());

  // Non-minimal: the full antecedent generates the rows but every proper
  // superset of a true bound is non-minimal.
  {
    auto corrupted = lb.lower_bounds;
    corrupted[0] = antecedent;
    EXPECT_FALSE(
        ValidateLowerBounds(ds, antecedent, rows, corrupted).ok());
  }
  // Non-generating: item 2 (c) appears in every row, so {c} supports all
  // three rows, not just row 0.
  {
    auto corrupted = lb.lower_bounds;
    corrupted[0] = ItemVector{2};
    EXPECT_FALSE(
        ValidateLowerBounds(ds, antecedent, rows, corrupted).ok());
  }
  // Not a subset of the antecedent.
  {
    auto corrupted = lb.lower_bounds;
    corrupted[0] = ItemVector{5};
    EXPECT_FALSE(
        ValidateLowerBounds(ds, antecedent, rows, corrupted).ok());
  }
  // Empty bound.
  {
    auto corrupted = lb.lower_bounds;
    corrupted[0] = ItemVector{};
    EXPECT_FALSE(
        ValidateLowerBounds(ds, antecedent, rows, corrupted).ok());
  }
}

// An already-expired deadline: waiting on ExpiredNow() first makes the
// test deterministic on any machine speed.
Deadline ExpiredDeadline() {
  Deadline d = Deadline::After(1e-9);
  while (!d.ExpiredNow()) {
  }
  return d;
}

TEST(MineLbTest, ExpiredDeadlineStopsAtNextCheckpoint) {
  // Paper Example 7 setup: two interfering rows force update steps, so
  // the per-step checkpoint must fire and flag the result.
  BinaryDataset ds = MakeDataset({
      {{0, 1, 2, 3, 4}, 1},
      {{0, 1, 2, 5}, 0},
      {{2, 3, 4, 6}, 0},
  });
  const ItemVector antecedent = {0, 1, 2, 3, 4};
  Bitset rows(3);
  rows.Set(0);
  const Deadline expired = ExpiredDeadline();
  LowerBoundResult lb = MineLowerBounds(ds, antecedent, rows, 0, &expired);
  EXPECT_TRUE(lb.timed_out);
  EXPECT_TRUE(lb.truncated);
  // Whatever survived is still an under-approximation: every bound is a
  // non-empty subset of the antecedent.
  for (const ItemVector& bound : lb.lower_bounds) {
    EXPECT_FALSE(bound.empty());
    EXPECT_TRUE(std::includes(antecedent.begin(), antecedent.end(),
                              bound.begin(), bound.end()));
  }
}

TEST(MineLbTest, NullAndLiveDeadlinesChangeNothing) {
  BinaryDataset ds = RandomDataset(16, 14, 0.4, 11);
  const Deadline generous = Deadline::After(3600.0);
  for (const RuleGroup& g : BruteForceAllRuleGroups(ds, 1)) {
    LowerBoundResult plain = MineLowerBounds(ds, g.antecedent, g.rows);
    LowerBoundResult timed =
        MineLowerBounds(ds, g.antecedent, g.rows, 0, &generous);
    EXPECT_FALSE(timed.timed_out);
    EXPECT_EQ(plain.lower_bounds, timed.lower_bounds);
  }
}

TEST(MineLbTest, MinerPropagatesMineLbTimeout) {
  // A deadline that expires during (not before) the search would be
  // machine-dependent; an expired one deterministically exercises the
  // propagation path: mining stops, MineLB never completes a group, and
  // the result is flagged partial.
  BinaryDataset ds = RandomDataset(30, 16, 0.45, 5);
  MinerOptions opts;
  opts.consequent = 1;
  opts.min_support = 1;
  opts.mine_lower_bounds = true;
  opts.deadline = ExpiredDeadline();
  FarmerResult r = MineFarmer(ds, opts);
  EXPECT_TRUE(r.stats.timed_out);
}

TEST(MineLbTest, FinalizeWithExpiredDeadlineFlagsEveryGroup) {
  // Segments mined without a deadline, finalized by a miner whose
  // deadline has already passed: MineLB stops before the first group,
  // and no group may pass for complete with its empty bound list.
  BinaryDataset ds = RandomDataset(30, 16, 0.45, 5);
  MinerOptions opts;
  opts.consequent = 1;
  opts.min_support = 1;
  opts.mine_lower_bounds = true;
  internal::FarmerMiner worker(ds, opts);
  const internal::FarmerMiner::FarmPlan& plan = worker.PlanFarm();
  ASSERT_FALSE(plan.root_pruned);
  std::vector<MineSegment> segments = plan.root_segments;
  MinerStats stats = plan.root_stats;
  for (const std::uint32_t row : plan.lease_rows) {
    MinerStats lease_stats;
    for (MineSegment& seg : worker.MineFarmLease(row, nullptr, &lease_stats)) {
      segments.push_back(std::move(seg));
    }
    stats.MergeFrom(lease_stats);
  }

  opts.deadline = ExpiredDeadline();
  internal::FarmerMiner coordinator(ds, opts);
  const FarmerResult r = coordinator.FinalizeFarm(std::move(segments), stats);
  EXPECT_TRUE(r.stats.timed_out);
  ASSERT_FALSE(r.groups.empty());
  for (const RuleGroup& g : r.groups) {
    EXPECT_TRUE(g.lower_bounds_truncated);
    EXPECT_TRUE(g.lower_bounds.empty());
  }
}

}  // namespace
}  // namespace farmer
