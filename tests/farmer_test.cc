#include "core/farmer.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/brute_force.h"
#include "core/measures.h"
#include "tests/test_util.h"

namespace farmer {
namespace {

using testing_util::MakeDataset;
using testing_util::PaperExampleDataset;
using testing_util::RandomDataset;

// Canonical comparable form of a mining result: row set -> (antecedent,
// supp, supn, conf).
struct GroupKey {
  std::vector<std::size_t> rows;
  ItemVector antecedent;
  std::size_t supp;
  std::size_t supn;

  bool operator<(const GroupKey& other) const {
    return std::tie(rows, antecedent, supp, supn) <
           std::tie(other.rows, other.antecedent, other.supp, other.supn);
  }
  bool operator==(const GroupKey& other) const {
    return rows == other.rows && antecedent == other.antecedent &&
           supp == other.supp && supn == other.supn;
  }
};

std::set<GroupKey> Canon(const std::vector<RuleGroup>& groups) {
  std::set<GroupKey> out;
  for (const RuleGroup& g : groups) {
    out.insert(GroupKey{g.rows.ToVector(), g.antecedent, g.support_pos,
                        g.support_neg});
  }
  return out;
}

TEST(FarmerTest, PaperRunningExampleUpperBounds) {
  // Figure 1/3 and Example 2: the rule group with upper bound
  // {a,e,h} -> C sits at rows {2,3,4} (1-based) with support 2 and
  // confidence 2/3, and its lower bounds are e and h.
  BinaryDataset ds = PaperExampleDataset();
  MinerOptions opts;
  opts.consequent = 1;
  opts.min_support = 1;
  opts.report_all_rule_groups = true;
  FarmerResult result = MineFarmer(ds, opts);
  ASSERT_FALSE(result.stats.timed_out);

  auto ch = [](char c) { return static_cast<ItemId>(c - 'a'); };
  const ItemVector aeh = {ch('a'), ch('e'), ch('h')};
  bool found = false;
  for (const RuleGroup& g : result.groups) {
    if (g.antecedent == aeh) {
      found = true;
      EXPECT_EQ(g.rows.ToVector(), (std::vector<std::size_t>{1, 2, 3}));
      EXPECT_EQ(g.support_pos, 2u);
      EXPECT_EQ(g.support_neg, 1u);
      EXPECT_NEAR(g.confidence, 2.0 / 3.0, 1e-12);
      // Its lower bounds are e and h (Example 2).
      EXPECT_EQ(testing_util::AsSet(g.lower_bounds),
                testing_util::AsSet({{ch('e')}, {ch('h')}}));
    }
  }
  EXPECT_TRUE(found) << "rule group aeh -> C not reported";

  // With the interestingness filter on, aeh -> C (conf 2/3) is dominated
  // by the more general group a -> C (conf 3/4) and must be dropped
  // (Definition 2.2), while a -> C itself is reported.
  MinerOptions irg_opts = opts;
  irg_opts.report_all_rule_groups = false;
  FarmerResult irgs = MineFarmer(ds, irg_opts);
  bool has_aeh = false, has_a = false;
  for (const RuleGroup& g : irgs.groups) {
    if (g.antecedent == aeh) has_aeh = true;
    if (g.antecedent == ItemVector{ch('a')}) {
      has_a = true;
      EXPECT_NEAR(g.confidence, 0.75, 1e-12);
    }
  }
  EXPECT_FALSE(has_aeh);
  EXPECT_TRUE(has_a);
}

// Self-verification mode: every word-parallel kernel call is cross-checked
// against the scalar references, the store is re-validated, antecedent
// closure and MineLB minimality are proven per group. A contract violation
// aborts the test binary, so a green run *is* the assertion; we also check
// the verified run reports exactly the same groups as the plain run.
TEST(FarmerTest, VerifyInvariantsModeMatchesPlainRun) {
  for (std::uint64_t seed = 11; seed <= 14; ++seed) {
    BinaryDataset ds = RandomDataset(12, 20, 0.35, seed);
    MinerOptions opts;
    opts.min_support = 2;
    opts.min_confidence = 0.5;
    FarmerResult plain = MineFarmer(ds, opts);
    opts.verify_invariants = true;
    FarmerResult verified = MineFarmer(ds, opts);
    EXPECT_EQ(Canon(plain.groups), Canon(verified.groups))
        << "seed=" << seed;
    EXPECT_EQ(plain.stats.nodes_visited, verified.stats.nodes_visited);
  }
}

TEST(FarmerTest, VerifyInvariantsCoversOptionVariants) {
  BinaryDataset ds = RandomDataset(12, 18, 0.4, 21);
  MinerOptions base;
  base.min_support = 2;
  base.verify_invariants = true;

  {
    MinerOptions opts = base;
    opts.report_all_rule_groups = true;
    MineFarmer(ds, opts);
  }
  {
    MinerOptions opts = base;
    opts.top_k = 5;
    MineFarmer(ds, opts);
  }
  {
    MinerOptions opts = base;
    opts.min_chi_square = 3.84;
    MineFarmer(ds, opts);
  }
  {
    MinerOptions opts = base;
    opts.mine_lower_bounds = false;
    MineFarmer(ds, opts);
  }
  {
    MinerOptions opts = base;
    opts.store_antecedents = false;
    MineFarmer(ds, opts);
  }
}

TEST(FarmerTest, PaperExampleMatchesBruteForce) {
  BinaryDataset ds = PaperExampleDataset();
  for (std::size_t minsup : {1u, 2u, 3u}) {
    for (double minconf : {0.0, 0.5, 0.9}) {
      MinerOptions opts;
      opts.consequent = 1;
      opts.min_support = minsup;
      opts.min_confidence = minconf;
      FarmerResult mined = MineFarmer(ds, opts);
      std::vector<RuleGroup> expected = BruteForceIRGs(ds, opts);
      EXPECT_EQ(Canon(mined.groups), Canon(expected))
          << "minsup=" << minsup << " minconf=" << minconf;
    }
  }
}

TEST(FarmerTest, EmptyAndDegenerateDatasets) {
  BinaryDataset empty(4);
  MinerOptions opts;
  EXPECT_TRUE(MineFarmer(empty, opts).groups.empty());

  // Single row: one rule group (the full row), confidence 1.
  BinaryDataset one = MakeDataset({{{0, 1, 2}, 1}});
  FarmerResult r = MineFarmer(one, opts);
  ASSERT_EQ(r.groups.size(), 1u);
  EXPECT_EQ(r.groups[0].antecedent, (ItemVector{0, 1, 2}));
  EXPECT_EQ(r.groups[0].support_pos, 1u);
  EXPECT_DOUBLE_EQ(r.groups[0].confidence, 1.0);

  // All rows the wrong class: nothing satisfies minsup >= 1.
  BinaryDataset wrong = MakeDataset({{{0, 1}, 0}, {{1, 2}, 0}});
  EXPECT_TRUE(MineFarmer(wrong, opts).groups.empty());

  // Rows with empty itemsets are tolerated.
  BinaryDataset with_empty = MakeDataset({{{}, 1}, {{0, 1}, 1}});
  FarmerResult r2 = MineFarmer(with_empty, opts);
  ASSERT_EQ(r2.groups.size(), 1u);
  EXPECT_EQ(r2.groups[0].antecedent, (ItemVector{0, 1}));
}

TEST(FarmerTest, RespectsDeadline) {
  BinaryDataset ds = RandomDataset(14, 40, 0.5, 99);
  MinerOptions opts;
  opts.deadline = Deadline::After(1e-9);  // Expires immediately.
  FarmerResult r = MineFarmer(ds, opts);
  EXPECT_TRUE(r.stats.timed_out);
}

TEST(FarmerTest, ChiSquareConstraintFiltersAndMatchesBruteForce) {
  BinaryDataset ds = RandomDataset(12, 16, 0.4, 4242);
  MinerOptions opts;
  opts.min_support = 2;
  opts.min_chi_square = 2.0;
  FarmerResult mined = MineFarmer(ds, opts);
  std::vector<RuleGroup> expected = BruteForceIRGs(ds, opts);
  EXPECT_EQ(Canon(mined.groups), Canon(expected));
  const std::size_t n = ds.num_rows();
  const std::size_t m = ds.CountLabel(1);
  for (const RuleGroup& g : mined.groups) {
    EXPECT_GE(g.chi_square, 2.0);
    EXPECT_NEAR(g.chi_square,
                ChiSquare(g.antecedent_support(), g.support_pos, n, m),
                1e-9);
  }
}

// Property sweep: FARMER == brute force on random datasets across
// constraint combinations.
struct SweepParam {
  std::uint64_t seed;
  std::size_t rows;
  std::size_t items;
  double density;
  std::size_t minsup;
  double minconf;
  double minchi;
};

class FarmerSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(FarmerSweepTest, MatchesBruteForceOracle) {
  const SweepParam p = GetParam();
  BinaryDataset ds = RandomDataset(p.rows, p.items, p.density, p.seed);
  MinerOptions opts;
  opts.consequent = 1;
  opts.min_support = p.minsup;
  opts.min_confidence = p.minconf;
  opts.min_chi_square = p.minchi;
  FarmerResult mined = MineFarmer(ds, opts);
  ASSERT_FALSE(mined.stats.timed_out);
  std::vector<RuleGroup> expected = BruteForceIRGs(ds, opts);
  EXPECT_EQ(Canon(mined.groups), Canon(expected))
      << "seed=" << p.seed << " rows=" << p.rows << " items=" << p.items
      << " density=" << p.density << " minsup=" << p.minsup
      << " minconf=" << p.minconf << " minchi=" << p.minchi;
}

std::vector<SweepParam> MakeSweep() {
  std::vector<SweepParam> params;
  std::uint64_t seed = 1;
  for (std::size_t rows : {5u, 9u, 12u, 14u}) {
    for (double density : {0.15, 0.25, 0.5, 0.75, 0.9}) {
      for (std::size_t minsup : {1u, 2u, 3u}) {
        for (double minconf : {0.0, 0.6}) {
          for (double minchi : {0.0, 1.5}) {
            params.push_back(
                SweepParam{seed++, rows, rows + 6, density, minsup, minconf,
                           minchi});
          }
        }
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(RandomDatasets, FarmerSweepTest,
                         ::testing::ValuesIn(MakeSweep()));

// The ablation toggles must not change the mined result, only the work.
struct AblationParam {
  bool p1, p2, p3;
};
class FarmerAblationTest : public ::testing::TestWithParam<AblationParam> {};

TEST_P(FarmerAblationTest, PruningTogglesPreserveResults) {
  const AblationParam p = GetParam();
  for (std::uint64_t seed : {11u, 22u, 33u}) {
    BinaryDataset ds = RandomDataset(10, 14, 0.45, seed);
    MinerOptions base;
    base.min_support = 2;
    base.min_confidence = 0.5;
    FarmerResult reference = MineFarmer(ds, base);

    MinerOptions toggled = base;
    toggled.enable_pruning1 = p.p1;
    toggled.enable_pruning2 = p.p2;
    toggled.enable_pruning3 = p.p3;
    FarmerResult ablated = MineFarmer(ds, toggled);
    EXPECT_EQ(Canon(reference.groups), Canon(ablated.groups))
        << "p1=" << p.p1 << " p2=" << p.p2 << " p3=" << p.p3
        << " seed=" << seed;
    if (!p.p1 || !p.p2 || !p.p3) {
      EXPECT_GE(ablated.stats.nodes_visited,
                reference.stats.nodes_visited);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Toggles, FarmerAblationTest,
    ::testing::Values(AblationParam{false, true, true},
                      AblationParam{true, false, true},
                      AblationParam{true, true, false},
                      AblationParam{false, false, true},
                      AblationParam{false, false, false}));

TEST(FarmerTest, TopKReturnsBestByConfidenceThenSupport) {
  BinaryDataset ds = RandomDataset(12, 14, 0.5, 7);
  MinerOptions full;
  full.min_support = 1;
  FarmerResult all = MineFarmer(ds, full);

  MinerOptions topk = full;
  topk.top_k = 5;
  FarmerResult top = MineFarmer(ds, topk);
  ASSERT_LE(top.groups.size(), 5u);
  if (all.groups.size() >= 5) {
    ASSERT_EQ(top.groups.size(), 5u);
  }

  // The multiset of (confidence, support) pairs must match the best-k of
  // the full run.
  std::vector<std::pair<double, std::size_t>> expected;
  for (const RuleGroup& g : all.groups) {
    expected.emplace_back(g.confidence, g.support_pos);
  }
  std::sort(expected.begin(), expected.end(),
            [](const auto& a, const auto& b) { return a > b; });
  expected.resize(std::min<std::size_t>(5, expected.size()));
  std::vector<std::pair<double, std::size_t>> got;
  for (const RuleGroup& g : top.groups) {
    got.emplace_back(g.confidence, g.support_pos);
  }
  std::sort(got.begin(), got.end(),
            [](const auto& a, const auto& b) { return a > b; });
  EXPECT_EQ(got, expected);
}

TEST(FarmerTest, ReportAllRuleGroupsMatchesBruteForceGroups) {
  BinaryDataset ds = RandomDataset(10, 12, 0.5, 13);
  MinerOptions opts;
  opts.min_support = 1;
  opts.report_all_rule_groups = true;
  FarmerResult mined = MineFarmer(ds, opts);

  std::vector<RuleGroup> all = BruteForceAllRuleGroups(ds, 1);
  std::vector<RuleGroup> expected;
  for (RuleGroup& g : all) {
    if (g.support_pos >= 1) expected.push_back(std::move(g));
  }
  EXPECT_EQ(Canon(mined.groups), Canon(expected));
}

TEST(FarmerTest, StoreAntecedentsOffStillMinesLowerBounds) {
  BinaryDataset ds = PaperExampleDataset();
  MinerOptions opts;
  opts.store_antecedents = false;
  opts.mine_lower_bounds = true;
  FarmerResult r = MineFarmer(ds, opts);
  ASSERT_FALSE(r.groups.empty());
  for (const RuleGroup& g : r.groups) {
    EXPECT_TRUE(g.antecedent.empty());
    EXPECT_FALSE(g.lower_bounds.empty());
  }
}

TEST(FarmerTest, ExtensionMeasureConstraintsMatchBruteForce) {
  BinaryDataset ds = RandomDataset(11, 13, 0.5, 77);
  MinerOptions opts;
  opts.min_support = 1;
  opts.min_lift = 1.2;
  opts.min_conviction = 1.1;
  opts.min_entropy_gain = 0.05;
  FarmerResult mined = MineFarmer(ds, opts);
  std::vector<RuleGroup> expected = BruteForceIRGs(ds, opts);
  EXPECT_EQ(Canon(mined.groups), Canon(expected));
}

TEST(FarmerTest, GiniAndCorrelationConstraintsMatchBruteForce) {
  for (std::uint64_t seed : {78u, 79u, 80u}) {
    BinaryDataset ds = RandomDataset(11, 13, 0.5, seed);
    MinerOptions opts;
    opts.min_support = 1;
    opts.min_gini_gain = 0.05;
    opts.min_correlation = 0.3;
    FarmerResult mined = MineFarmer(ds, opts);
    std::vector<RuleGroup> expected = BruteForceIRGs(ds, opts);
    EXPECT_EQ(Canon(mined.groups), Canon(expected)) << "seed=" << seed;
  }
}

TEST(FarmerTest, MinedGroupsAreClosedAndSupportsExact) {
  BinaryDataset ds = RandomDataset(13, 18, 0.4, 1234);
  MinerOptions opts;
  opts.min_support = 1;
  FarmerResult mined = MineFarmer(ds, opts);
  for (const RuleGroup& g : mined.groups) {
    const Bitset support = RowSupportSet(ds, g.antecedent);
    EXPECT_EQ(support, g.rows) << "row support set mismatch";
    std::size_t supp = 0, supn = 0;
    support.ForEach([&](std::size_t r) {
      if (ds.label(static_cast<RowId>(r)) == 1) {
        ++supp;
      } else {
        ++supn;
      }
    });
    EXPECT_EQ(supp, g.support_pos);
    EXPECT_EQ(supn, g.support_neg);
  }
}

// ---- Occurrence delivery: edge shapes and counter identity ------------

// Exactly `positives` rows, spread by a shuffle, carry the consequent 1.
// Each row copies one of kPrototypes random itemsets, flipping each item
// with probability 0.01; positive rows favour the first half of the
// prototypes. Near-duplicate rows keep the tree small enough for the
// exact modes at three words of rows.
struct DeliveryShape {
  std::size_t rows;
  std::size_t positives;
  std::size_t min_support;
};
constexpr std::size_t kDeliveryItems = 12;
constexpr std::size_t kPrototypes = 12;

BinaryDataset DeliveryDataset(const DeliveryShape& shape) {
  Rng rng(shape.rows * 1000 + shape.positives);
  std::vector<ClassLabel> labels(shape.rows, 0);
  std::fill_n(labels.begin(), shape.positives, ClassLabel{1});
  for (std::size_t i = shape.rows; i > 1; --i) {
    std::swap(labels[i - 1], labels[rng.NextBelow(i)]);
  }
  std::vector<std::vector<bool>> prototypes(kPrototypes);
  for (auto& proto : prototypes) {
    for (std::size_t i = 0; i < kDeliveryItems; ++i) {
      proto.push_back(rng.NextBool(0.5));
    }
  }
  BinaryDataset ds(kDeliveryItems);
  for (std::size_t r = 0; r < shape.rows; ++r) {
    const std::size_t p = labels[r] == 1 && rng.NextBool(0.7)
                              ? rng.NextBelow(kPrototypes / 2)
                              : rng.NextBelow(kPrototypes);
    ItemVector row;
    for (ItemId i = 0; i < kDeliveryItems; ++i) {
      if (prototypes[p][i] != rng.NextBool(0.01)) row.push_back(i);
    }
    ds.AddRow(std::move(row), labels[r]);
  }
  return ds;
}

enum class DeliveryVariant {
  kDefault,
  kNoPruning1,
  kNoPruning2,
  kNoPruning3,
  kTopK,  // Sequential, so the confidence floor is dynamic.
  kChiSquare,
};

MinerOptions DeliveryOptions(const DeliveryShape& shape, DeliveryVariant v) {
  MinerOptions opts;
  opts.min_support = shape.min_support;
  opts.min_confidence = 0.6;
  opts.mine_lower_bounds = false;
  opts.verify_invariants = true;
  switch (v) {
    case DeliveryVariant::kDefault:
      break;
    case DeliveryVariant::kNoPruning1:
      opts.enable_pruning1 = false;
      break;
    case DeliveryVariant::kNoPruning2:
      opts.enable_pruning2 = false;
      break;
    case DeliveryVariant::kNoPruning3:
      opts.enable_pruning3 = false;
      break;
    case DeliveryVariant::kTopK:
      opts.top_k = 10;
      break;
    case DeliveryVariant::kChiSquare:
      opts.min_chi_square = 2.0;
      break;
  }
  return opts;
}

// nodes_visited, pruned_by_{backscan,support,confidence,chi,extension}
// and rows_absorbed, as the miner counted them before occurrence
// delivery.
struct PinnedStats {
  std::size_t nodes, backscan, support, confidence, chi, extension, absorbed;
};

struct DeliveryCase {
  DeliveryShape shape;
  DeliveryVariant variant;
  PinnedStats stats;
};

// Row sets of one, two and three words; m = n at one word, m = 64 (a word
// boundary) at two and three.
using V = DeliveryVariant;
constexpr DeliveryCase kDeliveryCases[] = {
    {{40, 17, 3}, V::kDefault, {961, 879, 16, 20, 0, 0, 180}},
    {{40, 17, 3}, V::kNoPruning1, {5289, 4886, 20, 43, 0, 0, 0}},
    {{40, 17, 3}, V::kNoPruning2, {10513, 0, 626, 7107, 0, 0, 11160}},
    {{40, 17, 3}, V::kNoPruning3, {1483, 1361, 0, 0, 0, 0, 264}},
    {{40, 17, 3}, V::kTopK, {930, 851, 16, 20, 0, 0, 180}},
    {{40, 17, 3}, V::kChiSquare, {961, 879, 16, 20, 0, 0, 180}},
    {{40, 40, 3}, V::kDefault, {1004, 900, 0, 0, 0, 0, 219}},
    {{40, 40, 3}, V::kNoPruning1, {9068, 8320, 0, 0, 0, 0, 0}},
    {{40, 40, 3}, V::kNoPruning2, {48166, 0, 11, 0, 0, 0, 75599}},
    {{40, 40, 3}, V::kNoPruning3, {1004, 900, 0, 0, 0, 0, 219}},
    {{40, 40, 3}, V::kTopK, {1004, 900, 0, 0, 0, 0, 219}},
    {{40, 40, 3}, V::kChiSquare, {1, 0, 0, 0, 1, 0, 0}},
    {{100, 64, 4}, V::kDefault, {3737, 3630, 5, 10, 0, 0, 523}},
    {{100, 64, 4}, V::kNoPruning1, {47430, 45828, 11, 32, 0, 0, 0}},
    {{100, 64, 4}, V::kNoPruning2, {355261, 0, 2819, 272943, 0, 0, 580483}},
    {{100, 64, 4}, V::kNoPruning3, {3981, 3874, 0, 0, 0, 0, 535}},
    {{100, 64, 4}, V::kTopK, {3618, 3511, 5, 22, 0, 0, 511}},
    {{100, 64, 4}, V::kChiSquare, {3737, 3630, 5, 10, 0, 0, 523}},
    {{150, 64, 5}, V::kDefault, {7100, 6936, 20, 70, 0, 0, 1000}},
    {{150, 64, 5}, V::kNoPruning1, {171363, 168733, 25, 117, 0, 0, 0}},
    {{150, 64, 5}, V::kNoPruning2, {354819, 0, 13523, 330514, 0, 0, 285062}},
    {{150, 64, 5}, V::kNoPruning3, {12011, 11810, 0, 0, 0, 0, 1240}},
    {{150, 64, 5}, V::kTopK, {7100, 6936, 20, 70, 0, 0, 1000}},
    {{150, 64, 5}, V::kChiSquare, {7100, 6936, 20, 70, 0, 0, 1000}},
};

TEST(FarmerTest, DeliveryEdgeShapesMatchOracleAndPinnedCounters) {
  for (const DeliveryCase& c : kDeliveryCases) {
    SCOPED_TRACE("rows=" + std::to_string(c.shape.rows) +
                 " m=" + std::to_string(c.shape.positives) + " variant=" +
                 std::to_string(static_cast<int>(c.variant)));
    const BinaryDataset ds = DeliveryDataset(c.shape);
    const MinerOptions opts = DeliveryOptions(c.shape, c.variant);
    const FarmerResult mined = MineFarmer(ds, opts);
    ASSERT_FALSE(mined.stats.timed_out);
    const MinerStats& st = mined.stats;
    EXPECT_EQ(st.nodes_visited, c.stats.nodes);
    EXPECT_EQ(st.pruned_by_backscan, c.stats.backscan);
    EXPECT_EQ(st.pruned_by_support, c.stats.support);
    EXPECT_EQ(st.pruned_by_confidence, c.stats.confidence);
    EXPECT_EQ(st.pruned_by_chi, c.stats.chi);
    EXPECT_EQ(st.pruned_by_extension, c.stats.extension);
    EXPECT_EQ(st.rows_absorbed, c.stats.absorbed);

    std::vector<RuleGroup> expected = BruteForceIRGs(ds, opts);
    if (c.variant != DeliveryVariant::kTopK) {
      EXPECT_EQ(Canon(mined.groups), Canon(expected));
      continue;
    }
    // Top-k: the (confidence, support) pairs of the oracle's best k.
    const auto best_first = [](const auto& a, const auto& b) { return a > b; };
    std::vector<std::pair<double, std::size_t>> want, got;
    for (const RuleGroup& g : expected) {
      want.emplace_back(g.confidence, g.support_pos);
    }
    std::sort(want.begin(), want.end(), best_first);
    want.resize(std::min(want.size(), opts.top_k));
    for (const RuleGroup& g : mined.groups) {
      got.emplace_back(g.confidence, g.support_pos);
    }
    std::sort(got.begin(), got.end(), best_first);
    EXPECT_EQ(got, want);
  }
}

}  // namespace
}  // namespace farmer
