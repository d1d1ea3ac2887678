#include "serve/index.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/farmer.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace farmer {
namespace serve {
namespace {

using testing_util::RandomDataset;

struct Fixture {
  BinaryDataset dataset;
  RuleGroupIndex index;
};

Fixture MakeFixture(std::uint64_t seed) {
  BinaryDataset ds = RandomDataset(16, 18, 0.45, seed);
  MinerOptions opts;
  opts.min_support = 2;
  FarmerResult mined = MineFarmer(ds, opts);
  RuleGroupSnapshot snapshot;
  snapshot.groups = std::move(mined.groups);
  snapshot.num_rows = ds.num_rows();
  snapshot.params = SnapshotParams::FromMinerOptions(opts);
  snapshot.fingerprint = SnapshotFingerprint::FromDataset(ds);
  return Fixture{std::move(ds), RuleGroupIndex(std::move(snapshot))};
}

// The index's canonical answer order: descending (confidence,
// support_pos), ties by ascending group index (stable sort over 0..n-1).
std::vector<std::uint32_t> SortByConfidence(
    std::vector<std::uint32_t> ids, const std::vector<RuleGroup>& groups) {
  std::stable_sort(ids.begin(), ids.end(),
                   [&groups](std::uint32_t a, std::uint32_t b) {
                     if (groups[a].confidence != groups[b].confidence) {
                       return groups[a].confidence > groups[b].confidence;
                     }
                     if (groups[a].support_pos != groups[b].support_pos) {
                       return groups[a].support_pos > groups[b].support_pos;
                     }
                     return a < b;
                   });
  return ids;
}

std::vector<std::uint32_t> AllIds(const RuleGroupIndex& index) {
  std::vector<std::uint32_t> ids(index.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<std::uint32_t>(i);
  }
  return ids;
}

bool Contains(const ItemVector& super, const ItemVector& sub) {
  return std::includes(super.begin(), super.end(), sub.begin(), sub.end());
}

// The classifier's match rule: any lower bound covers the sample, or the
// antecedent does when the group has no lower bounds.
bool Matches(const RuleGroup& g, const ItemVector& row) {
  if (g.lower_bounds.empty()) return Contains(row, g.antecedent);
  for (const ItemVector& lb : g.lower_bounds) {
    if (Contains(row, lb)) return true;
  }
  return false;
}

TEST(RuleGroupIndexTest, TopKMatchesBruteForce) {
  const Fixture f = MakeFixture(3);
  const auto& groups = f.index.snapshot().groups;
  ASSERT_GT(f.index.size(), 5u);

  const auto expected = SortByConfidence(AllIds(f.index), groups);
  for (std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                        f.index.size(), f.index.size() + 10}) {
    const auto got = f.index.TopKByConfidence(k);
    const std::size_t want = std::min(k, f.index.size());
    ASSERT_EQ(got.size(), want) << "k=" << k;
    for (std::size_t i = 0; i < want; ++i) {
      EXPECT_EQ(got[i], expected[i]) << "k=" << k << " i=" << i;
    }
  }

  auto by_chi = AllIds(f.index);
  std::stable_sort(by_chi.begin(), by_chi.end(),
                   [&groups](std::uint32_t a, std::uint32_t b) {
                     if (groups[a].chi_square != groups[b].chi_square) {
                       return groups[a].chi_square > groups[b].chi_square;
                     }
                     return groups[a].support_pos > groups[b].support_pos;
                   });
  const auto got_chi = f.index.TopKByChiSquare(4);
  ASSERT_EQ(got_chi.size(), 4u);
  for (std::size_t i = 0; i < got_chi.size(); ++i) {
    EXPECT_EQ(groups[got_chi[i]].chi_square, groups[by_chi[i]].chi_square);
  }
}

TEST(RuleGroupIndexTest, AntecedentContainsMatchesBruteForce) {
  const Fixture f = MakeFixture(8);
  const auto& groups = f.index.snapshot().groups;
  Rng rng(17);
  const auto num_items =
      static_cast<ItemId>(f.index.snapshot().fingerprint.num_items);
  for (int probe = 0; probe < 50; ++probe) {
    ItemVector items;
    const int len = 1 + static_cast<int>(rng.NextU64() % 3);
    for (int j = 0; j < len; ++j) {
      items.push_back(static_cast<ItemId>(rng.NextU64() % num_items));
    }
    std::sort(items.begin(), items.end());
    items.erase(std::unique(items.begin(), items.end()), items.end());

    std::vector<std::uint32_t> expected;
    for (std::uint32_t g = 0; g < f.index.size(); ++g) {
      if (Contains(groups[g].antecedent, items)) expected.push_back(g);
    }
    expected = SortByConfidence(std::move(expected), groups);
    const auto got = f.index.AntecedentContains(items, 1000);
    EXPECT_EQ(got, expected) << "probe " << probe;
  }
  // Out-of-universe items can never match.
  EXPECT_TRUE(f.index.AntecedentContains({num_items}, 10).empty());
  // The empty probe matches everything.
  EXPECT_EQ(f.index.AntecedentContains({}, 1000).size(), f.index.size());
}

TEST(RuleGroupIndexTest, RowCoverMatchesClassifierRule) {
  const Fixture f = MakeFixture(12);
  const auto& groups = f.index.snapshot().groups;
  // Probe with the dataset's own rows plus synthetic ones.
  for (RowId r = 0; r < f.dataset.num_rows(); ++r) {
    const ItemVector& row = f.dataset.row(r);
    std::vector<std::uint32_t> expected;
    for (std::uint32_t g = 0; g < f.index.size(); ++g) {
      if (Matches(groups[g], row)) expected.push_back(g);
    }
    expected = SortByConfidence(std::move(expected), groups);
    EXPECT_EQ(f.index.RowCover(row, 100000), expected) << "row " << r;
  }
  // The empty sample matches only groups whose match sets are all empty.
  for (std::uint32_t g : f.index.RowCover({}, 100)) {
    EXPECT_TRUE(Matches(f.index.group(g), {}));
  }
}

TEST(RuleGroupIndexTest, FilterMatchesBruteForce) {
  const Fixture f = MakeFixture(23);
  const auto& groups = f.index.snapshot().groups;
  for (double minconf : {0.0, 0.4, 0.8, 1.0, 1.1}) {
    for (std::size_t minsup : {std::size_t{0}, std::size_t{2},
                               std::size_t{4}, std::size_t{100}}) {
      std::vector<std::uint32_t> expected;
      for (std::uint32_t g = 0; g < f.index.size(); ++g) {
        if (groups[g].confidence >= minconf &&
            groups[g].support_pos >= minsup) {
          expected.push_back(g);
        }
      }
      expected = SortByConfidence(std::move(expected), groups);
      EXPECT_EQ(f.index.Filter(minsup, minconf, 100000), expected)
          << "minconf=" << minconf << " minsup=" << minsup;
    }
  }
}

TEST(RuleGroupIndexTest, LimitsAreRespected) {
  const Fixture f = MakeFixture(5);
  ASSERT_GT(f.index.size(), 3u);
  EXPECT_EQ(f.index.Filter(0, 0.0, 2).size(), 2u);
  EXPECT_EQ(f.index.AntecedentContains({}, 3).size(), 3u);
  const ItemVector& row = f.dataset.row(0);
  EXPECT_LE(f.index.RowCover(row, 1).size(), 1u);
}

TEST(RuleGroupIndexTest, BankedPostingsAnswerIdenticallyForAnyBankCount) {
  // The server passes its shard count as the posting bank count; the
  // banking is purely a memory layout and must never change answers.
  BinaryDataset ds = RandomDataset(16, 18, 0.45, 29);
  MinerOptions opts;
  opts.min_support = 2;
  FarmerResult mined = MineFarmer(ds, opts);
  RuleGroupSnapshot snapshot;
  snapshot.groups = std::move(mined.groups);
  snapshot.num_rows = ds.num_rows();
  snapshot.params = SnapshotParams::FromMinerOptions(opts);
  snapshot.fingerprint = SnapshotFingerprint::FromDataset(ds);

  const RuleGroupIndex reference(RuleGroupSnapshot(snapshot), 1);
  ASSERT_GT(reference.size(), 3u);
  for (std::size_t banks : {std::size_t{0}, std::size_t{2}, std::size_t{3},
                            std::size_t{7}, std::size_t{64}}) {
    const RuleGroupIndex banked(RuleGroupSnapshot(snapshot), banks);
    EXPECT_EQ(banked.num_banks(), banks == 0 ? 1u : banks);
    EXPECT_EQ(banked.TopKByConfidence(5), reference.TopKByConfidence(5));
    Rng rng(7);
    const auto num_items =
        static_cast<ItemId>(snapshot.fingerprint.num_items);
    for (int probe = 0; probe < 20; ++probe) {
      ItemVector items;
      const int len = 1 + static_cast<int>(rng.NextU64() % 3);
      for (int j = 0; j < len; ++j) {
        items.push_back(static_cast<ItemId>(rng.NextU64() % num_items));
      }
      std::sort(items.begin(), items.end());
      items.erase(std::unique(items.begin(), items.end()), items.end());
      EXPECT_EQ(banked.AntecedentContains(items, 1000),
                reference.AntecedentContains(items, 1000))
          << "banks=" << banks << " probe=" << probe;
      EXPECT_EQ(banked.RowCover(items, 1000),
                reference.RowCover(items, 1000))
          << "banks=" << banks << " probe=" << probe;
    }
    for (RowId r = 0; r < ds.num_rows(); ++r) {
      EXPECT_EQ(banked.RowCover(ds.row(r), 100000),
                reference.RowCover(ds.row(r), 100000))
          << "banks=" << banks << " row=" << r;
    }
  }
}

TEST(RuleGroupIndexTest, EmptyStoreAnswersEverythingEmpty) {
  RuleGroupSnapshot snapshot;
  snapshot.num_rows = 4;
  snapshot.fingerprint.num_items = 8;
  RuleGroupIndex index(std::move(snapshot));
  EXPECT_TRUE(index.TopKByConfidence(5).empty());
  EXPECT_TRUE(index.TopKByChiSquare(5).empty());
  EXPECT_TRUE(index.AntecedentContains({1}, 5).empty());
  EXPECT_TRUE(index.RowCover({1, 2}, 5).empty());
  EXPECT_TRUE(index.Filter(0, 0.0, 5).empty());
}

// ---------------------------------------------------------------------
// Oracles: RowCover and AntecedentContains against a brute-force scan
// of every group in TopKByConfidence order, on random stores.

// The match rule and the containment rule by brute force, best first.
std::vector<std::uint32_t> CoverOracle(const RuleGroupIndex& index,
                                       const ItemVector& row,
                                       std::size_t limit) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t g : index.TopKByConfidence(index.size())) {
    if (out.size() >= limit) break;
    if (Matches(index.group(g), row)) out.push_back(g);
  }
  return out;
}

std::vector<std::uint32_t> ContainsOracle(const RuleGroupIndex& index,
                                          const ItemVector& items,
                                          std::size_t limit) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t g : index.TopKByConfidence(index.size())) {
    if (out.size() >= limit) break;
    if (Contains(index.group(g).antecedent, items)) out.push_back(g);
  }
  return out;
}

// A mined store, optionally without lower bounds, plus two hand-made
// groups that tie on confidence with a mined one: one with an empty
// antecedent and no lower bounds, one whose lower bounds include the
// empty set. Both match every sample.
RuleGroupSnapshot OracleSnapshot(const BinaryDataset& ds,
                                 bool lower_bounds) {
  MinerOptions opts;
  opts.min_support = 2;
  opts.mine_lower_bounds = lower_bounds;
  FarmerResult mined = MineFarmer(ds, opts);
  RuleGroupSnapshot snapshot;
  snapshot.groups = std::move(mined.groups);
  snapshot.num_rows = ds.num_rows();
  snapshot.params = SnapshotParams::FromMinerOptions(opts);
  snapshot.fingerprint = SnapshotFingerprint::FromDataset(ds);
  if (!snapshot.groups.empty()) {
    RuleGroup empty_antecedent = snapshot.groups.front();
    empty_antecedent.antecedent.clear();
    empty_antecedent.lower_bounds.clear();
    snapshot.groups.push_back(empty_antecedent);
    RuleGroup empty_bound = snapshot.groups.front();
    empty_bound.lower_bounds = {ItemVector{0, 1}, ItemVector{}};
    snapshot.groups.push_back(empty_bound);
  }
  return snapshot;
}

// Samples: every row, every row with items swapped for random ones,
// random probes of 0-2 items, and items past the universe.
std::vector<ItemVector> OracleSamples(const BinaryDataset& ds, Rng& rng) {
  const auto num_items = static_cast<ItemId>(ds.num_items());
  std::vector<ItemVector> samples = {{}, {num_items}, {0, num_items + 5}};
  for (RowId r = 0; r < ds.num_rows(); ++r) {
    samples.push_back(ds.row(r));
    ItemVector swapped = ds.row(r);
    for (int k = 0; k < 2 && !swapped.empty(); ++k) {
      swapped[rng.NextBelow(swapped.size())] =
          static_cast<ItemId>(rng.NextBelow(num_items));
    }
    std::sort(swapped.begin(), swapped.end());
    swapped.erase(std::unique(swapped.begin(), swapped.end()),
                  swapped.end());
    samples.push_back(std::move(swapped));
  }
  for (int probe = 0; probe < 20; ++probe) {
    ItemVector items;
    for (std::uint64_t j = rng.NextBelow(3); j > 0; --j) {
      items.push_back(static_cast<ItemId>(rng.NextBelow(num_items)));
    }
    std::sort(items.begin(), items.end());
    items.erase(std::unique(items.begin(), items.end()), items.end());
    samples.push_back(std::move(items));
  }
  return samples;
}

constexpr std::size_t kOracleLimits[] = {0, 1, 7, 100000};

TEST(RuleGroupIndexTest, CoverAndContainsMatchBruteForceOracle) {
  Rng rng(11);
  std::size_t nonempty_covers = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const BinaryDataset ds = RandomDataset(
        12 + seed % 7, 14 + seed % 9, 0.35 + 0.01 * static_cast<double>(seed),
        seed);
    for (const bool lower_bounds : {true, false}) {
      const RuleGroupSnapshot snapshot = OracleSnapshot(ds, lower_bounds);
      const std::vector<ItemVector> samples = OracleSamples(ds, rng);
      for (const std::size_t banks : {std::size_t{1}, std::size_t{3}}) {
        const RuleGroupIndex index(RuleGroupSnapshot(snapshot), banks);
        for (std::size_t s = 0; s < samples.size(); ++s) {
          for (const std::size_t limit : kOracleLimits) {
            SCOPED_TRACE("seed=" + std::to_string(seed) +
                         " lower_bounds=" + std::to_string(lower_bounds) +
                         " banks=" + std::to_string(banks) +
                         " sample=" + std::to_string(s) +
                         " limit=" + std::to_string(limit));
            const std::vector<std::uint32_t> cover =
                index.RowCover(samples[s], limit);
            ASSERT_EQ(cover, CoverOracle(index, samples[s], limit));
            ASSERT_EQ(index.AntecedentContains(samples[s], limit),
                      ContainsOracle(index, samples[s], limit));
            nonempty_covers += cover.size() > 2 ? 1 : 0;
          }
        }
      }
    }
  }
  // The two always-matching groups alone give two; make sure real
  // matches were exercised too.
  EXPECT_GT(nonempty_covers, 100u);
}

TEST(RuleGroupIndexTest, ConcurrentQueriesMatchSingleThreadAnswers) {
  // Server shards query one index at once; RowCover's per-thread
  // scratch must keep their answers apart.
  const BinaryDataset ds = RandomDataset(18, 20, 0.45, 5);
  const RuleGroupIndex index(OracleSnapshot(ds, true), 3);
  Rng rng(3);
  const std::vector<ItemVector> samples = OracleSamples(ds, rng);
  std::vector<std::vector<std::uint32_t>> covers;
  std::vector<std::vector<std::uint32_t>> contains;
  for (const ItemVector& sample : samples) {
    covers.push_back(index.RowCover(sample, 100000));
    contains.push_back(index.AntecedentContains(sample, 100000));
  }
  constexpr int kThreads = 4;
  constexpr int kRounds = 200;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        // Each thread walks the samples from its own offset, so
        // different samples are in flight at once.
        for (std::size_t k = 0; k < samples.size(); ++k) {
          const std::size_t s = (k + static_cast<std::size_t>(t) * 7) %
                                samples.size();
          if (index.RowCover(samples[s], 100000) != covers[s]) ++mismatches;
          if (index.AntecedentContains(samples[s], 100000) != contains[s]) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace serve
}  // namespace farmer
