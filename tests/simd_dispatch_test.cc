#include "util/simd/simd.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/farmer.h"
#include "tests/test_util.h"
#include "util/bitset.h"
#include "util/bitset_ref.h"
#include "util/rng.h"

namespace farmer {
namespace {

// Every test that forces a level restores the prior selection, so test
// order never leaks through the process-global dispatcher state.
class SimdDispatchTest : public ::testing::Test {
 protected:
  void SetUp() override { prior_ = simd::ActiveLevel(); }
  void TearDown() override { ASSERT_TRUE(simd::ForceLevel(prior_)); }

  static std::vector<simd::Level> SupportedLevels() {
    std::vector<simd::Level> levels;
    for (int l = 0; l < simd::kNumLevels; ++l) {
      const auto level = static_cast<simd::Level>(l);
      if (simd::LevelSupported(level)) levels.push_back(level);
    }
    return levels;
  }

 private:
  simd::Level prior_;
};

TEST_F(SimdDispatchTest, LevelNamesRoundTrip) {
  for (int l = 0; l < simd::kNumLevels; ++l) {
    const auto level = static_cast<simd::Level>(l);
    simd::Level parsed;
    ASSERT_TRUE(simd::ParseLevel(simd::LevelName(level), &parsed))
        << simd::LevelName(level);
    EXPECT_EQ(parsed, level);
  }
  simd::Level parsed;
  EXPECT_FALSE(simd::ParseLevel("auto", &parsed));
  EXPECT_FALSE(simd::ParseLevel("", &parsed));
  EXPECT_FALSE(simd::ParseLevel("avx1024", &parsed));
  EXPECT_FALSE(simd::Configure("avx1024"));
}

TEST_F(SimdDispatchTest, ScalarAlwaysUsableAndBestLevelIsWidest) {
  EXPECT_TRUE(simd::LevelCompiled(simd::Level::kScalar));
  EXPECT_TRUE(simd::LevelSupported(simd::Level::kScalar));
  const simd::Level best = simd::DetectBestLevel();
  EXPECT_TRUE(simd::LevelSupported(best));
  for (int l = 0; l < simd::kNumLevels; ++l) {
    const auto level = static_cast<simd::Level>(l);
    if (static_cast<int>(level) > static_cast<int>(best)) {
      EXPECT_FALSE(simd::LevelSupported(level)) << simd::LevelName(level);
    }
  }
}

TEST_F(SimdDispatchTest, ForcingEveryUsableLevelSticks) {
  for (simd::Level level : SupportedLevels()) {
    ASSERT_TRUE(simd::ForceLevel(level)) << simd::LevelName(level);
    EXPECT_EQ(simd::ActiveLevel(), level);
    EXPECT_STREQ(simd::Active().name, simd::LevelName(level));
  }
}

TEST_F(SimdDispatchTest, ConfigureAutoRestoresDetectedBest) {
  ASSERT_TRUE(simd::Configure("scalar"));
  EXPECT_EQ(simd::ActiveLevel(), simd::Level::kScalar);
  ASSERT_TRUE(simd::Configure("auto"));
  EXPECT_EQ(simd::ActiveLevel(), simd::DetectBestLevel());
}

TEST_F(SimdDispatchTest, WordStorageIs64ByteAligned) {
  for (std::size_t bits : {1u, 64u, 65u, 511u, 513u, 8192u, 100000u}) {
    Bitset b(bits);
    ASSERT_FALSE(b.words().empty());
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.words().data()) % 64, 0u)
        << bits << " bits";
  }
}

// Random pair of sets plus a prefix limit; sizes chosen to hit word
// tails, partial vector steps, and the one-word case.
struct KernelCase {
  Bitset a, b, c;
  std::size_t pos_limit;
};

KernelCase MakeCase(std::size_t bits, double density, std::uint64_t seed) {
  Rng rng(seed);
  KernelCase kc{Bitset(bits), Bitset(bits), Bitset(bits),
                rng.NextBelow(bits + 7)};
  for (std::size_t i = 0; i < bits; ++i) {
    if (rng.NextBool(density)) kc.a.Set(i);
    if (rng.NextBool(density)) kc.b.Set(i);
    if (rng.NextBool(density)) kc.c.Set(i);
  }
  return kc;
}

TEST_F(SimdDispatchTest, KernelsMatchReferenceAtEveryLevel) {
  std::vector<KernelCase> cases;
  std::uint64_t seed = 1;
  for (std::size_t bits : {1u, 63u, 64u, 65u, 200u, 511u, 512u, 513u,
                           1000u, 1500u}) {
    for (double density : {0.0, 0.05, 0.5, 1.0}) {
      cases.push_back(MakeCase(bits, density, seed++));
    }
  }
  for (simd::Level level : SupportedLevels()) {
    ASSERT_TRUE(simd::ForceLevel(level));
    SCOPED_TRACE(simd::LevelName(level));
    for (const KernelCase& kc : cases) {
      SCOPED_TRACE(kc.a.size());
      const Bitset& a = kc.a;
      const Bitset& b = kc.b;
      EXPECT_EQ(a.Count(), ref::AndCount(a, a));
      EXPECT_EQ(a.CountPrefix(kc.pos_limit),
                ref::CountPrefix(a, kc.pos_limit));
      EXPECT_EQ(a.AndCount(b), ref::AndCount(a, b));
      EXPECT_EQ(a.AndCountPrefix(b, kc.pos_limit),
                ref::AndCountPrefix(a, b, kc.pos_limit));
      EXPECT_EQ(a.None(), ref::AndCount(a, a) == 0);
      EXPECT_EQ(a.Intersects(b), ref::AndCount(a, b) > 0);
      EXPECT_EQ(a.IsSubsetOf(b), ref::AndCount(a, b) == ref::AndCount(a, a));
      Bitset out;
      Bitset::AndInto(a, b, &out);
      EXPECT_EQ(out, ref::AndInto(a, b));
      Bitset::AndNotInto(a, b, &out);
      EXPECT_EQ(out, ref::AndNotInto(a, b));
      Bitset acc = kc.c;
      acc.OrAnd(a, b);
      EXPECT_EQ(acc, ref::OrAnd(kc.c, a, b));
      EXPECT_EQ(a & b, ref::AndInto(a, b));
      EXPECT_EQ(a | b, ref::OrAnd(a, b, b));
      EXPECT_EQ(a - b, ref::AndNotInto(a, b));
    }
  }
}

void ExpectSameGroups(const FarmerResult& got, const FarmerResult& want) {
  ASSERT_EQ(got.groups.size(), want.groups.size());
  for (std::size_t i = 0; i < got.groups.size(); ++i) {
    const RuleGroup& g = got.groups[i];
    const RuleGroup& w = want.groups[i];
    EXPECT_EQ(g.antecedent, w.antecedent) << "group " << i;
    EXPECT_EQ(g.rows, w.rows) << "group " << i;
    EXPECT_EQ(g.support_pos, w.support_pos) << "group " << i;
    EXPECT_EQ(g.support_neg, w.support_neg) << "group " << i;
    EXPECT_EQ(g.confidence, w.confidence) << "group " << i;
    EXPECT_EQ(g.chi_square, w.chi_square) << "group " << i;
    EXPECT_EQ(g.lower_bounds, w.lower_bounds) << "group " << i;
  }
}

TEST_F(SimdDispatchTest, MinerIsBitIdenticalAcrossLevels) {
  const BinaryDataset ds = testing_util::RandomDataset(60, 80, 0.25, 99);
  MinerOptions opts;
  opts.consequent = 1;
  opts.min_support = 4;
  opts.min_confidence = 0.7;

  opts.simd_level = "scalar";
  const FarmerResult baseline = MineFarmer(ds, opts);
  EXPECT_EQ(baseline.stats.simd_level, "scalar");
  EXPECT_FALSE(baseline.groups.empty());

  for (simd::Level level : SupportedLevels()) {
    opts.simd_level = simd::LevelName(level);
    const FarmerResult got = MineFarmer(ds, opts);
    SCOPED_TRACE(opts.simd_level);
    EXPECT_EQ(got.stats.simd_level, opts.simd_level);
    ExpectSameGroups(got, baseline);
  }
}

// verify_invariants cross-checks every hot-path kernel call against the
// ref:: oracle during a real mining run — at the widest level this
// exercises the vector kernels under genuine miner traffic.
TEST_F(SimdDispatchTest, VerifyInvariantsPassesAtWidestLevel) {
  const BinaryDataset ds = testing_util::RandomDataset(40, 50, 0.3, 7);
  MinerOptions opts;
  opts.consequent = 1;
  opts.min_support = 3;
  opts.min_confidence = 0.6;
  opts.verify_invariants = true;
  opts.simd_level = simd::LevelName(simd::DetectBestLevel());
  const FarmerResult result = MineFarmer(ds, opts);
  EXPECT_EQ(result.stats.simd_level, opts.simd_level);
}

TEST_F(SimdDispatchTest, StatsJsonNamesTheActiveLevel) {
  MinerStats stats;
  stats.simd_level = "avx2";
  EXPECT_NE(stats.ToJson().find("\"simd_level\": \"avx2\""),
            std::string::npos);
  MinerStats unset;
  const std::string json = unset.ToJson();
  EXPECT_NE(json.find(std::string("\"simd_level\": \"") +
                      simd::LevelName(simd::ActiveLevel()) + "\""),
            std::string::npos);
}

}  // namespace
}  // namespace farmer
