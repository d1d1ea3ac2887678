#include "util/bitset.h"

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "util/bitset_ref.h"
#include "util/rng.h"

namespace farmer {
namespace {

TEST(BitsetTest, BasicSetResetTest) {
  Bitset b(130);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_TRUE(b.None());
  b.Set(0);
  b.Set(64);
  b.Set(129);
  EXPECT_TRUE(b.Test(0));
  EXPECT_TRUE(b.Test(64));
  EXPECT_TRUE(b.Test(129));
  EXPECT_FALSE(b.Test(1));
  EXPECT_EQ(b.Count(), 3u);
  b.Reset(64);
  EXPECT_FALSE(b.Test(64));
  EXPECT_EQ(b.Count(), 2u);
  b.ResetAll();
  EXPECT_TRUE(b.None());
}

TEST(BitsetTest, SetAllRespectsSize) {
  Bitset b(70);
  b.SetAll();
  EXPECT_EQ(b.Count(), 70u);
  Bitset c(64);
  c.SetAll();
  EXPECT_EQ(c.Count(), 64u);
}

TEST(BitsetTest, SubsetAndIntersection) {
  Bitset a(100), b(100);
  a.Set(3);
  a.Set(50);
  b.Set(3);
  b.Set(50);
  b.Set(99);
  EXPECT_TRUE(a.IsSubsetOf(b));
  EXPECT_FALSE(b.IsSubsetOf(a));
  EXPECT_TRUE(a.IsProperSubsetOf(b));
  EXPECT_FALSE(a.IsProperSubsetOf(a));
  EXPECT_TRUE(a.IsSubsetOf(a));
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_EQ(a.IntersectCount(b), 2u);
  Bitset c(100);
  c.Set(1);
  EXPECT_FALSE(a.Intersects(c));
}

TEST(BitsetTest, SetAlgebraOperators) {
  Bitset a(66), b(66);
  a.Set(0);
  a.Set(65);
  b.Set(65);
  b.Set(30);
  EXPECT_EQ((a | b).ToVector(), (std::vector<std::size_t>{0, 30, 65}));
  EXPECT_EQ((a & b).ToVector(), (std::vector<std::size_t>{65}));
  EXPECT_EQ((a - b).ToVector(), (std::vector<std::size_t>{0}));
}

TEST(BitsetTest, FindFirstAndNext) {
  Bitset b(200);
  EXPECT_EQ(b.FindFirst(), 200u);
  b.Set(5);
  b.Set(64);
  b.Set(199);
  EXPECT_EQ(b.FindFirst(), 5u);
  EXPECT_EQ(b.FindNext(5), 64u);
  EXPECT_EQ(b.FindNext(64), 199u);
  EXPECT_EQ(b.FindNext(199), 200u);
}

TEST(BitsetTest, ResizeClearsNewBitsAndTrims) {
  Bitset b(10);
  b.SetAll();
  b.Resize(100);
  EXPECT_EQ(b.Count(), 10u);
  b.Resize(4);
  EXPECT_EQ(b.Count(), 4u);
  b.Resize(10);
  EXPECT_EQ(b.Count(), 4u);  // Trimmed bits stay cleared.
}

TEST(BitsetTest, EqualityAndHash) {
  Bitset a(80), b(80);
  a.Set(7);
  b.Set(7);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
  b.Set(8);
  EXPECT_NE(a, b);
}

TEST(BitsetTest, ToStringRendersSetBits) {
  Bitset b(10);
  b.Set(1);
  b.Set(4);
  EXPECT_EQ(b.ToString(), "{1,4}");
  EXPECT_EQ(Bitset(3).ToString(), "{}");
}

TEST(BitsetTest, CountPrefix) {
  Bitset b(200);
  b.Set(0);
  b.Set(63);
  b.Set(64);
  b.Set(130);
  b.Set(199);
  EXPECT_EQ(b.CountPrefix(0), 0u);
  EXPECT_EQ(b.CountPrefix(1), 1u);
  EXPECT_EQ(b.CountPrefix(63), 1u);
  EXPECT_EQ(b.CountPrefix(64), 2u);
  EXPECT_EQ(b.CountPrefix(65), 3u);
  EXPECT_EQ(b.CountPrefix(131), 4u);
  EXPECT_EQ(b.CountPrefix(199), 4u);
  EXPECT_EQ(b.CountPrefix(200), 5u);
  EXPECT_EQ(b.CountPrefix(10000), 5u);  // Clamped to size().
}

TEST(BitsetTest, ResetPrefix) {
  Bitset b(130);
  b.SetAll();
  b.ResetPrefix(70);  // Clears a full word plus 6 bits of the next.
  for (std::size_t i = 0; i < 130; ++i) {
    EXPECT_EQ(b.Test(i), i >= 70) << "bit " << i;
  }
  EXPECT_EQ(b.Count(), 60u);

  b.SetAll();
  b.ResetPrefix(0);  // No-op.
  EXPECT_EQ(b.Count(), 130u);
  b.ResetPrefix(64);  // Exactly one word: no tail masking.
  EXPECT_EQ(b.FindFirst(), 64u);
  b.ResetPrefix(1000);  // Clamped to size.
  EXPECT_TRUE(b.None());

  // Mirrors the miner's use: derive "candidates strictly after row r"
  // from a parent mask.
  Bitset cand(100);
  for (std::size_t i = 0; i < 100; i += 3) cand.Set(i);
  Bitset derived = cand;
  derived.ResetPrefix(31);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(derived.Test(i), cand.Test(i) && i >= 31) << "bit " << i;
  }
}

TEST(BitsetTest, AndCountAndPrefix) {
  Bitset a(150), b(150);
  a.Set(0);
  a.Set(70);
  a.Set(100);
  a.Set(149);
  b.Set(70);
  b.Set(100);
  b.Set(120);
  EXPECT_EQ(a.AndCount(b), 2u);
  EXPECT_EQ(a.AndCountPrefix(b, 0), 0u);
  EXPECT_EQ(a.AndCountPrefix(b, 70), 0u);
  EXPECT_EQ(a.AndCountPrefix(b, 71), 1u);
  EXPECT_EQ(a.AndCountPrefix(b, 101), 2u);
  EXPECT_EQ(a.AndCountPrefix(b, 150), 2u);
  EXPECT_EQ(a.AndCountPrefix(b, 9999), 2u);
}

TEST(BitsetTest, AndIntoAndNotIntoReuseStorage) {
  Bitset a(130), b(130), out;
  a.Set(1);
  a.Set(65);
  a.Set(129);
  b.Set(65);
  b.Set(100);
  Bitset::AndInto(a, b, &out);
  EXPECT_EQ(out.ToVector(), (std::vector<std::size_t>{65}));
  EXPECT_EQ(out.size(), 130u);
  Bitset::AndNotInto(a, b, &out);
  EXPECT_EQ(out.ToVector(), (std::vector<std::size_t>{1, 129}));
  // Aliasing with an input is allowed.
  Bitset c = a;
  Bitset::AndNotInto(c, b, &c);
  EXPECT_EQ(c.ToVector(), (std::vector<std::size_t>{1, 129}));
}

TEST(BitsetTest, OrAnd) {
  Bitset acc(100), a(100), b(100);
  acc.Set(0);
  a.Set(10);
  a.Set(20);
  b.Set(20);
  b.Set(30);
  acc.OrAnd(a, b);
  EXPECT_EQ(acc.ToVector(), (std::vector<std::size_t>{0, 20}));
}

TEST(BitsetTest, KernelsMatchNaiveOnRandomSets) {
  Rng rng(123);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t size = 1 + rng.NextBelow(250);
    Bitset a(size), b(size);
    std::set<std::size_t> ma, mb;
    for (std::size_t i = 0; i < size; ++i) {
      if (rng.NextBool(0.4)) {
        a.Set(i);
        ma.insert(i);
      }
      if (rng.NextBool(0.4)) {
        b.Set(i);
        mb.insert(i);
      }
    }
    const std::size_t limit = rng.NextBelow(size + 10);
    std::size_t naive_prefix = 0, naive_and_prefix = 0, naive_and = 0;
    for (std::size_t i : ma) {
      if (i < limit) ++naive_prefix;
      if (mb.count(i)) {
        ++naive_and;
        if (i < limit) ++naive_and_prefix;
      }
    }
    EXPECT_EQ(a.CountPrefix(limit), naive_prefix);
    EXPECT_EQ(a.AndCount(b), naive_and);
    EXPECT_EQ(a.AndCountPrefix(b, limit), naive_and_prefix);
    Bitset out;
    Bitset::AndInto(a, b, &out);
    EXPECT_EQ(out, a & b);
    Bitset::AndNotInto(a, b, &out);
    EXPECT_EQ(out, a - b);
    Bitset acc(size);
    acc.OrAnd(a, b);
    EXPECT_EQ(acc, a & b);
  }
}

TEST(BitsetTest, RandomizedAgainstStdSet) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t size = 1 + rng.NextBelow(300);
    Bitset bits(size);
    std::set<std::size_t> model;
    for (int op = 0; op < 200; ++op) {
      const std::size_t pos = rng.NextBelow(size);
      if (rng.NextBool(0.6)) {
        bits.Set(pos);
        model.insert(pos);
      } else {
        bits.Reset(pos);
        model.erase(pos);
      }
    }
    EXPECT_EQ(bits.Count(), model.size());
    EXPECT_EQ(bits.ToVector(),
              std::vector<std::size_t>(model.begin(), model.end()));
    std::size_t iterated = 0;
    bits.ForEach([&](std::size_t pos) {
      EXPECT_TRUE(model.count(pos));
      ++iterated;
    });
    EXPECT_EQ(iterated, model.size());
  }
}

TEST(BitsetTest, CheckInvariantsHoldsAcrossOperations) {
  for (std::size_t size : {0u, 1u, 63u, 64u, 65u, 130u, 1000u}) {
    Bitset b(size);
    b.CheckInvariants();
    b.SetAll();
    b.CheckInvariants();  // SetAll must leave tail bits clear.
    if (size > 0) {
      b.Reset(size - 1);
      b.CheckInvariants();
    }
    Bitset c(size);
    c.SetAll();
    b |= c;
    b.CheckInvariants();
    b -= c;
    b.CheckInvariants();
    b.Resize(size + 77);
    b.CheckInvariants();
  }
}

// Randomized cross-check of every word-parallel kernel against the scalar
// references in util/bitset_ref.h — the same oracles the miner's
// verify_invariants mode uses, exercised here on adversarial sizes
// (word-boundary straddling, empty sets, mismatched prefixes).
TEST(BitsetTest, KernelsMatchScalarReferences) {
  Rng rng(2024);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t size = 1 + rng.NextBelow(200);
    Bitset a(size);
    Bitset b(size);
    Bitset base(size);
    for (std::size_t i = 0; i < size; ++i) {
      if (rng.NextBool(0.35)) a.Set(i);
      if (rng.NextBool(0.35)) b.Set(i);
      if (rng.NextBool(0.35)) base.Set(i);
    }
    const std::size_t limit = rng.NextBelow(size + 8);

    EXPECT_EQ(a.AndCount(b), ref::AndCount(a, b));
    EXPECT_EQ(a.AndCountPrefix(b, limit), ref::AndCountPrefix(a, b, limit));
    EXPECT_EQ(a.CountPrefix(limit), ref::CountPrefix(a, limit));

    Bitset out;
    Bitset::AndInto(a, b, &out);
    out.CheckInvariants();
    EXPECT_EQ(out, ref::AndInto(a, b));
    Bitset::AndNotInto(a, b, &out);
    out.CheckInvariants();
    EXPECT_EQ(out, ref::AndNotInto(a, b));

    Bitset acc = base;
    acc.OrAnd(a, b);
    acc.CheckInvariants();
    EXPECT_EQ(acc, ref::OrAnd(base, a, b));
  }
}

}  // namespace
}  // namespace farmer
