#include <cmath>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/crc32.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/timer.h"

namespace farmer {
namespace {

TEST(RngTest, DeterministicStream) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
  bool differs = false;
  Rng a2(123);
  for (int i = 0; i < 100 && !differs; ++i) {
    differs = a2.NextU64() != c.NextU64();
  }
  EXPECT_TRUE(differs);
}

TEST(RngTest, NextBelowIsInRangeAndCoversValues) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.NextBelow(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, NextIntInclusiveBounds) {
  Rng rng(8);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.NextInt(-1, 1);
    EXPECT_GE(v, -1);
    EXPECT_LE(v, 1);
    saw_lo |= v == -1;
    saw_hi |= v == 1;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(9);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(10);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(DeadlineTest, DefaultNeverExpires) {
  Deadline d;
  for (int i = 0; i < 10000; ++i) {
    EXPECT_FALSE(d.Expired());
  }
}

TEST(DeadlineTest, ExpiresAfterDuration) {
  Deadline d = Deadline::After(0.02);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  // The throttle checks the clock every 256 calls; loop enough times.
  bool expired = false;
  for (int i = 0; i < 1000 && !expired; ++i) expired = d.Expired();
  EXPECT_TRUE(expired);
  // Once expired, stays expired.
  EXPECT_TRUE(d.Expired());
}

TEST(DeadlineTest, NonPositiveMeansNever) {
  Deadline d = Deadline::After(0.0);
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(d.Expired());
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double t1 = sw.ElapsedSeconds();
  EXPECT_GE(t1, 0.015);
  sw.Restart();
  EXPECT_LT(sw.ElapsedSeconds(), t1);
  EXPECT_NEAR(sw.ElapsedMillis(), sw.ElapsedSeconds() * 1e3, 5.0);
}

TEST(StatusTest, CodesAndMessages) {
  EXPECT_TRUE(Status::Ok().ok());
  EXPECT_EQ(Status::Ok().ToString(), "OK");
  Status s = Status::InvalidArgument("bad row");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_FALSE(s.IsIoError());
  EXPECT_EQ(s.message(), "bad row");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad row");
  EXPECT_TRUE(Status::IoError("x").IsIoError());
  EXPECT_TRUE(Status::NotFound("y").IsNotFound());
}

// The textbook bit-at-a-time CRC-32 (reflected, polynomial 0xEDB88320):
// the reference the table-driven Crc32 must reproduce.
std::uint32_t BitwiseCrc32(const unsigned char* data, std::size_t size,
                           std::uint32_t seed) {
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) != 0 ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
    }
  }
  return ~crc;
}

TEST(Crc32Test, MatchesTheStandardCheckValue) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  // Lengths 0..1024 cover the 8-byte steps and every tail length; the
  // eight start offsets cover every alignment of the input.
  Rng rng(2004);
  std::vector<unsigned char> buffer(1024 + 8);
  for (unsigned char& b : buffer) {
    b = static_cast<unsigned char>(rng.NextBelow(256));
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t size = 0; size <= 1024; ++size) {
      const unsigned char* data = buffer.data() + offset;
      ASSERT_EQ(Crc32(data, size), BitwiseCrc32(data, size, 0))
          << "offset " << offset << ", size " << size;
    }
  }
}

TEST(Crc32Test, ChainedSeedsEqualOneChecksum) {
  // Extending a running checksum buffer by buffer (the seed argument)
  // must equal one pass over the concatenation, at every split point.
  Rng rng(7);
  std::vector<unsigned char> buffer(300);
  for (unsigned char& b : buffer) {
    b = static_cast<unsigned char>(rng.NextBelow(256));
  }
  const std::uint32_t whole = Crc32(buffer.data(), buffer.size());
  ASSERT_EQ(whole, BitwiseCrc32(buffer.data(), buffer.size(), 0));
  for (std::size_t split = 0; split <= buffer.size(); ++split) {
    const std::uint32_t head = Crc32(buffer.data(), split);
    EXPECT_EQ(Crc32(buffer.data() + split, buffer.size() - split, head),
              whole)
        << "split " << split;
    EXPECT_EQ(BitwiseCrc32(buffer.data() + split, buffer.size() - split,
                           head),
              whole)
        << "split " << split;
  }
}

}  // namespace
}  // namespace farmer
