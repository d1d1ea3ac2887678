#include "serve/snapshot.h"

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/farmer.h"
#include "tests/test_util.h"
#include "util/crc32.h"

namespace farmer {
namespace serve {
namespace {

using testing_util::RandomDataset;

// A snapshot with real mined content: non-trivial row sets, lower
// bounds, and measures.
RuleGroupSnapshot MineSnapshot(std::uint64_t seed = 21) {
  BinaryDataset ds = RandomDataset(14, 16, 0.45, seed);
  MinerOptions opts;
  opts.min_support = 2;
  opts.min_confidence = 0.5;
  FarmerResult mined = MineFarmer(ds, opts);
  RuleGroupSnapshot snapshot;
  snapshot.groups = std::move(mined.groups);
  snapshot.num_rows = ds.num_rows();
  snapshot.params = SnapshotParams::FromMinerOptions(opts);
  snapshot.fingerprint = SnapshotFingerprint::FromDataset(ds);
  return snapshot;
}

void ExpectEqualSnapshots(const RuleGroupSnapshot& a,
                          const RuleGroupSnapshot& b) {
  EXPECT_EQ(a.num_rows, b.num_rows);
  EXPECT_EQ(a.params, b.params);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  ASSERT_EQ(a.groups.size(), b.groups.size());
  for (std::size_t i = 0; i < a.groups.size(); ++i) {
    const RuleGroup& x = a.groups[i];
    const RuleGroup& y = b.groups[i];
    EXPECT_EQ(x.antecedent, y.antecedent) << "group " << i;
    EXPECT_EQ(x.rows, y.rows) << "group " << i;
    EXPECT_EQ(x.support_pos, y.support_pos) << "group " << i;
    EXPECT_EQ(x.support_neg, y.support_neg) << "group " << i;
    EXPECT_DOUBLE_EQ(x.confidence, y.confidence) << "group " << i;
    EXPECT_DOUBLE_EQ(x.chi_square, y.chi_square) << "group " << i;
    EXPECT_EQ(x.lower_bounds, y.lower_bounds) << "group " << i;
    EXPECT_EQ(x.lower_bounds_truncated, y.lower_bounds_truncated)
        << "group " << i;
  }
}

TEST(SnapshotTest, RoundTripsMinedStoreThroughFile) {
  const RuleGroupSnapshot snapshot = MineSnapshot();
  ASSERT_FALSE(snapshot.groups.empty());
  const std::string path = ::testing::TempDir() + "/store.fsnap";
  ASSERT_TRUE(SaveSnapshot(snapshot, path).ok());
  RuleGroupSnapshot loaded;
  ASSERT_TRUE(LoadSnapshot(path, &loaded).ok());
  ExpectEqualSnapshots(snapshot, loaded);
  std::remove(path.c_str());
}

TEST(SnapshotTest, RoundTripsEmptyStore) {
  RuleGroupSnapshot snapshot;
  snapshot.num_rows = 9;
  snapshot.params.min_support = 3;
  snapshot.fingerprint.dataset_hash = 0xDEADBEEFu;
  snapshot.fingerprint.num_rows = 9;
  snapshot.fingerprint.num_items = 12;
  const std::string buffer = SerializeSnapshot(snapshot);
  RuleGroupSnapshot loaded;
  ASSERT_TRUE(LoadSnapshotFromBuffer(buffer, "test", &loaded).ok());
  ExpectEqualSnapshots(snapshot, loaded);
}

TEST(SnapshotTest, RoundTripsTruncatedLowerBoundFlagAndEdgeValues) {
  RuleGroupSnapshot snapshot;
  snapshot.num_rows = 70;  // More than one bitset word.
  snapshot.fingerprint.num_rows = 70;
  snapshot.fingerprint.num_items = 300;
  RuleGroup g;
  g.antecedent = {0, 299};
  g.rows = Bitset(70);
  g.rows.Set(0);
  g.rows.Set(69);
  g.support_pos = 1;
  g.support_neg = 1;
  g.confidence = 0.5;
  g.chi_square = 123.25;
  g.lower_bounds = {{0}, {299}};
  g.lower_bounds_truncated = true;
  snapshot.groups.push_back(g);
  const std::string buffer = SerializeSnapshot(snapshot);
  RuleGroupSnapshot loaded;
  ASSERT_TRUE(LoadSnapshotFromBuffer(buffer, "test", &loaded).ok());
  ExpectEqualSnapshots(snapshot, loaded);
}

// Appends `v` as `bytes` little-endian bytes, one at a time.
void PutLe(std::string* out, std::uint64_t v, int bytes) {
  for (int b = 0; b < bytes; ++b) {
    out->push_back(static_cast<char>((v >> (8 * b)) & 0xFF));
  }
}

TEST(SnapshotTest, EncodesGroupsByteForByte) {
  // The GRPS payload of one group, spelled out field by field: item lists
  // as u32s, the row set as its words with the trailing zero word
  // trimmed, every integer little-endian.
  RuleGroupSnapshot snapshot;
  snapshot.num_rows = 200;  // Four words; rows stop in the third.
  snapshot.fingerprint.num_rows = 200;
  snapshot.fingerprint.num_items = 0x20000;
  RuleGroup g;
  g.antecedent = {3, 0x104, 0x1FFFF};
  g.rows = Bitset(200);
  for (std::size_t r : {0, 63, 64, 130}) g.rows.Set(r);
  g.support_pos = 3;
  g.support_neg = 1;
  g.confidence = 0.75;
  g.chi_square = 2.5;
  g.lower_bounds = {{3}, {0x104, 0x1FFFF}};
  snapshot.groups.push_back(g);

  std::string payload;
  PutLe(&payload, 1, 8);  // Group count.
  PutLe(&payload, 3, 8);
  PutLe(&payload, 1, 8);
  PutLe(&payload, std::bit_cast<std::uint64_t>(0.75), 8);
  PutLe(&payload, std::bit_cast<std::uint64_t>(2.5), 8);
  PutLe(&payload, 0, 1);  // Not truncated.
  PutLe(&payload, 3, 4);
  for (std::uint32_t item : {3u, 0x104u, 0x1FFFFu}) PutLe(&payload, item, 4);
  PutLe(&payload, 3, 4);  // Row words.
  PutLe(&payload, 0x8000000000000001ull, 8);
  PutLe(&payload, 1, 8);
  PutLe(&payload, 4, 8);
  PutLe(&payload, 2, 4);  // Lower bounds.
  PutLe(&payload, 1, 4);
  PutLe(&payload, 3, 4);
  PutLe(&payload, 2, 4);
  PutLe(&payload, 0x104, 4);
  PutLe(&payload, 0x1FFFF, 4);

  const std::string bytes = SerializeSnapshot(snapshot);
  // Header (16 bytes), then META: tag, size, 70 payload bytes, CRC.
  const std::size_t grps = 16 + 4 + 8 + 70 + 4;
  ASSERT_EQ(bytes.size(), grps + 4 + 8 + payload.size() + 4);
  EXPECT_EQ(bytes.substr(grps, 4), "GRPS");
  std::string size_field;
  PutLe(&size_field, payload.size(), 8);
  EXPECT_EQ(bytes.substr(grps + 4, 8), size_field);
  EXPECT_EQ(bytes.substr(grps + 12, payload.size()), payload);
  std::string crc_field;
  PutLe(&crc_field, Crc32(payload.data(), payload.size()), 4);
  EXPECT_EQ(bytes.substr(grps + 12 + payload.size()), crc_field);
}

TEST(SnapshotTest, SerializeIsDeterministic) {
  const RuleGroupSnapshot snapshot = MineSnapshot();
  EXPECT_EQ(SerializeSnapshot(snapshot), SerializeSnapshot(snapshot));
}

TEST(SnapshotTest, RejectsEveryTruncation) {
  const std::string buffer = SerializeSnapshot(MineSnapshot());
  RuleGroupSnapshot loaded;
  for (std::size_t len = 0; len < buffer.size(); ++len) {
    const Status s = LoadSnapshotFromBuffer(
        std::string_view(buffer).substr(0, len), "trunc", &loaded);
    EXPECT_TRUE(s.IsInvalidArgument()) << "accepted prefix of " << len;
  }
}

TEST(SnapshotTest, RejectsEveryByteCorruption) {
  // Every byte is structural, checksummed, or a checksum itself, so any
  // single-byte corruption must be detected.
  const std::string buffer = SerializeSnapshot(MineSnapshot());
  RuleGroupSnapshot loaded;
  for (std::size_t pos = 0; pos < buffer.size(); ++pos) {
    std::string corrupt = buffer;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x5A);
    const Status s = LoadSnapshotFromBuffer(corrupt, "corrupt", &loaded);
    EXPECT_TRUE(s.IsInvalidArgument()) << "accepted flip at byte " << pos;
  }
}

template <typename T>
T ReadLe(const std::string& buffer, std::size_t off) {
  T v{};
  std::memcpy(&v, buffer.data() + off, sizeof(v));
  return v;
}

template <typename T>
void WriteLe(std::string* buffer, std::size_t off, T v) {
  std::memcpy(buffer->data() + off, &v, sizeof(v));
}

TEST(SnapshotTest, RejectsNonCanonicalRowSetEncoding) {
  // Writers trim trailing zero bitset words; a hand-rolled buffer that
  // keeps one must be rejected so every snapshot has exactly one
  // serialized form (the fuzzer relies on this for its byte-identity
  // round-trip oracle).
  RuleGroupSnapshot snapshot;
  snapshot.num_rows = 70;
  snapshot.fingerprint.num_rows = 70;
  snapshot.fingerprint.num_items = 5;
  RuleGroup g;
  g.rows = Bitset(70);  // Empty row set: canonical word count is 0.
  snapshot.groups.push_back(g);
  std::string buffer = SerializeSnapshot(snapshot);
  RuleGroupSnapshot loaded;
  ASSERT_TRUE(LoadSnapshotFromBuffer(buffer, "canon", &loaded).ok());

  // Header is 16 bytes; each section is tag u32 | size u64 | payload |
  // crc u32. Walk past META to the GRPS payload.
  std::size_t section = 16;
  section += 4 + 8 + ReadLe<std::uint64_t>(buffer, section + 4) + 4;
  const std::uint64_t grps_size = ReadLe<std::uint64_t>(buffer, section + 4);
  const std::size_t payload = section + 4 + 8;
  // Payload: group count u64, then 33 bytes of stats+flags, an empty
  // antecedent (u32 count 0), then the row-set word count.
  const std::size_t word_count_off = payload + 8 + 33 + 4;
  ASSERT_EQ(ReadLe<std::uint32_t>(buffer, word_count_off), 0u);
  WriteLe<std::uint32_t>(&buffer, word_count_off, 1);
  buffer.insert(word_count_off + 4, 8, '\0');  // One all-zero word.
  WriteLe<std::uint64_t>(&buffer, section + 4, grps_size + 8);
  WriteLe<std::uint32_t>(
      &buffer, payload + grps_size + 8,
      Crc32(buffer.data() + payload, grps_size + 8));

  const Status s = LoadSnapshotFromBuffer(buffer, "noncanon", &loaded);
  ASSERT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("non-canonical"), std::string::npos);
}

TEST(SnapshotTest, RejectsItemUniverseOverCap) {
  // A CRC-valid META declaring a huge item universe must be rejected up
  // front: RuleGroupIndex sizes two posting-list vectors from
  // num_items, so an unchecked count is an allocation bomb.
  std::string buffer = SerializeSnapshot(MineSnapshot());
  // META payload starts after header (16) + tag u32 + size u64; its
  // layout puts fingerprint.num_items at payload offset 24.
  const std::size_t meta_payload = 16 + 4 + 8;
  const std::uint64_t meta_size =
      ReadLe<std::uint64_t>(buffer, 16 + 4);
  WriteLe<std::uint64_t>(&buffer, meta_payload + 24,
                         std::uint64_t{1} << 60);
  WriteLe<std::uint32_t>(
      &buffer, meta_payload + meta_size,
      Crc32(buffer.data() + meta_payload, meta_size));
  RuleGroupSnapshot loaded;
  const Status s = LoadSnapshotFromBuffer(buffer, "items", &loaded);
  ASSERT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("num_items"), std::string::npos)
      << s.message();
}

TEST(SnapshotTest, RejectsSupportsWhoseSumWrapsToRowCount) {
  // support_pos and support_neg are attacker-controlled u64s; adding
  // 2^63 to both leaves their mod-2^64 sum equal to the true row count,
  // so the row-count cross-check alone would accept nonsense supports.
  std::string buffer = SerializeSnapshot(MineSnapshot());
  std::size_t section = 16;
  section += 4 + 8 + ReadLe<std::uint64_t>(buffer, section + 4) + 4;
  const std::uint64_t grps_size = ReadLe<std::uint64_t>(buffer, section + 4);
  const std::size_t payload = section + 4 + 8;
  // GRPS payload: group count u64, then group 0's support_pos u64 and
  // support_neg u64.
  ASSERT_GE(ReadLe<std::uint64_t>(buffer, payload), 1u);
  const std::uint64_t half = std::uint64_t{1} << 63;
  WriteLe<std::uint64_t>(&buffer, payload + 8,
                         ReadLe<std::uint64_t>(buffer, payload + 8) + half);
  WriteLe<std::uint64_t>(&buffer, payload + 16,
                         ReadLe<std::uint64_t>(buffer, payload + 16) + half);
  WriteLe<std::uint32_t>(&buffer, payload + grps_size,
                         Crc32(buffer.data() + payload, grps_size));
  RuleGroupSnapshot loaded;
  const Status s = LoadSnapshotFromBuffer(buffer, "wrap", &loaded);
  ASSERT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("support exceeds num_rows"),
            std::string::npos)
      << s.message();
}

TEST(SnapshotTest, RejectsTrailingBytes) {
  const std::string buffer = SerializeSnapshot(MineSnapshot()) + "x";
  RuleGroupSnapshot loaded;
  EXPECT_TRUE(
      LoadSnapshotFromBuffer(buffer, "trailing", &loaded).IsInvalidArgument());
}

TEST(SnapshotTest, RejectsFutureVersionEvenWithValidChecksum) {
  std::string buffer = SerializeSnapshot(MineSnapshot());
  // Header: magic[4] | version u32 | section_count u32 | crc32 u32.
  buffer[4] = 2;  // version = 2 (little-endian low byte).
  const std::uint32_t crc = Crc32(buffer.data(), 12);
  std::memcpy(&buffer[12], &crc, sizeof(crc));
  RuleGroupSnapshot loaded;
  const Status s = LoadSnapshotFromBuffer(buffer, "future", &loaded);
  ASSERT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("version"), std::string::npos);
}

TEST(SnapshotTest, RejectsBadMagic) {
  std::string buffer = SerializeSnapshot(MineSnapshot());
  buffer[0] = 'X';
  RuleGroupSnapshot loaded;
  EXPECT_TRUE(
      LoadSnapshotFromBuffer(buffer, "magic", &loaded).IsInvalidArgument());
}

TEST(SnapshotTest, SaveRejectsInconsistentRowWidth) {
  RuleGroupSnapshot snapshot;
  snapshot.num_rows = 10;
  RuleGroup g;
  g.rows = Bitset(12);  // Wider than the snapshot's row count.
  snapshot.groups.push_back(g);
  const std::string path = ::testing::TempDir() + "/badwidth.fsnap";
  EXPECT_TRUE(SaveSnapshot(snapshot, path).IsInvalidArgument());
}

TEST(SnapshotTest, SaveRejectsRowCountOverCap) {
  RuleGroupSnapshot snapshot;
  snapshot.num_rows = static_cast<std::size_t>(kMaxSnapshotRows) + 1;
  const std::string path = ::testing::TempDir() + "/overcap.fsnap";
  EXPECT_TRUE(SaveSnapshot(snapshot, path).IsInvalidArgument());
}

TEST(SnapshotTest, SaveRejectsItemCountOverCap) {
  RuleGroupSnapshot snapshot;
  snapshot.fingerprint.num_items = kMaxSnapshotItems + 1;
  const std::string path = ::testing::TempDir() + "/overitems.fsnap";
  EXPECT_TRUE(SaveSnapshot(snapshot, path).IsInvalidArgument());
}

TEST(SnapshotTest, LoadReportsIoErrorForMissingFile) {
  RuleGroupSnapshot loaded;
  EXPECT_TRUE(LoadSnapshot("/nonexistent/store.fsnap", &loaded).IsIoError());
}

// Format-stability regression: a checked-in FSNP v1 file written by an
// earlier build must load and re-serialize byte-identically forever.
// This pins the on-disk format against internal representation changes
// (e.g. the Bitset word storage moving to 64-byte-aligned allocations).
TEST(SnapshotTest, FixtureV1RoundTripsByteIdentically) {
  const std::string path =
      std::string(FARMER_TEST_DATA_DIR) + "/fixture_v1.fsnap";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.is_open()) << path;
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  ASSERT_FALSE(bytes.empty());

  RuleGroupSnapshot loaded;
  ASSERT_TRUE(LoadSnapshotFromBuffer(bytes, path, &loaded).ok());
  EXPECT_EQ(loaded.groups.size(), 272u);
  EXPECT_EQ(loaded.num_rows, 62u);
  EXPECT_EQ(SerializeSnapshot(loaded), bytes);
}

TEST(SnapshotTest, FingerprintTracksDatasetContent) {
  BinaryDataset a = RandomDataset(10, 12, 0.4, 5);
  BinaryDataset b = RandomDataset(10, 12, 0.4, 6);
  EXPECT_EQ(SnapshotFingerprint::FromDataset(a),
            SnapshotFingerprint::FromDataset(a));
  EXPECT_NE(SnapshotFingerprint::FromDataset(a).dataset_hash,
            SnapshotFingerprint::FromDataset(b).dataset_hash);
}

}  // namespace
}  // namespace serve
}  // namespace farmer
