#include "serve/snapshot.h"

#include <bit>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/bitset.h"
#include "util/check.h"
#include "util/crc32.h"

namespace farmer {
namespace serve {

namespace {

constexpr char kMagic[4] = {'F', 'S', 'N', 'P'};
constexpr std::size_t kHeaderBytes = 16;
constexpr std::uint32_t kTagMeta = 0x4154454Du;    // "META" little-endian.
constexpr std::uint32_t kTagGroups = 0x53505247u;  // "GRPS" little-endian.
constexpr std::size_t kMetaPayloadBytes = 70;
// A section's tag, payload size and CRC around its payload.
constexpr std::size_t kSectionOverheadBytes = 4 + 8 + 4;
// Smallest possible group encoding: stats + flags + three zero counts.
constexpr std::size_t kMinGroupBytes = 8 + 8 + 8 + 8 + 1 + 4 + 4 + 4;

// The encoder appends to one string its caller reserved to the exact
// snapshot size, so no append reallocates.

template <typename T>
void AppendLittleEndian(std::string* out, T v) {
  char bytes[sizeof(T)];
  for (std::size_t byte = 0; byte < sizeof(T); ++byte) {
    bytes[byte] = static_cast<char>((v >> (byte * 8)) & 0xFFu);
  }
  out->append(bytes, sizeof(T));
}

void AppendU8(std::string* out, std::uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void AppendU32(std::string* out, std::uint32_t v) {
  AppendLittleEndian(out, v);
}

void AppendU64(std::string* out, std::uint64_t v) {
  AppendLittleEndian(out, v);
}

void AppendF64(std::string* out, double v) {
  AppendU64(out, std::bit_cast<std::uint64_t>(v));
}

/// Appends `count` integers little-endian: one bulk copy on a
/// little-endian host, else one integer at a time.
template <typename T>
void AppendArray(std::string* out, const T* values, std::size_t count) {
  if constexpr (std::endian::native == std::endian::little) {
    out->append(reinterpret_cast<const char*>(values), count * sizeof(T));
  } else {
    for (std::size_t i = 0; i < count; ++i) AppendLittleEndian(out, values[i]);
  }
}

/// Bounds-checked little-endian cursor over the input buffer. Every Read
/// fails (returns false) instead of running past the end, so the parser
/// below can never over-read regardless of what the counts claim.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  std::size_t remaining() const { return data_.size() - pos_; }

  bool ReadU8(std::uint8_t* v) {
    if (remaining() < 1) return false;
    *v = static_cast<std::uint8_t>(data_[pos_++]);
    return true;
  }

  bool ReadU32(std::uint32_t* v) {
    if (remaining() < 4) return false;
    std::uint32_t out = 0;
    for (int byte = 0; byte < 4; ++byte) {
      out |= static_cast<std::uint32_t>(
                 static_cast<std::uint8_t>(data_[pos_ + byte]))
             << (byte * 8);
    }
    pos_ += 4;
    *v = out;
    return true;
  }

  bool ReadU64(std::uint64_t* v) {
    if (remaining() < 8) return false;
    std::uint64_t out = 0;
    for (int byte = 0; byte < 8; ++byte) {
      out |= static_cast<std::uint64_t>(
                 static_cast<std::uint8_t>(data_[pos_ + byte]))
             << (byte * 8);
    }
    pos_ += 8;
    *v = out;
    return true;
  }

  bool ReadF64(double* v) {
    std::uint64_t bits = 0;
    if (!ReadU64(&bits)) return false;
    *v = std::bit_cast<double>(bits);
    return true;
  }

  bool ReadView(std::size_t n, std::string_view* view) {
    if (remaining() < n) return false;
    *view = data_.substr(pos_, n);
    pos_ += n;
    return true;
  }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

Status Err(const std::string& name, const std::string& msg) {
  return Status::InvalidArgument(name + ": " + msg);
}

/// The row-set encoding's word count: the bitset's 64-bit words with
/// trailing zero words trimmed.
std::size_t TrimmedWordCount(const Bitset& rows) {
  const Bitset::WordVector& words = rows.words();
  std::size_t count = words.size();
  while (count > 0 && words[count - 1] == 0) --count;
  return count;
}

/// Compact row-set encoding: the trimmed words, prefixed by their count.
void AppendRowSet(std::string* out, const Bitset& rows) {
  const std::size_t count = TrimmedWordCount(rows);
  AppendU32(out, static_cast<std::uint32_t>(count));
  AppendArray(out, rows.words().data(), count);
}

bool ParseRowSet(ByteReader* reader, std::size_t num_rows, Bitset* rows,
                 std::string* why) {
  std::uint32_t word_count = 0;
  if (!reader->ReadU32(&word_count)) {
    *why = "truncated row-set word count";
    return false;
  }
  const std::size_t max_words = (num_rows + 63) / 64;
  if (word_count > max_words) {
    *why = "row-set word count " + std::to_string(word_count) +
           " exceeds " + std::to_string(max_words) + " words for " +
           std::to_string(num_rows) + " rows";
    return false;
  }
  *rows = Bitset(num_rows);
  std::uint64_t last_word = 0;
  for (std::uint32_t w = 0; w < word_count; ++w) {
    std::uint64_t word = 0;
    if (!reader->ReadU64(&word)) {
      *why = "truncated row-set words";
      return false;
    }
    last_word = word;
    for (std::uint64_t bits = word; bits != 0; bits &= bits - 1) {
      const std::size_t pos =
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      if (pos >= num_rows) {
        *why = "row-set bit " + std::to_string(pos) + " out of range";
        return false;
      }
      rows->Set(pos);
    }
  }
  // Writers trim trailing zero words; require the same of readers so
  // every accepted buffer has exactly one serialized form.
  if (word_count > 0 && last_word == 0) {
    *why = "non-canonical row-set encoding (trailing zero word)";
    return false;
  }
  return true;
}

void AppendItems(std::string* out, const ItemVector& items) {
  AppendU32(out, static_cast<std::uint32_t>(items.size()));
  AppendArray(out, items.data(), items.size());
}

bool ParseItems(ByteReader* reader, std::uint64_t num_items,
                ItemVector* items, std::string* why) {
  std::uint32_t count = 0;
  if (!reader->ReadU32(&count)) {
    *why = "truncated item count";
    return false;
  }
  if (count > reader->remaining() / 4) {
    *why = "item count " + std::to_string(count) + " exceeds payload";
    return false;
  }
  items->clear();
  items->reserve(count);
  ItemId prev = 0;
  for (std::uint32_t k = 0; k < count; ++k) {
    std::uint32_t item = 0;
    if (!reader->ReadU32(&item)) {
      *why = "truncated items";
      return false;
    }
    if (item >= num_items) {
      *why = "item id " + std::to_string(item) + " out of range";
      return false;
    }
    if (k > 0 && item <= prev) {
      *why = "items not strictly ascending";
      return false;
    }
    prev = item;
    items->push_back(item);
  }
  return true;
}

void AppendMeta(std::string* out, const RuleGroupSnapshot& snapshot) {
  AppendU64(out, snapshot.num_rows);
  AppendU64(out, snapshot.fingerprint.dataset_hash);
  AppendU64(out, snapshot.fingerprint.num_rows);
  AppendU64(out, snapshot.fingerprint.num_items);
  AppendU32(out, snapshot.params.consequent);
  AppendU64(out, snapshot.params.min_support);
  AppendF64(out, snapshot.params.min_confidence);
  AppendF64(out, snapshot.params.min_chi_square);
  AppendU64(out, snapshot.params.top_k);
  AppendU8(out, snapshot.params.mine_lower_bounds ? 1 : 0);
  AppendU8(out, snapshot.params.report_all_rule_groups ? 1 : 0);
}

Status ParseMeta(std::string_view payload, const std::string& name,
                 RuleGroupSnapshot* out) {
  if (payload.size() != kMetaPayloadBytes) {
    return Err(name, "META payload is " + std::to_string(payload.size()) +
                         " bytes, want " +
                         std::to_string(kMetaPayloadBytes));
  }
  ByteReader reader(payload);
  std::uint64_t num_rows = 0;
  std::uint32_t consequent = 0;
  std::uint64_t min_support = 0;
  std::uint64_t top_k = 0;
  std::uint8_t mine_lb = 0;
  std::uint8_t report_all = 0;
  (void)reader.ReadU64(&num_rows);
  (void)reader.ReadU64(&out->fingerprint.dataset_hash);
  (void)reader.ReadU64(&out->fingerprint.num_rows);
  (void)reader.ReadU64(&out->fingerprint.num_items);
  (void)reader.ReadU32(&consequent);
  (void)reader.ReadU64(&min_support);
  (void)reader.ReadF64(&out->params.min_confidence);
  (void)reader.ReadF64(&out->params.min_chi_square);
  (void)reader.ReadU64(&top_k);
  (void)reader.ReadU8(&mine_lb);
  (void)reader.ReadU8(&report_all);
  if (num_rows > kMaxSnapshotRows) {
    return Err(name, "num_rows " + std::to_string(num_rows) +
                         " exceeds cap " +
                         std::to_string(kMaxSnapshotRows));
  }
  if (out->fingerprint.num_items > kMaxSnapshotItems) {
    return Err(name, "num_items " +
                         std::to_string(out->fingerprint.num_items) +
                         " exceeds cap " +
                         std::to_string(kMaxSnapshotItems));
  }
  if (consequent > 0xFF) {
    return Err(name, "consequent " + std::to_string(consequent) +
                         " is not a class label");
  }
  if (mine_lb > 1 || report_all > 1) {
    return Err(name, "boolean field is not 0/1");
  }
  if (!std::isfinite(out->params.min_confidence) ||
      !std::isfinite(out->params.min_chi_square)) {
    return Err(name, "non-finite threshold");
  }
  out->num_rows = static_cast<std::size_t>(num_rows);
  out->params.consequent = static_cast<ClassLabel>(consequent);
  out->params.min_support = static_cast<std::size_t>(min_support);
  out->params.top_k = static_cast<std::size_t>(top_k);
  out->params.mine_lower_bounds = mine_lb == 1;
  out->params.report_all_rule_groups = report_all == 1;
  return Status::Ok();
}

/// The size AppendGroups will append.
std::size_t GroupsPayloadBytes(const RuleGroupSnapshot& snapshot) {
  std::size_t bytes = 8;
  for (const RuleGroup& g : snapshot.groups) {
    bytes += kMinGroupBytes + 4 * g.antecedent.size() +
             8 * TrimmedWordCount(g.rows);
    for (const ItemVector& lb : g.lower_bounds) bytes += 4 + 4 * lb.size();
  }
  return bytes;
}

void AppendGroups(std::string* out, const RuleGroupSnapshot& snapshot) {
  AppendU64(out, snapshot.groups.size());
  for (const RuleGroup& g : snapshot.groups) {
    AppendU64(out, g.support_pos);
    AppendU64(out, g.support_neg);
    AppendF64(out, g.confidence);
    AppendF64(out, g.chi_square);
    AppendU8(out, g.lower_bounds_truncated ? 1 : 0);
    AppendItems(out, g.antecedent);
    AppendRowSet(out, g.rows);
    AppendU32(out, static_cast<std::uint32_t>(g.lower_bounds.size()));
    for (const ItemVector& lb : g.lower_bounds) AppendItems(out, lb);
  }
}

Status ParseGroups(std::string_view payload, const std::string& name,
                   RuleGroupSnapshot* out) {
  ByteReader reader(payload);
  std::uint64_t group_count = 0;
  if (!reader.ReadU64(&group_count)) {
    return Err(name, "truncated group count");
  }
  if (group_count > payload.size() / kMinGroupBytes) {
    return Err(name, "group count " + std::to_string(group_count) +
                         " exceeds payload");
  }
  out->groups.clear();
  out->groups.reserve(static_cast<std::size_t>(group_count));
  std::string why;
  for (std::uint64_t gi = 0; gi < group_count; ++gi) {
    const auto err = [&](const std::string& msg) {
      return Err(name, "group " + std::to_string(gi) + ": " + msg);
    };
    RuleGroup g;
    std::uint64_t support_pos = 0;
    std::uint64_t support_neg = 0;
    std::uint8_t flags = 0;
    if (!reader.ReadU64(&support_pos) || !reader.ReadU64(&support_neg) ||
        !reader.ReadF64(&g.confidence) || !reader.ReadF64(&g.chi_square) ||
        !reader.ReadU8(&flags)) {
      return err("truncated stats");
    }
    if (flags > 1) return err("unknown flag bits");
    if (!std::isfinite(g.confidence) || !std::isfinite(g.chi_square)) {
      return err("non-finite measure");
    }
    g.lower_bounds_truncated = flags == 1;
    // Bound each support by num_rows before summing: with raw u64s the
    // sum below could wrap and collide with the true row count.
    if (support_pos > out->num_rows || support_neg > out->num_rows) {
      return err("support exceeds num_rows");
    }
    g.support_pos = static_cast<std::size_t>(support_pos);
    g.support_neg = static_cast<std::size_t>(support_neg);
    if (!ParseItems(&reader, out->fingerprint.num_items, &g.antecedent,
                    &why)) {
      return err(why);
    }
    if (!ParseRowSet(&reader, out->num_rows, &g.rows, &why)) {
      return err(why);
    }
    if (g.rows.Count() != g.support_pos + g.support_neg) {
      return err("row count does not match supports");
    }
    std::uint32_t lb_count = 0;
    if (!reader.ReadU32(&lb_count)) return err("truncated lower bounds");
    if (lb_count > reader.remaining() / 4) {
      return err("lower-bound count exceeds payload");
    }
    g.lower_bounds.reserve(lb_count);
    for (std::uint32_t k = 0; k < lb_count; ++k) {
      ItemVector lb;
      if (!ParseItems(&reader, out->fingerprint.num_items, &lb, &why)) {
        return err(why);
      }
      g.lower_bounds.push_back(std::move(lb));
    }
    out->groups.push_back(std::move(g));
  }
  if (reader.remaining() != 0) {
    return Err(name, "trailing bytes in GRPS payload");
  }
  return Status::Ok();
}

/// Appends one section whose payload `append_payload` writes: exactly
/// `payload_bytes` of it.
template <typename AppendPayload>
void AppendSection(std::string* out, std::uint32_t tag,
                   std::size_t payload_bytes,
                   const AppendPayload& append_payload) {
  AppendU32(out, tag);
  AppendU64(out, payload_bytes);
  const std::size_t start = out->size();
  append_payload();
  FARMER_CHECK(out->size() - start == payload_bytes)
      << "section payload size disagrees with its header";
  AppendU32(out, Crc32(out->data() + start, payload_bytes));
}

}  // namespace

SnapshotParams SnapshotParams::FromMinerOptions(const MinerOptions& options) {
  SnapshotParams p;
  p.consequent = options.consequent;
  p.min_support = options.min_support;
  p.min_confidence = options.min_confidence;
  p.min_chi_square = options.min_chi_square;
  p.top_k = options.top_k;
  p.mine_lower_bounds = options.mine_lower_bounds;
  p.report_all_rule_groups = options.report_all_rule_groups;
  return p;
}

SnapshotFingerprint SnapshotFingerprint::FromDataset(
    const BinaryDataset& dataset) {
  SnapshotFingerprint fp;
  fp.dataset_hash = dataset.ContentHash();
  fp.num_rows = dataset.num_rows();
  fp.num_items = dataset.num_items();
  return fp;
}

std::string SerializeSnapshot(const RuleGroupSnapshot& snapshot) {
  const std::size_t groups_bytes = GroupsPayloadBytes(snapshot);
  std::string out;
  out.reserve(kHeaderBytes + 2 * kSectionOverheadBytes + kMetaPayloadBytes +
              groups_bytes);
  out.append(kMagic, sizeof(kMagic));
  AppendU32(&out, kSnapshotVersion);
  AppendU32(&out, 2);  // META + GRPS.
  AppendU32(&out, Crc32(out.data(), out.size()));
  AppendSection(&out, kTagMeta, kMetaPayloadBytes,
                [&] { AppendMeta(&out, snapshot); });
  AppendSection(&out, kTagGroups, groups_bytes,
                [&] { AppendGroups(&out, snapshot); });
  return out;
}

Status SaveSnapshot(const RuleGroupSnapshot& snapshot,
                    const std::string& path) {
  if (snapshot.num_rows > kMaxSnapshotRows) {
    return Status::InvalidArgument(
        "snapshot num_rows " + std::to_string(snapshot.num_rows) +
        " exceeds cap " + std::to_string(kMaxSnapshotRows));
  }
  if (snapshot.fingerprint.num_items > kMaxSnapshotItems) {
    return Status::InvalidArgument(
        "snapshot num_items " +
        std::to_string(snapshot.fingerprint.num_items) + " exceeds cap " +
        std::to_string(kMaxSnapshotItems));
  }
  for (const RuleGroup& g : snapshot.groups) {
    if (g.rows.size() != snapshot.num_rows) {
      return Status::InvalidArgument(
          "group row set is " + std::to_string(g.rows.size()) +
          " bits, want " + std::to_string(snapshot.num_rows));
    }
  }
  const std::string bytes = SerializeSnapshot(snapshot);
  std::ofstream os(path, std::ios::binary);
  if (!os) return Status::IoError("cannot open " + path + " for writing");
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  os.close();
  if (!os) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

Status LoadSnapshotFromBuffer(std::string_view data, const std::string& name,
                              RuleGroupSnapshot* out) {
  if (data.size() < kHeaderBytes) return Err(name, "truncated header");
  if (std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    return Err(name, "bad magic (not an FSNP snapshot)");
  }
  ByteReader header(data.substr(4, 12));
  std::uint32_t version = 0;
  std::uint32_t section_count = 0;
  std::uint32_t header_crc = 0;
  (void)header.ReadU32(&version);
  (void)header.ReadU32(&section_count);
  (void)header.ReadU32(&header_crc);
  if (version != kSnapshotVersion) {
    return Err(name, "unsupported snapshot version " +
                         std::to_string(version) + " (want " +
                         std::to_string(kSnapshotVersion) + ")");
  }
  if (header_crc != Crc32(data.data(), 12)) {
    return Err(name, "header checksum mismatch");
  }
  if (section_count != 2) {
    return Err(name,
               "expected 2 sections, got " + std::to_string(section_count));
  }

  RuleGroupSnapshot parsed;
  ByteReader reader(data.substr(kHeaderBytes));
  constexpr std::uint32_t kExpectedTags[2] = {kTagMeta, kTagGroups};
  for (std::uint32_t tag : kExpectedTags) {
    std::uint32_t found_tag = 0;
    std::uint64_t payload_size = 0;
    if (!reader.ReadU32(&found_tag) || !reader.ReadU64(&payload_size)) {
      return Err(name, "truncated section header");
    }
    if (found_tag != tag) {
      return Err(name, "unexpected section tag");
    }
    if (payload_size > reader.remaining() ||
        reader.remaining() - payload_size < 4) {
      return Err(name, "section payload exceeds file size");
    }
    std::string_view payload;
    std::uint32_t crc = 0;
    (void)reader.ReadView(static_cast<std::size_t>(payload_size), &payload);
    (void)reader.ReadU32(&crc);
    if (crc != Crc32(payload.data(), payload.size())) {
      return Err(name, "section checksum mismatch");
    }
    Status s = tag == kTagMeta ? ParseMeta(payload, name, &parsed)
                               : ParseGroups(payload, name, &parsed);
    if (!s.ok()) return s;
  }
  if (reader.remaining() != 0) {
    return Err(name, "trailing bytes after last section");
  }
  *out = std::move(parsed);
  return Status::Ok();
}

Status LoadSnapshot(const std::string& path, RuleGroupSnapshot* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return Status::IoError("read failed: " + path);
  return LoadSnapshotFromBuffer(buf.str(), path, out);
}

StatusOr<RuleGroupSnapshot> LoadSnapshot(const std::string& path) {
  RuleGroupSnapshot snapshot;
  const Status loaded = LoadSnapshot(path, &snapshot);
  if (!loaded.ok()) return loaded;
  return snapshot;
}

}  // namespace serve
}  // namespace farmer
