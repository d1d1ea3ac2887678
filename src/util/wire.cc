#include "util/wire.h"

#include <algorithm>
#include <cstring>

namespace farmer {
namespace wire {

void PutU8(std::string* out, std::uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, std::uint32_t v) {
  out->push_back(static_cast<char>(v & 0xFF));
  out->push_back(static_cast<char>((v >> 8) & 0xFF));
  out->push_back(static_cast<char>((v >> 16) & 0xFF));
  out->push_back(static_cast<char>((v >> 24) & 0xFF));
}

void PutU64(std::string* out, std::uint64_t v) {
  PutU32(out, static_cast<std::uint32_t>(v & 0xFFFFFFFFu));
  PutU32(out, static_cast<std::uint32_t>(v >> 32));
}

void PutF64(std::string* out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<std::uint32_t>(s.size()));
  out->append(s);
}

bool Reader::ReadU8(std::uint8_t* out) {
  if (data_.size() - pos_ < 1) return false;
  *out = static_cast<std::uint8_t>(data_[pos_]);
  pos_ += 1;
  return true;
}

bool Reader::ReadU32(std::uint32_t* out) {
  if (data_.size() - pos_ < 4) return false;
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) |
        static_cast<std::uint8_t>(data_[pos_ + static_cast<std::size_t>(i)]);
  }
  *out = v;
  pos_ += 4;
  return true;
}

bool Reader::ReadU64(std::uint64_t* out) {
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;
  if (!ReadU32(&lo) || !ReadU32(&hi)) return false;
  *out = (static_cast<std::uint64_t>(hi) << 32) | lo;
  return true;
}

bool Reader::ReadF64(double* out) {
  std::uint64_t bits = 0;
  if (!ReadU64(&bits)) return false;
  std::memcpy(out, &bits, sizeof(*out));
  return true;
}

bool Reader::ReadString(std::string_view* out) {
  std::uint32_t len = 0;
  if (!ReadU32(&len)) return false;
  if (data_.size() - pos_ < len) return false;
  *out = data_.substr(pos_, len);
  pos_ += len;
  return true;
}

FrameExtract ExtractFrame(std::string_view buffer, std::size_t max_payload,
                          std::size_t* consumed, std::uint8_t* opcode,
                          std::string_view* payload, std::string* error) {
  if (buffer.size() < 4) return FrameExtract::kNeedMore;
  std::uint32_t length = 0;
  for (int i = 3; i >= 0; --i) {
    length = (length << 8) |
             static_cast<std::uint8_t>(buffer[static_cast<std::size_t>(i)]);
  }
  if (length < 1) {
    *error = "frame length 0 (a frame is at least its opcode byte)";
    return FrameExtract::kError;
  }
  if (length > 1 + max_payload) {
    *error = "frame length " + std::to_string(length) + " exceeds " +
             std::to_string(1 + max_payload) + " bytes";
    return FrameExtract::kError;
  }
  if (buffer.size() - 4 < length) return FrameExtract::kNeedMore;
  *opcode = static_cast<std::uint8_t>(buffer[4]);
  *payload = buffer.substr(5, length - 1);
  *consumed = 4 + static_cast<std::size_t>(length);
  return FrameExtract::kComplete;
}

void AppendFrame(std::string* out, std::uint8_t opcode,
                 std::string_view payload) {
  PutU32(out, static_cast<std::uint32_t>(1 + payload.size()));
  out->push_back(static_cast<char>(opcode));
  out->append(payload);
}

PreambleMatch MatchPreamble(std::string_view head,
                            std::string_view preamble) {
  const std::size_t n = std::min(head.size(), preamble.size());
  if (head.substr(0, n) != preamble.substr(0, n)) {
    return PreambleMatch::kMismatch;
  }
  return n == preamble.size() ? PreambleMatch::kFull : PreambleMatch::kPartial;
}

}  // namespace wire
}  // namespace farmer
