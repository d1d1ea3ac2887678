#ifndef FARMER_UTIL_WIRE_H_
#define FARMER_UTIL_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace farmer {
namespace wire {

/// Little-endian wire primitives and the length-prefixed frame layout
/// shared by the serve (FQP1) and farm (FMP1) binary protocols:
///
///   frame   u32 length | u8 opcode | payload (length - 1 bytes)
///
/// `length` counts the opcode byte plus the payload, so a complete
/// frame is at least 5 bytes on the wire and a length of 0 is always a
/// protocol error. The two protocols differ only in their 4-byte
/// connection preamble and their per-frame payload cap; the extraction
/// loop, the bounds discipline, and the scalar encodings live here so
/// both protocols run one implementation — the one the fuzz harnesses
/// (fuzz_serve_frame, fuzz_farm_frame) exercise.

void PutU8(std::string* out, std::uint8_t v);
void PutU32(std::string* out, std::uint32_t v);
void PutU64(std::string* out, std::uint64_t v);
/// IEEE-754 bit pattern, little-endian: a lossless round-trip for every
/// double including NaN payloads.
void PutF64(std::string* out, double v);
/// u32 byte count followed by the raw bytes.
void PutString(std::string* out, std::string_view s);

/// A bounds-checked little-endian reader over a frame payload. Every
/// Read* returns false instead of reading past the end; decoders finish
/// with AtEnd() to reject trailing bytes. After a failed read the
/// reader position is unspecified — callers must bail out immediately.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool ReadU8(std::uint8_t* out);
  bool ReadU32(std::uint32_t* out);
  bool ReadU64(std::uint64_t* out);
  bool ReadF64(double* out);
  /// Counterpart of PutString. The view aliases the payload buffer.
  bool ReadString(std::string_view* out);

  [[nodiscard]] bool AtEnd() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

enum class FrameExtract {
  kComplete,
  kNeedMore,
  kError,
};

/// Cuts the first complete frame off `buffer`. kComplete fills
/// *consumed (4 + length), *opcode, and *payload (a view into
/// `buffer`); kNeedMore means the buffer holds only a frame prefix;
/// kError fills *error (zero length, or length above 1 + max_payload)
/// and the connection must close — the stream cannot resynchronize.
FrameExtract ExtractFrame(std::string_view buffer, std::size_t max_payload,
                          std::size_t* consumed, std::uint8_t* opcode,
                          std::string_view* payload, std::string* error);

/// Appends one frame (length prefix, opcode, payload) to *out.
void AppendFrame(std::string* out, std::uint8_t opcode,
                 std::string_view payload);

/// How a connection's first bytes relate to one preamble.
enum class PreambleMatch {
  kMismatch,  // Can never become the preamble.
  kPartial,   // A proper prefix of it so far (empty included).
  kFull,      // Starts with the whole preamble.
};

/// The one preamble-prefix test behind both protocol detectors
/// (serve::DetectProtocol, farm::DetectFarmProtocol).
PreambleMatch MatchPreamble(std::string_view head, std::string_view preamble);

}  // namespace wire
}  // namespace farmer

#endif  // FARMER_UTIL_WIRE_H_
