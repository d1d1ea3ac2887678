#ifndef FARMER_UTIL_CRC32_H_
#define FARMER_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace farmer {

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320), the checksum used by the
/// snapshot store to detect truncated or bit-flipped sections. Reflected
/// table-driven implementation, eight bytes per step (slicing-by-8);
/// matches zlib's crc32().
///
/// Incremental use: pass the previous return value as `seed` to extend a
/// running checksum over multiple buffers.
std::uint32_t Crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);

}  // namespace farmer

#endif  // FARMER_UTIL_CRC32_H_
