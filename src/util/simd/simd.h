#ifndef FARMER_UTIL_SIMD_SIMD_H_
#define FARMER_UTIL_SIMD_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace farmer {
namespace simd {

/// The instruction-set tiers the word-kernel dispatcher knows about,
/// widest last. A tier is *usable* only when it was compiled into the
/// binary (the toolchain accepted its flags) and the host CPU reports
/// the matching CPUID features.
enum class Level : int {
  kScalar = 0,  // Portable C++, no ISA assumptions.
  kSse42 = 1,   // Hardware POPCNT (the SSE4.2 feature bundle).
  kAvx2 = 2,    // 256-bit lanes, nibble-LUT popcount.
  kAvx512 = 3,  // 512-bit lanes (F+BW+VL), nibble-LUT popcount.
};

inline constexpr int kNumLevels = 4;

/// One resolved set of word-array kernels. Bitset calls through the
/// process-wide active table (Active()) for every word-parallel
/// operation, so selecting a level once at startup retargets mining,
/// serving, and post-mining counting together.
///
/// All pointers take word counts, not bit counts; callers own tail-bit
/// masking. `out` may alias `a` or `b` exactly (the miner's in-place
/// intersection scratch); partial overlap is undefined.
struct KernelTable {
  Level level;
  const char* name;

  /// Σ popcount(w[i]).
  std::size_t (*count)(const std::uint64_t* w, std::size_t n);
  /// Σ popcount(a[i] & b[i]).
  std::size_t (*and_count)(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t n);
  /// Any (a[i] & b[i]) != 0.
  bool (*intersects)(const std::uint64_t* a, const std::uint64_t* b,
                     std::size_t n);
  /// All (a[i] & ~b[i]) == 0.
  bool (*is_subset_of)(const std::uint64_t* a, const std::uint64_t* b,
                       std::size_t n);
  /// All w[i] == 0.
  bool (*none)(const std::uint64_t* w, std::size_t n);
  /// out[i] = a[i] & b[i].
  void (*and_into)(const std::uint64_t* a, const std::uint64_t* b,
                   std::uint64_t* out, std::size_t n);
  /// out[i] = a[i] & ~b[i].
  void (*and_not_into)(const std::uint64_t* a, const std::uint64_t* b,
                       std::uint64_t* out, std::size_t n);
  /// dst[i] |= a[i] & b[i].
  void (*or_and)(std::uint64_t* dst, const std::uint64_t* a,
                 const std::uint64_t* b, std::size_t n);
  /// dst[i] &= src[i].
  void (*and_inplace)(std::uint64_t* dst, const std::uint64_t* src,
                      std::size_t n);
  /// dst[i] |= src[i].
  void (*or_inplace)(std::uint64_t* dst, const std::uint64_t* src,
                     std::size_t n);
  /// dst[i] &= ~src[i].
  void (*and_not_inplace)(std::uint64_t* dst, const std::uint64_t* src,
                          std::size_t n);
};

/// Per-tier tables. Each lives in its own translation unit compiled
/// with exactly that tier's -m flags (see src/util/CMakeLists.txt);
/// tiers the toolchain could not compile alias the scalar table and
/// report LevelCompiled() == false.
const KernelTable& ScalarKernels();
const KernelTable& Sse42Kernels();
const KernelTable& Avx2Kernels();
const KernelTable& Avx512Kernels();

/// "scalar" / "sse42" / "avx2" / "avx512".
const char* LevelName(Level level);

/// Parses a LevelName (not "auto"). Returns false on unknown text.
bool ParseLevel(const std::string& text, Level* out);

/// True when the tier's translation unit was built with its vector
/// flags (always true for kScalar).
bool LevelCompiled(Level level);

/// True when LevelCompiled(level) and the host CPU reports the CPUID
/// features the tier's code emits.
bool LevelSupported(Level level);

/// The widest supported level on this host/binary.
Level DetectBestLevel();

/// The table for `level`; fatal-checks LevelSupported(level).
const KernelTable& TableFor(Level level);

/// Comma-separated LevelNames of every supported level, narrowest
/// first — for error messages and the CLI's `simd` report.
std::string SupportedLevelsCsv();

/// The process-wide active table. First use resolves it: the
/// FARMER_SIMD environment variable when set ("auto" or a LevelName;
/// anything unparseable or unsupported on this host fatal-checks —
/// a forced level must never silently fall back), otherwise
/// DetectBestLevel(). Subsequent calls are one relaxed atomic load.
const KernelTable& Active();

/// Level of the active table.
Level ActiveLevel();

/// Points Active() at `level`'s table. Returns false (and changes
/// nothing) when the level is not supported here. Process-global and
/// not synchronized against in-flight kernel calls: switch levels only
/// at startup or between runs (tests, benches), never mid-mine.
bool ForceLevel(Level level);

/// ForceLevel by name; "auto" (or "") re-runs DetectBestLevel().
/// Returns false on unknown names and unsupported levels alike.
bool Configure(const std::string& spec);

}  // namespace simd
}  // namespace farmer

#endif  // FARMER_UTIL_SIMD_SIMD_H_
