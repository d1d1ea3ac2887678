// AVX2 kernel table: 256-bit lanes, four bitset words per step,
// compiled with -mavx2 -mpopcnt (per-file; see src/util/CMakeLists.txt).
//
// Popcount uses the Muła nibble-LUT: split each byte into nibbles,
// VPSHUFB both through a 16-entry bit-count table, then VPSADBW folds
// the per-byte counts into one 64-bit counter per lane — no cross-lane
// work until the final reduction. Emptiness-style predicates use
// VPTEST. Tails shorter than a vector fall back to the portable loops,
// compiled here under the same flags (hardware POPCNT).
//
// Loads/stores are unaligned ops: Bitset's backing store is 64-byte
// aligned anyway (util/aligned.h), and VMOVDQU on an aligned address
// costs the same as VMOVDQA on every AVX2-era core.

#include <cstddef>
#include <cstdint>

#include "util/simd/simd.h"

#if defined(__AVX2__)

#include <immintrin.h>

// GCC's AVX headers build several intrinsics on undefined-value
// helpers, which -Wmaybe-uninitialized flags through inlining (GCC
// PR105593). Header-internal false positive, not this file's code.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif

namespace farmer {
namespace simd {
namespace {

#include "util/simd/kernels_portable.inc"

constexpr std::size_t kStep = 4;  // 64-bit words per 256-bit vector.

inline __m256i Popcount256(__m256i v) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i counts = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                         _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(counts, _mm256_setzero_si256());
}

inline std::size_t Reduce64x4(__m256i acc) {
  const __m128i lo = _mm256_castsi256_si128(acc);
  const __m128i hi = _mm256_extracti128_si256(acc, 1);
  const __m128i sum = _mm_add_epi64(lo, hi);
  return static_cast<std::size_t>(
      static_cast<std::uint64_t>(_mm_cvtsi128_si64(sum)) +
      static_cast<std::uint64_t>(
          _mm_cvtsi128_si64(_mm_unpackhi_epi64(sum, sum))));
}

std::size_t Count(const std::uint64_t* w, std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + kStep <= n; i += kStep) {
    acc = _mm256_add_epi64(
        acc, Popcount256(_mm256_loadu_si256(
                 reinterpret_cast<const __m256i*>(w + i))));
  }
  return Reduce64x4(acc) + PortableCount(w + i, n - i);
}

std::size_t AndCount(const std::uint64_t* a, const std::uint64_t* b,
                     std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + kStep <= n; i += kStep) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    acc = _mm256_add_epi64(acc, Popcount256(_mm256_and_si256(va, vb)));
  }
  return Reduce64x4(acc) + PortableAndCount(a + i, b + i, n - i);
}

bool Intersects(const std::uint64_t* a, const std::uint64_t* b,
                std::size_t n) {
  std::size_t i = 0;
  for (; i + kStep <= n; i += kStep) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    if (!_mm256_testz_si256(va, vb)) return true;
  }
  return PortableIntersects(a + i, b + i, n - i);
}

bool IsSubsetOf(const std::uint64_t* a, const std::uint64_t* b,
                std::size_t n) {
  std::size_t i = 0;
  for (; i + kStep <= n; i += kStep) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    // VPTEST sets CF when (~vb & va) == 0 — exactly the subset test.
    if (!_mm256_testc_si256(vb, va)) return false;
  }
  return PortableIsSubsetOf(a + i, b + i, n - i);
}

bool None(const std::uint64_t* w, std::size_t n) {
  std::size_t i = 0;
  for (; i + kStep <= n; i += kStep) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + i));
    if (!_mm256_testz_si256(v, v)) return false;
  }
  return PortableNone(w + i, n - i);
}

void AndInto(const std::uint64_t* a, const std::uint64_t* b,
             std::uint64_t* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + kStep <= n; i += kStep) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_and_si256(va, vb));
  }
  PortableAndInto(a + i, b + i, out + i, n - i);
}

void AndNotInto(const std::uint64_t* a, const std::uint64_t* b,
                std::uint64_t* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + kStep <= n; i += kStep) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    // VPANDN computes ~first & second, so pass b first.
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_andnot_si256(vb, va));
  }
  PortableAndNotInto(a + i, b + i, out + i, n - i);
}

void OrAnd(std::uint64_t* dst, const std::uint64_t* a,
           const std::uint64_t* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + kStep <= n; i += kStep) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i vd =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst + i),
        _mm256_or_si256(vd, _mm256_and_si256(va, vb)));
  }
  PortableOrAnd(dst + i, a + i, b + i, n - i);
}

void AndInplace(std::uint64_t* dst, const std::uint64_t* src,
                std::size_t n) {
  AndInto(dst, src, dst, n);
}

void OrInplace(std::uint64_t* dst, const std::uint64_t* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + kStep <= n; i += kStep) {
    const __m256i vd =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i vs =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_or_si256(vd, vs));
  }
  PortableOrInplace(dst + i, src + i, n - i);
}

void AndNotInplace(std::uint64_t* dst, const std::uint64_t* src,
                   std::size_t n) {
  AndNotInto(dst, src, dst, n);
}

}  // namespace

const KernelTable& Avx2Kernels() {
  static constexpr KernelTable kTable = {
      Level::kAvx2, "avx2",     Count,      AndCount,   Intersects,
      IsSubsetOf,   None,       AndInto,    AndNotInto, OrAnd,
      AndInplace,   OrInplace,  AndNotInplace,
  };
  return kTable;
}

}  // namespace simd
}  // namespace farmer

#else  // !defined(__AVX2__)

// The build configured this file without AVX2 flags (unsupported
// toolchain or non-x86 target): alias the tier to scalar so the symbol
// still links; simd.cc reports it as not compiled.
namespace farmer {
namespace simd {
const KernelTable& Avx2Kernels() { return ScalarKernels(); }
}  // namespace simd
}  // namespace farmer

#endif  // defined(__AVX2__)
