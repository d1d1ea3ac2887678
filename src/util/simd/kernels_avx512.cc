// AVX-512 kernel table: 512-bit lanes, eight bitset words per step,
// compiled with -mavx512f -mavx512bw -mavx512vl -mpopcnt (per-file; see
// src/util/CMakeLists.txt).
//
// Popcount is the same Muła nibble-LUT as the AVX2 unit, widened: the
// F+BW baseline runs on every AVX-512 server core, unlike VPOPCNTDQ
// (Ice Lake+), which would halve the instruction count but SIGILL on
// Skylake-X — runtime dispatch selects tiers, not instructions, so the
// tier must be uniform. Predicates use VPTESTMQ mask compares (F). Tails
// fall back to the portable loops compiled under these flags.

#include <cstddef>
#include <cstdint>

#include "util/simd/simd.h"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__)

#include <immintrin.h>

// GCC's AVX-512 headers build VPANDN etc. on _mm512_undefined_epi32,
// which -Wmaybe-uninitialized flags through inlining (GCC PR105593).
// Header-internal false positive, not this file's code.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif

namespace farmer {
namespace simd {
namespace {

#include "util/simd/kernels_portable.inc"

constexpr std::size_t kStep = 8;  // 64-bit words per 512-bit vector.

inline __m512i Popcount512(__m512i v) {
  const __m512i lut = _mm512_broadcast_i32x4(
      _mm_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4));
  const __m512i low_mask = _mm512_set1_epi8(0x0f);
  const __m512i lo = _mm512_and_si512(v, low_mask);
  const __m512i hi = _mm512_and_si512(_mm512_srli_epi16(v, 4), low_mask);
  const __m512i counts = _mm512_add_epi8(_mm512_shuffle_epi8(lut, lo),
                                         _mm512_shuffle_epi8(lut, hi));
  return _mm512_sad_epu8(counts, _mm512_setzero_si512());
}

std::size_t Count(const std::uint64_t* w, std::size_t n) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + kStep <= n; i += kStep) {
    acc = _mm512_add_epi64(acc, Popcount512(_mm512_loadu_si512(w + i)));
  }
  return static_cast<std::size_t>(_mm512_reduce_add_epi64(acc)) +
         PortableCount(w + i, n - i);
}

std::size_t AndCount(const std::uint64_t* a, const std::uint64_t* b,
                     std::size_t n) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + kStep <= n; i += kStep) {
    const __m512i va = _mm512_loadu_si512(a + i);
    const __m512i vb = _mm512_loadu_si512(b + i);
    acc = _mm512_add_epi64(acc, Popcount512(_mm512_and_si512(va, vb)));
  }
  return static_cast<std::size_t>(_mm512_reduce_add_epi64(acc)) +
         PortableAndCount(a + i, b + i, n - i);
}

bool Intersects(const std::uint64_t* a, const std::uint64_t* b,
                std::size_t n) {
  std::size_t i = 0;
  for (; i + kStep <= n; i += kStep) {
    const __m512i va = _mm512_loadu_si512(a + i);
    const __m512i vb = _mm512_loadu_si512(b + i);
    if (_mm512_test_epi64_mask(va, vb) != 0) return true;
  }
  return PortableIntersects(a + i, b + i, n - i);
}

bool IsSubsetOf(const std::uint64_t* a, const std::uint64_t* b,
                std::size_t n) {
  std::size_t i = 0;
  for (; i + kStep <= n; i += kStep) {
    const __m512i va = _mm512_loadu_si512(a + i);
    const __m512i vb = _mm512_loadu_si512(b + i);
    // VPANDNQ: ~vb & va — any surviving bit breaks the subset.
    const __m512i stray = _mm512_andnot_si512(vb, va);
    if (_mm512_test_epi64_mask(stray, stray) != 0) return false;
  }
  return PortableIsSubsetOf(a + i, b + i, n - i);
}

bool None(const std::uint64_t* w, std::size_t n) {
  std::size_t i = 0;
  for (; i + kStep <= n; i += kStep) {
    const __m512i v = _mm512_loadu_si512(w + i);
    if (_mm512_test_epi64_mask(v, v) != 0) return false;
  }
  return PortableNone(w + i, n - i);
}

void AndInto(const std::uint64_t* a, const std::uint64_t* b,
             std::uint64_t* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + kStep <= n; i += kStep) {
    const __m512i va = _mm512_loadu_si512(a + i);
    const __m512i vb = _mm512_loadu_si512(b + i);
    _mm512_storeu_si512(out + i, _mm512_and_si512(va, vb));
  }
  PortableAndInto(a + i, b + i, out + i, n - i);
}

void AndNotInto(const std::uint64_t* a, const std::uint64_t* b,
                std::uint64_t* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + kStep <= n; i += kStep) {
    const __m512i va = _mm512_loadu_si512(a + i);
    const __m512i vb = _mm512_loadu_si512(b + i);
    _mm512_storeu_si512(out + i, _mm512_andnot_si512(vb, va));
  }
  PortableAndNotInto(a + i, b + i, out + i, n - i);
}

void OrAnd(std::uint64_t* dst, const std::uint64_t* a,
           const std::uint64_t* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + kStep <= n; i += kStep) {
    const __m512i va = _mm512_loadu_si512(a + i);
    const __m512i vb = _mm512_loadu_si512(b + i);
    const __m512i vd = _mm512_loadu_si512(dst + i);
    // VPTERNLOGQ 0xF8 = d | (a & b) in one op.
    _mm512_storeu_si512(dst + i, _mm512_ternarylogic_epi64(vd, va, vb, 0xF8));
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
    const __m512i vd = _mm512_loadu_si512(dst + i);
    const __m512i vs = _mm512_loadu_si512(src + i);
    _mm512_storeu_si512(dst + i, _mm512_or_si512(vd, vs));
  }
  PortableOrInplace(dst + i, src + i, n - i);
}

void AndNotInplace(std::uint64_t* dst, const std::uint64_t* src,
                   std::size_t n) {
  AndNotInto(dst, src, dst, n);
}

}  // namespace

const KernelTable& Avx512Kernels() {
  static constexpr KernelTable kTable = {
      Level::kAvx512, "avx512",   Count,      AndCount,   Intersects,
      IsSubsetOf,     None,       AndInto,    AndNotInto, OrAnd,
      AndInplace,     OrInplace,  AndNotInplace,
  };
  return kTable;
}

}  // namespace simd
}  // namespace farmer

#else  // !AVX-512 F+BW+VL

// Built without the tier's flags (unsupported toolchain or non-x86
// target): alias scalar so the symbol links; the dispatcher sees the
// mismatched table level and reports the tier as not compiled.
namespace farmer {
namespace simd {
const KernelTable& Avx512Kernels() { return ScalarKernels(); }
}  // namespace simd
}  // namespace farmer

#endif  // AVX-512 F+BW+VL
