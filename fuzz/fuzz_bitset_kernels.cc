/// Fuzz harness for the SIMD bitset kernels.
///
/// Decodes the input bytes into a pair of bitsets plus a prefix limit,
/// then forces every kernel tier compiled into this binary and usable
/// on this host (scalar, sse42, avx2, avx512) in turn and cross-checks
/// each word-parallel Bitset entry point against the bit-by-bit ref::
/// oracle and against the scalar tier's answer. The tiers must be
/// observationally identical; any divergence — including one only
/// visible in tail words or at odd prefix limits — is a bug.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/bitset.h"
#include "util/bitset_ref.h"
#include "util/simd/simd.h"

namespace {

using farmer::Bitset;

struct KernelResults {
  std::size_t count;
  std::size_t count_prefix;
  std::size_t and_count;
  std::size_t and_count_prefix;
  bool none;
  bool intersects;
  bool is_subset_of;
  Bitset and_into;
  Bitset and_not_into;
  Bitset or_and;
  Bitset and_inplace;
  Bitset or_inplace;
  Bitset and_not_inplace;

  bool operator==(const KernelResults& o) const {
    return count == o.count && count_prefix == o.count_prefix &&
           and_count == o.and_count &&
           and_count_prefix == o.and_count_prefix && none == o.none &&
           intersects == o.intersects && is_subset_of == o.is_subset_of &&
           and_into == o.and_into && and_not_into == o.and_not_into &&
           or_and == o.or_and && and_inplace == o.and_inplace &&
           or_inplace == o.or_inplace &&
           and_not_inplace == o.and_not_inplace;
  }
};

// Runs every dispatching Bitset entry point on (a, b, c, pos_limit)
// under the currently active kernel table; c is the accumulator base
// for OrAnd.
KernelResults RunKernels(const Bitset& a, const Bitset& b, const Bitset& c,
                         std::size_t pos_limit) {
  KernelResults r;
  r.count = a.Count();
  r.count_prefix = a.CountPrefix(pos_limit);
  r.and_count = a.AndCount(b);
  r.and_count_prefix = a.AndCountPrefix(b, pos_limit);
  r.none = a.None();
  r.intersects = a.Intersects(b);
  r.is_subset_of = a.IsSubsetOf(b);

  Bitset::AndInto(a, b, &r.and_into);
  Bitset::AndNotInto(a, b, &r.and_not_into);
  r.or_and = c;
  r.or_and.OrAnd(a, b);
  r.and_inplace = a;
  r.and_inplace &= b;
  r.or_inplace = a;
  r.or_inplace |= b;
  r.and_not_inplace = a;
  r.and_not_inplace -= b;
  return r;
}

// The same answers recomputed bit by bit through the ref:: oracle (plus
// trivial loops for the predicates the oracle does not cover).
KernelResults RunOracle(const Bitset& a, const Bitset& b, const Bitset& c,
                        std::size_t pos_limit) {
  KernelResults r;
  r.count = farmer::ref::AndCount(a, a);
  r.count_prefix = farmer::ref::CountPrefix(a, pos_limit);
  r.and_count = farmer::ref::AndCount(a, b);
  r.and_count_prefix = farmer::ref::AndCountPrefix(a, b, pos_limit);
  r.none = true;
  r.intersects = false;
  r.is_subset_of = true;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.Test(i)) r.none = false;
    if (a.Test(i) && b.Test(i)) r.intersects = true;
    if (a.Test(i) && !b.Test(i)) r.is_subset_of = false;
  }
  r.and_into = farmer::ref::AndInto(a, b);
  r.and_not_into = farmer::ref::AndNotInto(a, b);
  r.or_and = farmer::ref::OrAnd(c, a, b);
  r.and_inplace = farmer::ref::AndInto(a, b);
  r.or_inplace = farmer::ref::OrAnd(a, b, b);
  r.and_not_inplace = farmer::ref::AndNotInto(a, b);
  return r;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 5) return 0;

  // Bytes 0-1 pick the size (1..1500 bits: single-word, multi-word, and
  // non-multiple-of-512 tails all reachable), bytes 2-3 the prefix limit
  // (may exceed the size to exercise clamping), the rest fill the two
  // sets — wrapping, so every input byte shapes both.
  const std::size_t num_bits =
      1 + ((static_cast<std::size_t>(data[0]) |
            (static_cast<std::size_t>(data[1]) << 8)) %
           1500);
  const std::size_t pos_limit = (static_cast<std::size_t>(data[2]) |
                                 (static_cast<std::size_t>(data[3]) << 8)) %
                                (num_bits + 64);
  const std::uint8_t* fill = data + 4;
  const std::size_t fill_size = size - 4;

  Bitset a(num_bits), b(num_bits), c(num_bits);
  for (std::size_t i = 0; i < num_bits; ++i) {
    if ((fill[(i / 8) % fill_size] >> (i % 8)) & 1) a.Set(i);
    const std::size_t j = i + 3 * num_bits;
    if ((fill[(j / 8) % fill_size] >> (j % 8)) & 1) b.Set(i);
    const std::size_t k = i + 6 * num_bits;
    if ((fill[(k / 8) % fill_size] >> (k % 8)) & 1) c.Set(i);
  }

  const farmer::simd::Level prior = farmer::simd::ActiveLevel();
  bool have_scalar = false;
  KernelResults scalar;
  for (int l = 0; l < farmer::simd::kNumLevels; ++l) {
    const auto level = static_cast<farmer::simd::Level>(l);
    if (!farmer::simd::LevelSupported(level)) continue;
    if (!farmer::simd::ForceLevel(level)) __builtin_trap();
    const KernelResults got = RunKernels(a, b, c, pos_limit);
    // Every tier must match the bit-by-bit oracle...
    if (!(got == RunOracle(a, b, c, pos_limit))) __builtin_trap();
    // ...and, transitively redundant but cheap, the scalar tier.
    if (!have_scalar) {
      scalar = got;
      have_scalar = true;
    } else if (!(got == scalar)) {
      __builtin_trap();
    }
  }
  if (!farmer::simd::ForceLevel(prior)) __builtin_trap();
  return 0;
}
