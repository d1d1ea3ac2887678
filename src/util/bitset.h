#ifndef FARMER_UTIL_BITSET_H_
#define FARMER_UTIL_BITSET_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/aligned.h"

namespace farmer {

/// A dynamically sized bit set.
///
/// Used throughout the miners for row-support sets (a few hundred bits) and
/// for item masks local to an antecedent in MineLB. The interface mirrors
/// `std::bitset` where practical but supports run-time sizing and the set
/// algebra the miners need (subset/superset tests, intersection counts,
/// iteration over set bits).
class Bitset {
 public:
  /// Backing storage: 64-bit words on 64-byte boundaries, so the widest
  /// SIMD kernels (src/util/simd/) never issue a load that splits a
  /// cache line. Same element layout as std::vector<std::uint64_t> —
  /// only the allocation's starting address differs.
  using WordVector =
      std::vector<std::uint64_t, AlignedAllocator<std::uint64_t, 64>>;

  Bitset() = default;

  /// Creates a bitset with `num_bits` bits, all clear.
  explicit Bitset(std::size_t num_bits)
      : num_bits_(num_bits), words_((num_bits + 63) / 64, 0) {}

  Bitset(const Bitset&) = default;
  Bitset& operator=(const Bitset&) = default;
  Bitset(Bitset&&) = default;
  Bitset& operator=(Bitset&&) = default;

  /// Number of bits this set can hold.
  std::size_t size() const { return num_bits_; }

  /// Grows (or shrinks) to `num_bits`; new bits are clear.
  void Resize(std::size_t num_bits);

  /// Sets bit `pos` (must be < size()).
  void Set(std::size_t pos) { words_[pos >> 6] |= (kOne << (pos & 63)); }

  /// Clears bit `pos` (must be < size()).
  void Reset(std::size_t pos) { words_[pos >> 6] &= ~(kOne << (pos & 63)); }

  /// Clears every bit.
  void ResetAll();

  /// Clears every bit at positions < `pos_limit` (clamped to size()).
  /// The miner uses this to derive a spawned subtree's candidate mask
  /// ("rows strictly after r") from a shared parent snapshot without an
  /// extra scratch bitset.
  void ResetPrefix(std::size_t pos_limit);

  /// Sets every bit in [0, size()).
  void SetAll();

  /// Returns bit `pos` (must be < size()).
  [[nodiscard]] bool Test(std::size_t pos) const {
    return (words_[pos >> 6] >> (pos & 63)) & 1u;
  }

  /// Number of set bits.
  [[nodiscard]] std::size_t Count() const;

  /// Number of set bits at positions < `pos_limit` (clamped to size()).
  [[nodiscard]] std::size_t CountPrefix(std::size_t pos_limit) const;

  /// True when no bit is set.
  [[nodiscard]] bool None() const;

  /// True when at least one bit is set.
  [[nodiscard]] bool Any() const { return !None(); }

  /// True when every bit of *this is also set in `other`.
  /// Requires other.size() == size().
  [[nodiscard]] bool IsSubsetOf(const Bitset& other) const;

  /// True when IsSubsetOf(other) and the sets differ.
  [[nodiscard]] bool IsProperSubsetOf(const Bitset& other) const {
    return IsSubsetOf(other) && *this != other;
  }

  /// True when the two sets share at least one bit.
  [[nodiscard]] bool Intersects(const Bitset& other) const;

  /// Number of bits set in both *this and `other`.
  [[nodiscard]] std::size_t IntersectCount(const Bitset& other) const;

  /// Synonym for IntersectCount, named for the miner's conditional-table
  /// kernels: |*this ∩ other| in one word-parallel pass.
  [[nodiscard]] std::size_t AndCount(const Bitset& other) const {
    return IntersectCount(other);
  }

  /// |*this ∩ other| restricted to positions < `pos_limit`. The FARMER
  /// miner uses this to count positive-class rows (a prefix of the row
  /// order) inside a tuple's candidate set without materializing the
  /// intersection.
  [[nodiscard]] std::size_t AndCountPrefix(const Bitset& other,
                                           std::size_t pos_limit) const;

  /// out = a & b without reallocating out's storage when capacities allow
  /// (the borrowed-buffer variant of operator&). a and b must be the same
  /// size.
  static void AndInto(const Bitset& a, const Bitset& b, Bitset* out);

  /// out = a & ~b, same storage-reuse contract as AndInto.
  static void AndNotInto(const Bitset& a, const Bitset& b, Bitset* out);

  /// *this |= (a & b) in a single word-parallel pass; a and b must be the
  /// same size as *this.
  void OrAnd(const Bitset& a, const Bitset& b);

  /// In-place union / intersection / difference.
  Bitset& operator|=(const Bitset& other);
  Bitset& operator&=(const Bitset& other);
  Bitset& operator-=(const Bitset& other);

  friend Bitset operator|(Bitset a, const Bitset& b) { return a |= b; }
  friend Bitset operator&(Bitset a, const Bitset& b) { return a &= b; }
  friend Bitset operator-(Bitset a, const Bitset& b) { return a -= b; }

  friend bool operator==(const Bitset& a, const Bitset& b) {
    return a.num_bits_ == b.num_bits_ && a.words_ == b.words_;
  }
  friend bool operator!=(const Bitset& a, const Bitset& b) { return !(a == b); }

  /// Index of the first set bit, or size() when empty.
  [[nodiscard]] std::size_t FindFirst() const;

  /// Index of the first set bit strictly after `pos`, or size() when none.
  [[nodiscard]] std::size_t FindNext(std::size_t pos) const;

  /// Calls `fn(pos)` for every set bit in increasing order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t word = words_[w];
      while (word != 0) {
        const int bit = __builtin_ctzll(word);
        fn(w * 64 + static_cast<std::size_t>(bit));
        word &= word - 1;
      }
    }
  }

  /// Indices of the set bits, ascending.
  std::vector<std::size_t> ToVector() const;

  /// The backing 64-bit words, bit `pos` at word `pos / 64` bit
  /// `pos % 64`, tail bits clear. For serializers (the snapshot store's
  /// compact row-set encoding) and the miner's occurrence delivery;
  /// everything else should go through the set-algebra interface.
  const WordVector& words() const { return words_; }

  /// Mutable backing words, in the layout of words(). Writers must leave
  /// every bit at positions >= size() clear. For the miner's occurrence
  /// delivery, which builds a child's row sets word by word.
  std::uint64_t* mutable_words() { return words_.data(); }

  /// "{1,4,7}"-style rendering, for test failure messages.
  std::string ToString() const;

  /// Stable hash of the contents (FNV-1a over the words).
  [[nodiscard]] std::size_t Hash() const;

  /// Contract check of the representation invariants: the word vector is
  /// exactly ⌈size()/64⌉ long and every bit at positions >= size() is
  /// clear (the kernels' popcounts and subset tests silently assume a
  /// zero tail). Fails a FARMER_CHECK on violation. O(words).
  void CheckInvariants() const;

 private:
  static constexpr std::uint64_t kOne = 1;

  // Clears bits at positions >= num_bits_ in the last word.
  void TrimTail();

  std::size_t num_bits_ = 0;
  WordVector words_;
};

/// Hash functor so Bitset can key unordered containers.
struct BitsetHash {
  std::size_t operator()(const Bitset& b) const { return b.Hash(); }
};

}  // namespace farmer

#endif  // FARMER_UTIL_BITSET_H_
