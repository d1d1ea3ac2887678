#include "util/bitset.h"

#include <algorithm>
#include <sstream>

#include "util/check.h"
#include "util/simd/simd.h"

// Every word-parallel kernel below calls through the process-wide SIMD
// kernel table (src/util/simd/): one relaxed atomic load plus an
// indirect call selects the scalar, SSE4.2/POPCNT, AVX2, or AVX-512
// variant picked at startup (or forced via FARMER_SIMD /
// simd::ForceLevel). Tail-bit handling stays here — the kernels see
// whole words only — so each per-ISA unit stays a straight-line loop.

namespace farmer {

namespace {
inline const simd::KernelTable& Kernels() { return simd::Active(); }
}  // namespace

void Bitset::Resize(std::size_t num_bits) {
  num_bits_ = num_bits;
  words_.resize((num_bits + 63) / 64, 0);
  TrimTail();
}

void Bitset::ResetAll() { std::fill(words_.begin(), words_.end(), 0); }

void Bitset::ResetPrefix(std::size_t pos_limit) {
  const std::size_t limit = std::min(pos_limit, num_bits_);
  const std::size_t full_words = limit >> 6;
  std::fill(words_.begin(), words_.begin() + full_words, 0);
  const std::size_t tail = limit & 63;
  if (tail != 0) words_[full_words] &= ~((kOne << tail) - 1);
}

void Bitset::SetAll() {
  std::fill(words_.begin(), words_.end(), ~std::uint64_t{0});
  TrimTail();
}

std::size_t Bitset::Count() const {
  return Kernels().count(words_.data(), words_.size());
}

std::size_t Bitset::CountPrefix(std::size_t pos_limit) const {
  if (pos_limit >= num_bits_) return Count();
  const std::size_t full_words = pos_limit >> 6;
  std::size_t total = Kernels().count(words_.data(), full_words);
  const std::size_t tail = pos_limit & 63;
  if (tail != 0) {
    total += static_cast<std::size_t>(
        __builtin_popcountll(words_[full_words] & ((kOne << tail) - 1)));
  }
  return total;
}

std::size_t Bitset::AndCountPrefix(const Bitset& other,
                                   std::size_t pos_limit) const {
  const std::size_t limit = std::min(pos_limit, std::min(num_bits_,
                                                         other.num_bits_));
  const std::size_t full_words = limit >> 6;
  std::size_t total =
      Kernels().and_count(words_.data(), other.words_.data(), full_words);
  const std::size_t tail = limit & 63;
  if (tail != 0) {
    total += static_cast<std::size_t>(
        __builtin_popcountll(words_[full_words] & other.words_[full_words] &
                             ((kOne << tail) - 1)));
  }
  return total;
}

void Bitset::AndInto(const Bitset& a, const Bitset& b, Bitset* out) {
  out->num_bits_ = a.num_bits_;
  out->words_.resize(a.words_.size());
  Kernels().and_into(a.words_.data(), b.words_.data(), out->words_.data(),
                     a.words_.size());
}

void Bitset::AndNotInto(const Bitset& a, const Bitset& b, Bitset* out) {
  out->num_bits_ = a.num_bits_;
  out->words_.resize(a.words_.size());
  Kernels().and_not_into(a.words_.data(), b.words_.data(),
                         out->words_.data(), a.words_.size());
}

void Bitset::OrAnd(const Bitset& a, const Bitset& b) {
  Kernels().or_and(words_.data(), a.words_.data(), b.words_.data(),
                   words_.size());
}

bool Bitset::None() const {
  return Kernels().none(words_.data(), words_.size());
}

bool Bitset::IsSubsetOf(const Bitset& other) const {
  const std::size_t n = std::min(words_.size(), other.words_.size());
  const simd::KernelTable& k = Kernels();
  if (!k.is_subset_of(words_.data(), other.words_.data(), n)) return false;
  return k.none(words_.data() + n, words_.size() - n);
}

bool Bitset::Intersects(const Bitset& other) const {
  const std::size_t n = std::min(words_.size(), other.words_.size());
  return Kernels().intersects(words_.data(), other.words_.data(), n);
}

std::size_t Bitset::IntersectCount(const Bitset& other) const {
  const std::size_t n = std::min(words_.size(), other.words_.size());
  return Kernels().and_count(words_.data(), other.words_.data(), n);
}

Bitset& Bitset::operator|=(const Bitset& other) {
  if (other.num_bits_ > num_bits_) Resize(other.num_bits_);
  Kernels().or_inplace(words_.data(), other.words_.data(),
                       other.words_.size());
  return *this;
}

Bitset& Bitset::operator&=(const Bitset& other) {
  const std::size_t n = std::min(words_.size(), other.words_.size());
  Kernels().and_inplace(words_.data(), other.words_.data(), n);
  std::fill(words_.begin() + n, words_.end(), 0);
  return *this;
}

Bitset& Bitset::operator-=(const Bitset& other) {
  const std::size_t n = std::min(words_.size(), other.words_.size());
  Kernels().and_not_inplace(words_.data(), other.words_.data(), n);
  return *this;
}

std::size_t Bitset::FindFirst() const {
  for (std::size_t w = 0; w < words_.size(); ++w) {
    if (words_[w] != 0) return w * 64 + __builtin_ctzll(words_[w]);
  }
  return num_bits_;
}

std::size_t Bitset::FindNext(std::size_t pos) const {
  ++pos;
  if (pos >= num_bits_) return num_bits_;
  std::size_t w = pos >> 6;
  std::uint64_t word = words_[w] >> (pos & 63);
  if (word != 0) return pos + __builtin_ctzll(word);
  for (++w; w < words_.size(); ++w) {
    if (words_[w] != 0) return w * 64 + __builtin_ctzll(words_[w]);
  }
  return num_bits_;
}

std::vector<std::size_t> Bitset::ToVector() const {
  std::vector<std::size_t> out;
  out.reserve(Count());
  ForEach([&out](std::size_t pos) { out.push_back(pos); });
  return out;
}

std::string Bitset::ToString() const {
  std::ostringstream os;
  os << '{';
  bool first = true;
  ForEach([&](std::size_t pos) {
    if (!first) os << ',';
    first = false;
    os << pos;
  });
  os << '}';
  return os.str();
}

std::size_t Bitset::Hash() const {
  std::uint64_t h = 1469598103934665603ull;  // FNV offset basis.
  for (std::uint64_t w : words_) {
    h ^= w;
    h *= 1099511628211ull;  // FNV prime.
  }
  return static_cast<std::size_t>(h);
}

void Bitset::CheckInvariants() const {
  FARMER_CHECK(words_.size() == (num_bits_ + 63) / 64)
      << "size=" << num_bits_ << " words=" << words_.size();
  const std::size_t tail = num_bits_ & 63;
  if (tail != 0) {
    FARMER_CHECK((words_.back() & ~((kOne << tail) - 1)) == 0)
        << "bits set beyond size()=" << num_bits_;
  }
}

void Bitset::TrimTail() {
  const std::size_t tail = num_bits_ & 63;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (kOne << tail) - 1;
  }
}

}  // namespace farmer
