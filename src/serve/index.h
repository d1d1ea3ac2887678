#ifndef FARMER_SERVE_INDEX_H_
#define FARMER_SERVE_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dataset/types.h"
#include "serve/snapshot.h"

namespace farmer {
namespace serve {

/// Posting lists partitioned round-robin by item id into `num_banks`
/// banks. The serve event loop passes one bank per shard so the posting
/// storage a shard walks most often clusters together instead of
/// interleaving with every other shard's working set — the list for
/// item i lives in bank i % num_banks at slot i / num_banks.
///
/// Each bank is one CSR pair: `offsets` (one entry per slot plus one)
/// and `ids`, the slot lists back to back. A query that walks a
/// thousand lists therefore touches two arrays per bank, not a thousand
/// heap blocks. Build() fills the arrays in two passes over the same
/// postings, a count pass and a fill pass.
class PostingBanks {
 public:
  PostingBanks() = default;

  /// Builds banks for ids below `universe`. `for_each(emit)` must call
  /// emit(id, value) once per posting, in the order each list should
  /// hold its values, and the same way on both calls. Defined in
  /// index.cc, its only user.
  template <typename ForEach>
  static PostingBanks Build(std::size_t universe, std::size_t num_banks,
                            const ForEach& for_each);

  std::span<const std::uint32_t> Get(std::size_t id) const {
    const Bank& bank = banks_[id % num_banks_];
    const std::size_t slot = id / num_banks_;
    return {bank.ids.data() + bank.offsets[slot],
            bank.ids.data() + bank.offsets[slot + 1]};
  }
  /// Number of ids the banks were sized for; ids at or past this bound
  /// have no posting list (callers must range-check first).
  std::size_t universe() const { return universe_; }
  std::size_t num_banks() const { return num_banks_; }

 private:
  struct Bank {
    std::vector<std::uint32_t> offsets;
    std::vector<std::uint32_t> ids;
  };

  std::size_t universe_ = 0;
  std::size_t num_banks_ = 1;
  std::vector<Bank> banks_;
};

/// In-memory query engine over a loaded snapshot.
///
/// Construction builds sorted projections (by confidence and by
/// chi-square) and a per-item posting-list inverted index, so each query
/// type an analyst or classifier issues is answered without scanning the
/// whole store:
///
///   * top-k by confidence / chi-square      O(k) off the projection
///   * filter by min-support + min-confidence  O(log n + answer) via
///     binary search on the confidence projection
///   * antecedent-contains(items)            posting-list intersection,
///     O(shortest posting list) per probe
///   * row-cover(sample items)               counting join over the
///     match-set postings, O(sum of the sample's posting lists)
///
/// Both of the last two read their answer off a bitmap of the matches'
/// confidence ranks, in O(groups / 64 + matches): no sort, and no pass
/// over every match set.
///
/// `num_banks` shards the posting-list storage by item id (see
/// PostingBanks) — the server passes its event-loop shard count so each
/// shard's hot lists cluster in memory. Query results are identical for
/// any bank count.
///
/// All queries return group indices into `snapshot().groups`, most
/// interesting first, truncated to the caller's limit. The index is
/// immutable after construction and safe for concurrent readers.
class RuleGroupIndex {
 public:
  explicit RuleGroupIndex(RuleGroupSnapshot snapshot,
                          std::size_t num_banks = 1);

  const RuleGroupSnapshot& snapshot() const { return snap_; }
  std::size_t size() const { return snap_.groups.size(); }
  const RuleGroup& group(std::size_t i) const { return snap_.groups[i]; }
  std::size_t num_banks() const { return antecedent_postings_.num_banks(); }

  /// The `k` groups with the highest (confidence, support_pos) /
  /// (chi_square, support_pos), best first.
  std::vector<std::uint32_t> TopKByConfidence(std::size_t k) const;
  std::vector<std::uint32_t> TopKByChiSquare(std::size_t k) const;

  /// Groups whose upper-bound antecedent contains every item of `items`
  /// (sorted, duplicate-free), by descending confidence, at most `limit`.
  std::vector<std::uint32_t> AntecedentContains(const ItemVector& items,
                                                std::size_t limit) const;

  /// Groups matching a sample given as its sorted item vector: any lower
  /// bound (or, for groups without lower bounds, the upper bound) is a
  /// subset of `row_items` — the same match rule the IRG classifier
  /// applies. Descending confidence, at most `limit`.
  std::vector<std::uint32_t> RowCover(const ItemVector& row_items,
                                      std::size_t limit) const;

  /// Groups with support_pos >= min_support and confidence >=
  /// min_confidence, by descending confidence, at most `limit`.
  std::vector<std::uint32_t> Filter(std::size_t min_support,
                                    double min_confidence,
                                    std::size_t limit) const;

 private:
  RuleGroupSnapshot snap_;
  /// Group indices by descending (confidence, support_pos, index).
  std::vector<std::uint32_t> by_confidence_;
  /// Group indices by descending (chi_square, support_pos, index).
  std::vector<std::uint32_t> by_chi_;
  /// Rank of each group in by_confidence_ (for ordering query answers).
  std::vector<std::uint32_t> conf_rank_;
  /// item -> groups whose antecedent contains it (ascending group index),
  /// banked by item id across the server's event-loop shards.
  PostingBanks antecedent_postings_;
  /// Row-cover side: one match set per (group, lower bound) pair — or the
  /// antecedent when a group has no lower bounds. Size + the owning
  /// group's confidence rank per match set, and item -> match-set ids
  /// postings for the counting join.
  std::vector<std::uint32_t> ms_size_;
  std::vector<std::uint32_t> ms_rank_;
  PostingBanks ms_postings_;
  /// Confidence ranks of the groups with an empty match set (they match
  /// every sample).
  std::vector<std::uint32_t> always_match_ranks_;
};

}  // namespace serve
}  // namespace farmer

#endif  // FARMER_SERVE_INDEX_H_
