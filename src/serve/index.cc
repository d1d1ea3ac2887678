#include "serve/index.h"

#include <algorithm>
#include <span>

namespace farmer {
namespace serve {

namespace {

/// Keeps only ids present in `allowed` (both sorted ascending).
void IntersectSorted(std::vector<std::uint32_t>* ids,
                     std::span<const std::uint32_t> allowed) {
  std::vector<std::uint32_t> out;
  std::set_intersection(ids->begin(), ids->end(), allowed.begin(),
                        allowed.end(), std::back_inserter(out));
  *ids = std::move(out);
}

/// Per-thread working memory of the queries. Server shards query one
/// index at once, and each shard runs on its own thread, so none shares
/// its scratch. RowCover keeps `counts` all zeros between calls: each
/// call resets what it touched, so no call pays for the match sets it
/// did not touch.
struct QueryScratch {
  std::vector<std::uint32_t> counts;   // Hits per match set.
  std::vector<std::uint32_t> touched;  // Match sets with a hit.
  std::vector<std::uint64_t> ranks;    // Bit r: the group of rank r matched.
};

thread_local QueryScratch query_scratch;

/// This thread's confidence-rank bitmap for `num_groups` groups, zeroed.
std::vector<std::uint64_t>& ClearedRanks(std::size_t num_groups) {
  std::vector<std::uint64_t>& ranks = query_scratch.ranks;
  ranks.assign((num_groups + 63) / 64, 0);
  return ranks;
}

void MarkRank(std::vector<std::uint64_t>& ranks, std::uint32_t rank) {
  ranks[rank / 64] |= std::uint64_t{1} << (rank % 64);
}

/// The groups whose confidence ranks are set in `ranks`, best first, at
/// most `limit` of them. Ranks are unique, so the set bits in ascending
/// order are the answer, deduplicated and ordered with no sort.
std::vector<std::uint32_t> TakeByRank(
    const std::vector<std::uint64_t>& ranks,
    const std::vector<std::uint32_t>& by_confidence, std::size_t limit) {
  std::vector<std::uint32_t> out;
  for (std::size_t w = 0; w < ranks.size() && out.size() < limit; ++w) {
    for (std::uint64_t bits = ranks[w]; bits != 0 && out.size() < limit;
         bits &= bits - 1) {
      out.push_back(by_confidence[w * 64 + static_cast<std::size_t>(
                                               __builtin_ctzll(bits))]);
    }
  }
  return out;
}

}  // namespace

template <typename ForEach>
PostingBanks PostingBanks::Build(std::size_t universe, std::size_t num_banks,
                                 const ForEach& for_each) {
  PostingBanks pb;
  pb.universe_ = universe;
  pb.num_banks_ = num_banks == 0 ? 1 : num_banks;
  // Sized so id / num_banks is always in range for id < universe: the
  // largest slot index any bank sees is (universe - 1) / num_banks.
  const std::size_t per_bank = (universe + pb.num_banks_ - 1) / pb.num_banks_;
  pb.banks_.resize(pb.num_banks_);
  for (Bank& bank : pb.banks_) bank.offsets.assign(per_bank + 1, 0);
  // Count pass: offsets[slot + 1] holds the length of the slot's list.
  for_each([&pb](std::size_t id, std::uint32_t) {
    ++pb.banks_[id % pb.num_banks_].offsets[id / pb.num_banks_ + 1];
  });
  for (Bank& bank : pb.banks_) {
    for (std::size_t slot = 0; slot < per_bank; ++slot) {
      bank.offsets[slot + 1] += bank.offsets[slot];
    }
    bank.ids.resize(bank.offsets[per_bank]);
  }
  // Fill pass: offsets[slot] walks the slot's range, so afterwards it
  // holds where slot + 1 starts; shifting the array back one place
  // restores the starts.
  for_each([&pb](std::size_t id, std::uint32_t value) {
    Bank& bank = pb.banks_[id % pb.num_banks_];
    bank.ids[bank.offsets[id / pb.num_banks_]++] = value;
  });
  for (Bank& bank : pb.banks_) {
    for (std::size_t slot = per_bank; slot > 0; --slot) {
      bank.offsets[slot] = bank.offsets[slot - 1];
    }
    bank.offsets[0] = 0;
  }
  return pb;
}

RuleGroupIndex::RuleGroupIndex(RuleGroupSnapshot snapshot,
                               std::size_t num_banks)
    : snap_(std::move(snapshot)) {
  const std::size_t n = snap_.groups.size();
  by_confidence_.resize(n);
  by_chi_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    by_confidence_[i] = static_cast<std::uint32_t>(i);
    by_chi_[i] = static_cast<std::uint32_t>(i);
  }
  const auto& groups = snap_.groups;
  std::stable_sort(by_confidence_.begin(), by_confidence_.end(),
                   [&groups](std::uint32_t a, std::uint32_t b) {
                     if (groups[a].confidence != groups[b].confidence) {
                       return groups[a].confidence > groups[b].confidence;
                     }
                     return groups[a].support_pos > groups[b].support_pos;
                   });
  std::stable_sort(by_chi_.begin(), by_chi_.end(),
                   [&groups](std::uint32_t a, std::uint32_t b) {
                     if (groups[a].chi_square != groups[b].chi_square) {
                       return groups[a].chi_square > groups[b].chi_square;
                     }
                     return groups[a].support_pos > groups[b].support_pos;
                   });
  conf_rank_.resize(n);
  for (std::size_t rank = 0; rank < n; ++rank) {
    conf_rank_[by_confidence_[rank]] = static_cast<std::uint32_t>(rank);
  }

  // A group's match sets: its lower bounds, or its antecedent when it
  // has none. Empty ones match every sample and get no postings.
  const auto match_sets = [&groups](std::size_t g) {
    return groups[g].lower_bounds.empty()
               ? std::span<const ItemVector>(&groups[g].antecedent, 1)
               : std::span<const ItemVector>(groups[g].lower_bounds);
  };
  for (std::size_t g = 0; g < n; ++g) {
    for (const ItemVector& items : match_sets(g)) {
      if (items.empty()) {
        always_match_ranks_.push_back(conf_rank_[g]);
      } else {
        ms_size_.push_back(static_cast<std::uint32_t>(items.size()));
        ms_rank_.push_back(conf_rank_[g]);
      }
    }
  }

  const std::size_t num_items =
      static_cast<std::size_t>(snap_.fingerprint.num_items);
  antecedent_postings_ =
      PostingBanks::Build(num_items, num_banks, [&groups, n](auto&& emit) {
        for (std::size_t g = 0; g < n; ++g) {
          for (ItemId item : groups[g].antecedent) {
            emit(item, static_cast<std::uint32_t>(g));
          }
        }
      });
  // Match-set ids in the order the loop above assigned them.
  ms_postings_ = PostingBanks::Build(
      num_items, num_banks, [&match_sets, n](auto&& emit) {
        std::uint32_t ms_id = 0;
        for (std::size_t g = 0; g < n; ++g) {
          for (const ItemVector& items : match_sets(g)) {
            if (items.empty()) continue;
            for (ItemId item : items) emit(item, ms_id);
            ++ms_id;
          }
        }
      });
}

std::vector<std::uint32_t> RuleGroupIndex::TopKByConfidence(
    std::size_t k) const {
  k = std::min(k, by_confidence_.size());
  return {by_confidence_.begin(), by_confidence_.begin() + k};
}

std::vector<std::uint32_t> RuleGroupIndex::TopKByChiSquare(
    std::size_t k) const {
  k = std::min(k, by_chi_.size());
  return {by_chi_.begin(), by_chi_.begin() + k};
}

std::vector<std::uint32_t> RuleGroupIndex::AntecedentContains(
    const ItemVector& items, std::size_t limit) const {
  std::vector<std::uint32_t> candidates;
  if (items.empty()) {
    // Every group contains the empty itemset.
    candidates = TopKByConfidence(limit);
    return candidates;
  }
  for (ItemId item : items) {
    if (item >= antecedent_postings_.universe()) return {};
  }
  // Intersect posting lists, shortest first so the running set shrinks
  // as fast as possible.
  ItemVector probe = items;
  std::sort(probe.begin(), probe.end(), [this](ItemId a, ItemId b) {
    return antecedent_postings_.Get(a).size() <
           antecedent_postings_.Get(b).size();
  });
  const std::span<const std::uint32_t> first =
      antecedent_postings_.Get(probe[0]);
  candidates.assign(first.begin(), first.end());
  for (std::size_t k = 1; k < probe.size() && !candidates.empty(); ++k) {
    IntersectSorted(&candidates, antecedent_postings_.Get(probe[k]));
  }
  std::vector<std::uint64_t>& ranks = ClearedRanks(by_confidence_.size());
  for (std::uint32_t g : candidates) MarkRank(ranks, conf_rank_[g]);
  return TakeByRank(ranks, by_confidence_, limit);
}

std::vector<std::uint32_t> RuleGroupIndex::RowCover(
    const ItemVector& row_items, std::size_t limit) const {
  // Counting join: a match set of size s is covered by the sample iff
  // exactly s of the sample's items hit it, so only match sets touched
  // by some sample item can qualify.
  QueryScratch& scratch = query_scratch;
  if (scratch.counts.size() < ms_size_.size()) {
    scratch.counts.resize(ms_size_.size(), 0);
  }
  std::uint32_t* counts = scratch.counts.data();
  std::vector<std::uint32_t>& touched = scratch.touched;
  touched.clear();
  for (ItemId item : row_items) {
    if (item >= ms_postings_.universe()) continue;
    for (std::uint32_t ms : ms_postings_.Get(item)) {
      if (counts[ms]++ == 0) touched.push_back(ms);
    }
  }
  // Several lower bounds of one group may match; the rank bitmap
  // dedupes them.
  std::vector<std::uint64_t>& ranks = ClearedRanks(by_confidence_.size());
  for (std::uint32_t r : always_match_ranks_) MarkRank(ranks, r);
  for (std::uint32_t ms : touched) {
    if (counts[ms] == ms_size_[ms]) MarkRank(ranks, ms_rank_[ms]);
    counts[ms] = 0;
  }
  return TakeByRank(ranks, by_confidence_, limit);
}

std::vector<std::uint32_t> RuleGroupIndex::Filter(
    std::size_t min_support, double min_confidence,
    std::size_t limit) const {
  // Groups with confidence >= min_confidence form a prefix of the
  // confidence projection; binary-search its end, then filter the prefix
  // by support.
  const auto& groups = snap_.groups;
  const auto end = std::partition_point(
      by_confidence_.begin(), by_confidence_.end(),
      [&groups, min_confidence](std::uint32_t g) {
        return groups[g].confidence >= min_confidence;
      });
  std::vector<std::uint32_t> out;
  for (auto it = by_confidence_.begin(); it != end && out.size() < limit;
       ++it) {
    if (groups[*it].support_pos >= min_support) out.push_back(*it);
  }
  return out;
}

}  // namespace serve
}  // namespace farmer
