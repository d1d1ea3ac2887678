#include "core/minelb.h"

#include <algorithm>

#include "util/check.h"

namespace farmer {

namespace {

using Sets = MineLbScratch::Sets;

// Set-algebra over runs of `w` words (one set of MineLbScratch::Sets).

const std::uint64_t* At(const Sets& sets, std::size_t i, std::size_t w) {
  return sets.words.data() + i * w;
}

std::uint32_t Count(const std::uint64_t* a, std::size_t w) {
  std::uint32_t count = 0;
  for (std::size_t i = 0; i < w; ++i) {
    count += static_cast<std::uint32_t>(__builtin_popcountll(a[i]));
  }
  return count;
}

bool IsSubset(const std::uint64_t* a, const std::uint64_t* b,
              std::size_t w) {
  for (std::size_t i = 0; i < w; ++i) {
    if ((a[i] & ~b[i]) != 0) return false;
  }
  return true;
}

void Clear(Sets* sets) {
  sets->words.clear();
  sets->counts.clear();
}

void Append(Sets* sets, const std::uint64_t* set, std::uint32_t count,
            std::size_t w) {
  sets->words.insert(sets->words.end(), set, set + w);
  sets->counts.push_back(count);
}

void AppendAll(Sets* sets, const Sets& from) {
  sets->words.insert(sets->words.end(), from.words.begin(),
                     from.words.end());
  sets->counts.insert(sets->counts.end(), from.counts.begin(),
                      from.counts.end());
}

// Fills `order` with the indices of `sets` sorted by cardinality
// (descending or ascending), ties by word order. Equal sets compare
// equal, so the resulting sequence of sets is unique.
void SortOrder(const Sets& sets, std::size_t w, bool descending,
               std::vector<std::uint32_t>* order) {
  order->resize(sets.counts.size());
  for (std::uint32_t i = 0; i < order->size(); ++i) (*order)[i] = i;
  std::sort(order->begin(), order->end(),
            [&](std::uint32_t x, std::uint32_t y) {
              const std::uint32_t cx = sets.counts[x], cy = sets.counts[y];
              if (cx != cy) return descending ? cx > cy : cx < cy;
              const std::uint64_t* a = At(sets, x, w);
              const std::uint64_t* b = At(sets, y, w);
              return std::lexicographical_compare(a, a + w, b, b + w);
            });
}

// Σ: the maximal sets among the non-empty I(r) ∩ A, in canonical order.
// The row blocks are reduced to an antichain first (each block either
// falls inside a kept set or evicts the kept sets inside it), so only
// the few maximal sets are sorted.
void BuildSigma(std::size_t num_rows, std::size_t w, MineLbScratch* s) {
  Sets& maximal = s->maximal;
  Clear(&maximal);
  for (std::size_t r = 0; r < num_rows; ++r) {
    const std::uint64_t* block = s->row_sets.data() + r * w;
    const std::uint32_t count = Count(block, w);
    if (count == 0) continue;  // Rows in R(A), or sharing nothing with A.
    bool subsumed = false;
    for (std::size_t k = 0; k < maximal.counts.size() && !subsumed; ++k) {
      subsumed = count <= maximal.counts[k] &&
                 IsSubset(block, At(maximal, k, w), w);
    }
    if (subsumed) continue;
    std::size_t kept = 0;
    for (std::size_t k = 0; k < maximal.counts.size(); ++k) {
      const std::uint64_t* set = At(maximal, k, w);
      if (maximal.counts[k] <= count && IsSubset(set, block, w)) continue;
      if (kept != k) {
        std::copy(set, set + w, maximal.words.begin() + kept * w);
        maximal.counts[kept] = maximal.counts[k];
      }
      ++kept;
    }
    maximal.words.resize(kept * w);
    maximal.counts.resize(kept);
    Append(&maximal, block, count, w);
  }
  SortOrder(maximal, w, /*descending=*/true, &s->order);
  Clear(&s->sigma);
  for (std::uint32_t i : s->order) {
    Append(&s->sigma, At(maximal, i, w), maximal.counts[i], w);
  }
}

// R(L): the rows of `dataset` containing every item of `itemset`.
Bitset SupportRows(const BinaryDataset& dataset, const ItemVector& itemset) {
  Bitset rows(dataset.num_rows());
  for (RowId r = 0; r < dataset.num_rows(); ++r) {
    bool all = true;
    for (ItemId i : itemset) {
      if (!dataset.RowContains(r, i)) {
        all = false;
        break;
      }
    }
    if (all) rows.Set(r);
  }
  return rows;
}

}  // namespace

LowerBoundResult MineLowerBounds(const std::vector<Bitset>& item_rows,
                                 const ItemVector& antecedent,
                                 const Bitset& rows,
                                 std::size_t max_candidates,
                                 const Deadline* deadline,
                                 MineLbScratch* scratch) {
  LowerBoundResult result;
  const std::size_t a_size = antecedent.size();
  if (a_size == 0) return result;
  MineLbScratch& s = *scratch;
  // Every set is a run of w words over positions local to `antecedent`.
  const std::size_t w = (a_size + 63) / 64;
  const std::size_t n = rows.size();

  // Step 1: Γ starts as the singletons of the antecedent.
  s.gamma.words.assign(a_size * w, 0);
  s.gamma.counts.assign(a_size, 1);
  for (std::size_t p = 0; p < a_size; ++p) {
    s.gamma.words[p * w + (p >> 6)] = std::uint64_t{1} << (p & 63);
  }

  // Step 2: I(r) ∩ A for every row r outside R(A), column by column:
  // position p is set in the rows holding A[p] minus R(A). No row
  // outside R(A) holds all of A, so every block is a proper subset.
  s.row_sets.assign(n * w, 0);
  for (std::size_t p = 0; p < a_size; ++p) {
    // A timeout here leaves Γ at the singleton stage, still a valid
    // under-approximation.
    if (deadline != nullptr && deadline->Expired()) {
      result.timed_out = result.truncated = true;
      break;
    }
    const Bitset& column = item_rows[antecedent[p]];
    FARMER_DCHECK(column.size() == n);
    Bitset::AndNotInto(column, rows, &s.outside);
    const std::uint64_t bit = std::uint64_t{1} << (p & 63);
    std::uint64_t* word = s.row_sets.data() + (p >> 6);
    s.outside.ForEach([&](std::size_t r) { word[r * w] |= bit; });
  }
  // By Lemma 3.11 only the maximal ones matter.
  Clear(&s.sigma);
  if (!result.timed_out) BuildSigma(n, w, &s);

  // Step 3: incremental update of Γ per added closed set (Lemma 3.10).
  const std::uint64_t tail_mask =
      (a_size & 63) == 0 ? ~std::uint64_t{0}
                         : (std::uint64_t{1} << (a_size & 63)) - 1;
  for (std::size_t i = 0; i < s.sigma.counts.size(); ++i) {
    // One update step can be combinatorially heavy (Γ1 × missing
    // candidates), so each one re-samples the deadline unthrottled:
    // this is the checkpoint that keeps a near-deadline mining run from
    // overshooting inside a long MineLB call.
    if (deadline != nullptr && deadline->ExpiredNow()) {
      result.timed_out = result.truncated = true;
      break;
    }
    const std::uint64_t* a_prime = At(s.sigma, i, w);
    // Γ1: bounds contained in A'. Γ2 (bounds that survive as-is) goes to
    // `next`, which then collects the accepted candidates.
    Clear(&s.gamma1);
    Clear(&s.next);
    for (std::size_t k = 0; k < s.gamma.counts.size(); ++k) {
      const std::uint64_t* l = At(s.gamma, k, w);
      Append(IsSubset(l, a_prime, w) ? &s.gamma1 : &s.next, l,
             s.gamma.counts[k], w);
    }
    if (s.gamma1.counts.empty()) {
      std::swap(s.gamma, s.next);
      continue;
    }

    // Candidates l1 ∪ {p}, l1 ∈ Γ1, p ∈ A − A'.
    const std::size_t missing = a_size - s.sigma.counts[i];
    if (max_candidates != 0 &&
        s.gamma1.counts.size() * missing > max_candidates) {
      result.truncated = true;
      AppendAll(&s.next, s.gamma1);
      std::swap(s.gamma, s.next);
      break;
    }
    Clear(&s.candidates);
    for (std::size_t k = 0; k < s.gamma1.counts.size(); ++k) {
      const std::uint64_t* l1 = At(s.gamma1, k, w);
      for (std::size_t j = 0; j < w; ++j) {
        std::uint64_t out =
            ~a_prime[j] & (j + 1 == w ? tail_mask : ~std::uint64_t{0});
        for (; out != 0; out &= out - 1) {
          Append(&s.candidates, l1, s.gamma1.counts[k] + 1, w);
          s.candidates.words[s.candidates.words.size() - w + j] |=
              out & -out;
        }
      }
    }
    // Keep the candidates that neither cover a surviving bound from Γ2
    // nor another (smaller or equal) candidate. In ascending cardinality
    // any candidate covered by another comes after it, and duplicates
    // are adjacent.
    SortOrder(s.candidates, w, /*descending=*/false, &s.order);
    const std::size_t gamma2_size = s.next.counts.size();
    const std::uint64_t* prev = nullptr;
    bool step_timed_out = false;
    for (std::uint32_t c_index : s.order) {
      const std::uint64_t* c = At(s.candidates, c_index, w);
      if (prev != nullptr && std::equal(c, c + w, prev)) continue;
      prev = c;
      // Candidate filtering is quadratic in the candidate count; the
      // throttled per-candidate check bounds the overshoot of this one
      // loop. Γ1 was only copied into the candidates, so the cap-style
      // recovery below (Γ := Γ2 ∪ Γ1) stays available.
      if (deadline != nullptr && deadline->Expired()) {
        step_timed_out = true;
        break;
      }
      bool covers = false;
      for (std::size_t k = 0; k < s.next.counts.size() && !covers; ++k) {
        covers = IsSubset(At(s.next, k, w), c, w);
      }
      if (!covers) Append(&s.next, c, s.candidates.counts[c_index], w);
    }
    if (step_timed_out) {
      result.timed_out = result.truncated = true;
      s.next.words.resize(gamma2_size * w);
      s.next.counts.resize(gamma2_size);
      AppendAll(&s.next, s.gamma1);
      std::swap(s.gamma, s.next);
      break;
    }
    std::swap(s.gamma, s.next);
  }

  // Convert local positions back to global item ids.
  result.lower_bounds.reserve(s.gamma.counts.size());
  for (std::size_t k = 0; k < s.gamma.counts.size(); ++k) {
    const std::uint64_t* l = At(s.gamma, k, w);
    ItemVector items;
    items.reserve(s.gamma.counts[k]);
    for (std::size_t j = 0; j < w; ++j) {
      for (std::uint64_t bits = l[j]; bits != 0; bits &= bits - 1) {
        items.push_back(antecedent[j * 64 + __builtin_ctzll(bits)]);
      }
    }
    result.lower_bounds.push_back(std::move(items));
  }
  std::sort(result.lower_bounds.begin(), result.lower_bounds.end());
  return result;
}

LowerBoundResult MineLowerBounds(const BinaryDataset& dataset,
                                 const ItemVector& antecedent,
                                 const Bitset& rows,
                                 std::size_t max_candidates,
                                 const Deadline* deadline) {
  std::vector<Bitset> item_rows(antecedent.empty() ? 0
                                                   : antecedent.back() + 1);
  for (ItemId i : antecedent) {
    item_rows[i].Resize(dataset.num_rows());
    for (RowId r = 0; r < dataset.num_rows(); ++r) {
      if (dataset.RowContains(r, i)) item_rows[i].Set(r);
    }
  }
  MineLbScratch scratch;
  return MineLowerBounds(item_rows, antecedent, rows, max_candidates,
                         deadline, &scratch);
}

Status ValidateLowerBounds(const BinaryDataset& dataset,
                           const ItemVector& antecedent, const Bitset& rows,
                           const std::vector<ItemVector>& lower_bounds) {
  for (const ItemVector& lb : lower_bounds) {
    if (lb.empty()) return Status::InvalidArgument("empty lower bound");
    if (!std::includes(antecedent.begin(), antecedent.end(), lb.begin(),
                       lb.end())) {
      return Status::InvalidArgument(
          "lower bound is not a subset of the antecedent");
    }
    // Generator: L must select exactly the group's rows.
    if (SupportRows(dataset, lb) != rows) {
      return Status::InvalidArgument(
          "lower bound does not generate the group's row set");
    }
    // Minimal: dropping any one item must strictly enlarge the row set.
    // A singleton is minimal by definition: dropping its item leaves the
    // empty itemset, which is no antecedent (it selects every row, so a
    // group over all rows would otherwise have no valid bound at all).
    for (std::size_t drop = 0; lb.size() > 1 && drop < lb.size(); ++drop) {
      ItemVector smaller;
      smaller.reserve(lb.size() - 1);
      for (std::size_t i = 0; i < lb.size(); ++i) {
        if (i != drop) smaller.push_back(lb[i]);
      }
      if (SupportRows(dataset, smaller) == rows) {
        return Status::InvalidArgument(
            "lower bound is not minimal: item " + std::to_string(lb[drop]) +
            " is redundant");
      }
    }
  }
  return Status::Ok();
}

}  // namespace farmer
