#ifndef FARMER_CORE_MINELB_H_
#define FARMER_CORE_MINELB_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dataset/dataset.h"
#include "dataset/types.h"
#include "util/bitset.h"
#include "util/status.h"
#include "util/timer.h"

namespace farmer {

/// Result of a lower-bound computation for one rule group.
struct LowerBoundResult {
  /// The minimal antecedents of the group, each sorted ascending.
  std::vector<ItemVector> lower_bounds;
  /// True when the computation stopped early because the candidate cap was
  /// hit; `lower_bounds` is then a (valid-prefix) under-approximation.
  bool truncated = false;
  /// True when the computation was abandoned because the caller's
  /// deadline fired mid-update; implies `truncated`.
  bool timed_out = false;
};

/// Reusable working storage of MineLowerBounds. Every set MineLB builds
/// (the per-row intersections, Σ, Γ, the candidates) lives here as flat
/// runs of 64-bit words, ⌈|A|/64⌉ words per set, so a caller that mines
/// many groups with one scratch allocates nothing per group but the
/// bounds it keeps. The members are internal to minelb.cc.
struct MineLbScratch {
  /// A family of equally sized sets: set i is words[i*w, (i+1)*w) for the
  /// call's word count w, with its cardinality in counts[i].
  struct Sets {
    std::vector<std::uint64_t> words;
    std::vector<std::uint32_t> counts;
  };
  Bitset outside;                       // rows outside R(A) holding A[p]
  std::vector<std::uint64_t> row_sets;  // I(r) ∩ A, one block per row
  Sets maximal;                         // maximal I(r) ∩ A, any order
  Sets sigma;                           // Σ: the same, canonical order
  Sets gamma;                           // Γ, the bounds so far
  Sets next;                            // Γ2, then the accepted candidates
  Sets gamma1;                          // bounds inside the current A'
  Sets candidates;
  std::vector<std::uint32_t> order;     // sort permutation of a family
};

/// MineLB (paper §3.4, Figure 9): computes the lower bounds of the closed
/// set `antecedent`, i.e. the minimal itemsets L ⊆ antecedent with
/// R(L) = R(antecedent).
///
/// `item_rows[i]` is the set of rows containing item i (the transposed
/// table in bitset form; only the antecedent's items are read) and `rows`
/// must be R(antecedent), all over the same rows. Σ, the maximal proper
/// subsets I(r) ∩ antecedent of rows r outside `rows`, is built column by
/// column: position p of the antecedent lands in the rows of
/// item_rows[antecedent[p]] − rows, so the cost is O(|A|·n/64) words and
/// not O(n·|row|). Σ is taken in a canonical order (cardinality
/// descending, ties by word order), and the bounds start from the
/// singletons and are updated once per set of Σ (Lemmas 3.10/3.11).
/// `max_candidates` caps the intermediate candidate set per update step
/// (0 = unlimited). `scratch` is reused storage; its contents on entry
/// do not matter.
///
/// A non-null `deadline` is sampled before every update step (and
/// throttled inside the Σ construction and the candidate filter), so a
/// single long MineLB invocation cannot overshoot a near-expired mining
/// deadline: the computation stops at the next checkpoint with
/// `timed_out` (and `truncated`) set and the bounds accumulated so far —
/// a valid under-approximation.
LowerBoundResult MineLowerBounds(const std::vector<Bitset>& item_rows,
                                 const ItemVector& antecedent,
                                 const Bitset& rows,
                                 std::size_t max_candidates,
                                 const Deadline* deadline,
                                 MineLbScratch* scratch);

/// The same computation over a row-major dataset: builds the row sets of
/// the antecedent's items from `dataset` and runs the overload above with
/// a fresh scratch. `rows` is R(antecedent) over `dataset`'s row ids.
LowerBoundResult MineLowerBounds(const BinaryDataset& dataset,
                                 const ItemVector& antecedent,
                                 const Bitset& rows,
                                 std::size_t max_candidates = 0,
                                 const Deadline* deadline = nullptr);

/// Invariant validator for a (non-truncated) MineLB result: every lower
/// bound must be a *minimal generator* of its rule group — a subset of
/// `antecedent` with R(L) = `rows` such that dropping any single item
/// strictly enlarges the row set. Returns the first violation found, or
/// Ok. Brute-force (O(bounds · |L| · rows · log)), intended for
/// MinerOptions::verify_invariants and tests, not production runs.
Status ValidateLowerBounds(const BinaryDataset& dataset,
                           const ItemVector& antecedent, const Bitset& rows,
                           const std::vector<ItemVector>& lower_bounds);

}  // namespace farmer

#endif  // FARMER_CORE_MINELB_H_
