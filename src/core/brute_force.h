#ifndef FARMER_CORE_BRUTE_FORCE_H_
#define FARMER_CORE_BRUTE_FORCE_H_

#include <cstddef>
#include <vector>

#include "core/miner_options.h"
#include "core/rule.h"
#include "dataset/dataset.h"
#include "dataset/types.h"
#include "util/bitset.h"

namespace farmer {

/// A closed itemset together with its row support set.
struct ClosedItemset {
  ItemVector items;
  Bitset rows;

  std::size_t support() const { return rows.Count(); }
};

/// Reference implementations used as testing oracles. They enumerate all
/// 2^n row subsets, or past 20 rows all 2^items item subsets, and are only
/// feasible for small datasets (n <= ~16 or items <= ~16).

/// Every rule group of `dataset` with consequent `options.consequent`,
/// *without* any constraint filtering or interestingness test. Sorted by
/// row set for deterministic comparison. Lower bounds are found by
/// exhaustive minimal-subset search when `with_lower_bounds` is set
/// (feasible only for short antecedents).
std::vector<RuleGroup> BruteForceAllRuleGroups(const BinaryDataset& dataset,
                                               ClassLabel consequent,
                                               bool with_lower_bounds = false);

/// The constrained interesting rule groups, matching MineFarmer semantics:
/// a group qualifies iff it passes every threshold in `options` and no
/// threshold-passing group with a properly more general antecedent has
/// confidence >= its own. Ignores options.top_k/deadline/pruning toggles.
std::vector<RuleGroup> BruteForceIRGs(const BinaryDataset& dataset,
                                      const MinerOptions& options);

/// All closed itemsets with support >= max(1, min_support), class-blind —
/// the oracle for the CHARM and CLOSET+ baselines.
std::vector<ClosedItemset> BruteForceClosedItemsets(
    const BinaryDataset& dataset, std::size_t min_support);

/// The minimal subsets L of `antecedent` with R(L) = `rows` — the oracle
/// for MineLB. Exponential in |antecedent|.
std::vector<ItemVector> BruteForceLowerBounds(const BinaryDataset& dataset,
                                              const ItemVector& antecedent,
                                              const Bitset& rows);

/// Row support set R(items) of `items` in `dataset`.
Bitset RowSupportSet(const BinaryDataset& dataset, const ItemVector& items);

}  // namespace farmer

#endif  // FARMER_CORE_BRUTE_FORCE_H_
