#include "core/brute_force.h"

#include <algorithm>
#include <map>

#include "core/measures.h"
#include "util/check.h"

namespace farmer {

namespace {

// Compares bitsets by their bit-vector contents for map keys.
struct BitsetLess {
  bool operator()(const Bitset& a, const Bitset& b) const {
    return a.ToVector() < b.ToVector();
  }
};

// I(X): items common to every row of `X` (as positions in `dataset`).
ItemVector CommonItems(const BinaryDataset& dataset,
                       const std::vector<RowId>& rows) {
  FARMER_DCHECK(!rows.empty());
  ItemVector common = dataset.row(rows[0]);
  for (std::size_t k = 1; k < rows.size() && !common.empty(); ++k) {
    const ItemVector& row = dataset.row(rows[k]);
    ItemVector merged;
    std::set_intersection(common.begin(), common.end(), row.begin(),
                          row.end(), std::back_inserter(merged));
    common = std::move(merged);
  }
  return common;
}

// All distinct closed itemsets with their supports, via closing every
// non-empty row subset — or, past 20 rows, every non-empty item subset:
// each closed pair (R, I) with I non-empty is the closure of R and of I.
std::map<Bitset, ItemVector, BitsetLess> AllClosedSets(
    const BinaryDataset& dataset) {
  const std::size_t n = dataset.num_rows();
  std::map<Bitset, ItemVector, BitsetLess> closed;  // R(I(X)) -> I(X)
  if (n > 20) {
    const std::size_t num_items = dataset.num_items();
    FARMER_CHECK(num_items <= 20)
        << "brute force is exponential in the row and the item count";
    for (std::uint64_t mask = 1; mask < (std::uint64_t{1} << num_items);
         ++mask) {
      ItemVector subset;
      for (std::size_t i = 0; i < num_items; ++i) {
        if ((mask >> i) & 1) subset.push_back(static_cast<ItemId>(i));
      }
      Bitset support = RowSupportSet(dataset, subset);
      if (support.None()) continue;
      std::vector<RowId> rows;
      support.ForEach(
          [&](std::size_t r) { rows.push_back(static_cast<RowId>(r)); });
      closed.emplace(std::move(support), CommonItems(dataset, rows));
    }
    return closed;
  }
  for (std::uint64_t mask = 1; mask < (std::uint64_t{1} << n); ++mask) {
    std::vector<RowId> subset;
    for (std::size_t r = 0; r < n; ++r) {
      if ((mask >> r) & 1) subset.push_back(static_cast<RowId>(r));
    }
    ItemVector items = CommonItems(dataset, subset);
    if (items.empty()) continue;
    Bitset support = RowSupportSet(dataset, items);
    closed.emplace(std::move(support), std::move(items));
  }
  return closed;
}

bool PassesThresholds(const RuleGroup& g, const MinerOptions& options,
                      std::size_t n, std::size_t m) {
  if (g.support_pos < std::max<std::size_t>(1, options.min_support)) {
    return false;
  }
  if (g.confidence < options.min_confidence) return false;
  const std::size_t x = g.antecedent_support();
  if (options.min_chi_square > 0.0 &&
      ChiSquare(x, g.support_pos, n, m) < options.min_chi_square) {
    return false;
  }
  if (options.min_lift > 0.0 &&
      Lift(x, g.support_pos, n, m) < options.min_lift) {
    return false;
  }
  if (options.min_conviction > 0.0 &&
      Conviction(x, g.support_pos, n, m) < options.min_conviction) {
    return false;
  }
  if (options.min_entropy_gain > 0.0 &&
      EntropyGain(x, g.support_pos, n, m) < options.min_entropy_gain) {
    return false;
  }
  if (options.min_gini_gain > 0.0 &&
      GiniGain(x, g.support_pos, n, m) < options.min_gini_gain) {
    return false;
  }
  if (options.min_correlation > 0.0 &&
      PhiCoefficient(x, g.support_pos, n, m) < options.min_correlation) {
    return false;
  }
  return true;
}

}  // namespace

Bitset RowSupportSet(const BinaryDataset& dataset, const ItemVector& items) {
  Bitset rows(dataset.num_rows());
  for (RowId r = 0; r < dataset.num_rows(); ++r) {
    const ItemVector& row = dataset.row(r);
    if (std::includes(row.begin(), row.end(), items.begin(), items.end())) {
      rows.Set(r);
    }
  }
  return rows;
}

std::vector<RuleGroup> BruteForceAllRuleGroups(const BinaryDataset& dataset,
                                               ClassLabel consequent,
                                               bool with_lower_bounds) {
  const std::size_t n = dataset.num_rows();
  const std::size_t m = dataset.CountLabel(consequent);
  std::vector<RuleGroup> groups;
  for (auto& [rows, items] : AllClosedSets(dataset)) {
    RuleGroup g;
    g.antecedent = items;
    g.rows = rows;
    rows.ForEach([&](std::size_t r) {
      if (dataset.label(static_cast<RowId>(r)) == consequent) {
        ++g.support_pos;
      } else {
        ++g.support_neg;
      }
    });
    g.confidence = Confidence(g.support_pos, g.antecedent_support());
    g.chi_square = ChiSquare(g.antecedent_support(), g.support_pos, n, m);
    if (with_lower_bounds) {
      g.lower_bounds = BruteForceLowerBounds(dataset, g.antecedent, g.rows);
    }
    groups.push_back(std::move(g));
  }
  return groups;
}

std::vector<RuleGroup> BruteForceIRGs(const BinaryDataset& dataset,
                                      const MinerOptions& options) {
  const std::size_t n = dataset.num_rows();
  const std::size_t m = dataset.CountLabel(options.consequent);
  std::vector<RuleGroup> all =
      BruteForceAllRuleGroups(dataset, options.consequent);
  std::vector<RuleGroup> passing;
  for (RuleGroup& g : all) {
    if (PassesThresholds(g, options, n, m)) passing.push_back(std::move(g));
  }
  std::vector<RuleGroup> result;
  for (const RuleGroup& g : passing) {
    bool interesting = true;
    for (const RuleGroup& other : passing) {
      if (other.antecedent_support() > g.antecedent_support() &&
          g.rows.IsSubsetOf(other.rows) && other.confidence >= g.confidence) {
        interesting = false;
        break;
      }
    }
    if (interesting) result.push_back(g);
  }
  return result;
}

std::vector<ClosedItemset> BruteForceClosedItemsets(
    const BinaryDataset& dataset, std::size_t min_support) {
  const std::size_t floor = std::max<std::size_t>(1, min_support);
  std::vector<ClosedItemset> result;
  for (auto& [rows, items] : AllClosedSets(dataset)) {
    if (rows.Count() < floor) continue;
    result.push_back(ClosedItemset{items, rows});
  }
  return result;
}

std::vector<ItemVector> BruteForceLowerBounds(const BinaryDataset& dataset,
                                              const ItemVector& antecedent,
                                              const Bitset& rows) {
  const std::size_t a = antecedent.size();
  FARMER_CHECK(a <= 20) << "brute force is exponential in the antecedent size";
  std::vector<ItemVector> matching;  // subsets with R(L) == rows
  for (std::uint64_t mask = 1; mask < (std::uint64_t{1} << a); ++mask) {
    ItemVector subset;
    for (std::size_t p = 0; p < a; ++p) {
      if ((mask >> p) & 1) subset.push_back(antecedent[p]);
    }
    if (RowSupportSet(dataset, subset) == rows) {
      matching.push_back(std::move(subset));
    }
  }
  // Keep the minimal ones.
  std::vector<ItemVector> minimal;
  for (const ItemVector& candidate : matching) {
    bool is_minimal = true;
    for (const ItemVector& other : matching) {
      if (other.size() < candidate.size() &&
          std::includes(candidate.begin(), candidate.end(), other.begin(),
                        other.end())) {
        is_minimal = false;
        break;
      }
    }
    if (is_minimal) minimal.push_back(candidate);
  }
  std::sort(minimal.begin(), minimal.end());
  return minimal;
}

}  // namespace farmer
