#include "core/farmer.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <utility>

#include "core/measures.h"
#include "core/minelb.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "util/bitset_ref.h"
#include "util/check.h"
#include "util/simd/simd.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace farmer {
namespace internal {

namespace {

// The thread pool of one mine (none with num_threads <= 1): the search,
// the merge, MineLB and the remap all run on it.
class MinePool {
 public:
  explicit MinePool(const MinerOptions& options)
      : steal_observer_(options.trace) {
    if (options.num_threads <= 1) return;
    pool_ = std::make_unique<ThreadPool>(options.num_threads);
    if (options.trace != nullptr) pool_->SetObserver(&steal_observer_);
  }

  // The pool holds the observer's address.
  MinePool(const MinePool&) = delete;
  MinePool& operator=(const MinePool&) = delete;

  ThreadPool* get() const { return pool_.get(); }

 private:
  // Declared before the pool so it outlives the worker threads.
  obs::TracingPoolObserver steal_observer_;
  std::unique_ptr<ThreadPool> pool_;
};

// Runs fn(begin, end, worker) over [0, count) in chunks of `chunk`: as
// tasks on `pool` (worker = the pool worker's id), or inline as worker 0
// when `pool` is null. Returns once every chunk has run.
template <typename Fn>
void ForEachChunk(ThreadPool* pool, std::size_t count, std::size_t chunk,
                  const Fn& fn) {
  for (std::size_t begin = 0; begin < count; begin += chunk) {
    const std::size_t end = std::min(count, begin + chunk);
    if (pool == nullptr) {
      fn(begin, end, 0);
    } else {
      pool->Submit([&fn, begin, end](std::size_t worker) {
        fn(begin, end, worker);
      });
    }
  }
  if (pool != nullptr) pool->Wait();
}

// The ids of the rows in `rows`, ascending, in *out.
void RowIds(const Bitset& rows, std::vector<std::uint32_t>* out) {
  out->clear();
  rows.ForEach(
      [&](std::size_t r) { out->push_back(static_cast<std::uint32_t>(r)); });
}

// Index of the lowest set bit of a non-zero word.
std::size_t LowestBit(std::uint64_t word) {
  return static_cast<std::size_t>(__builtin_ctzll(word));
}

// True when a ∩ ¬b ∩ ¬c is non-empty; the three sets are the same size.
bool AnyOutside(const Bitset& a, const Bitset& b, const Bitset& c) {
  const std::uint64_t* aw = a.words().data();
  const std::uint64_t* bw = b.words().data();
  const std::uint64_t* cw = c.words().data();
  for (std::size_t w = 0; w < a.words().size(); ++w) {
    if ((aw[w] & ~bw[w] & ~cw[w]) != 0) return true;
  }
  return false;
}

}  // namespace

FarmerMiner::FarmerMiner(const BinaryDataset& dataset,
                         const MinerOptions& options)
    : options_(options),
      order_(OrderRowsByConsequent(dataset, options.consequent)),
      permuted_(PermuteRows(dataset, order_)),
      n_(dataset.num_rows()),
      m_(order_.num_positive),
      exact_mode_(!options.enable_pruning1 || !options.enable_pruning2) {
  // The transposed table, straight from the permuted rows: item i's
  // tuple is the set of rows that contain it.
  tuple_bits_.resize(permuted_.num_items());
  for (Bitset& t : tuple_bits_) t.Resize(n_);
  for (std::size_t r = 0; r < n_; ++r) {
    for (ItemId i : permuted_.row(static_cast<RowId>(r))) {
      tuple_bits_[i].Set(r);
    }
  }
  words_ = (n_ + 63) / 64;
  root_common_.Resize(n_);
  root_common_.SetAll();
  root_union_.Resize(n_);
  for (ItemId i = 0; i < tuple_bits_.size(); ++i) {
    const Bitset& t = tuple_bits_[i];
    if (t.None()) continue;
    root_alive_.push_back(i);
    root_common_ &= t;
    root_union_ |= t;
    root_max_ep_ = std::max(root_max_ep_, t.CountPrefix(m_));
  }
  if (options_.metrics != nullptr) {
    task_seconds_ = options_.metrics->GetHistogram(
        "farmer.task.seconds", {1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0});
  }
}

bool FarmerMiner::PassesThresholds(std::size_t supp, std::size_t supn) const {
  if (supp < std::max<std::size_t>(1, options_.min_support)) return false;
  const std::size_t x = supp + supn;
  const double conf = Confidence(supp, x);
  if (conf < options_.min_confidence) return false;
  if (options_.min_chi_square > 0.0 &&
      ChiSquare(x, supp, n_, m_) < options_.min_chi_square) {
    return false;
  }
  if (options_.min_lift > 0.0 &&
      Lift(x, supp, n_, m_) < options_.min_lift) {
    return false;
  }
  if (options_.min_conviction > 0.0 &&
      Conviction(x, supp, n_, m_) < options_.min_conviction) {
    return false;
  }
  if (options_.min_entropy_gain > 0.0 &&
      EntropyGain(x, supp, n_, m_) < options_.min_entropy_gain) {
    return false;
  }
  if (options_.min_gini_gain > 0.0 &&
      GiniGain(x, supp, n_, m_) < options_.min_gini_gain) {
    return false;
  }
  if (options_.min_correlation > 0.0 &&
      PhiCoefficient(x, supp, n_, m_) < options_.min_correlation) {
    return false;
  }
  return true;
}

double FarmerMiner::EffectiveMinConfidence(const SearchContext& ctx) const {
  double floor = options_.min_confidence;
  if (options_.top_k > 0 && ctx.dynamic_floor &&
      ctx.store.topk_confs.size() == options_.top_k) {
    // topk_confs is sorted descending; back() is the k-th best. Subtrees
    // whose confidence bound is strictly below it cannot improve the top-k
    // (ties still enter via the support tie-break, so the prune below uses
    // a strict comparison).
    floor = std::max(floor, ctx.store.topk_confs.back());
  }
  return floor;
}

void FarmerMiner::GroupStore::Clear() {
  groups.clear();
  counts.clear();
  confs.clear();
  row_groups.clear();
  topk_confs.clear();
  seen_exact.clear();
}

bool FarmerMiner::IsDominated(const IndexView& index, std::size_t limit,
                              std::span<const std::uint32_t> query,
                              double conf) const {
  // The IRG comparison (Definition 2.2): a more general rule group exists
  // with confidence >= ours iff some stored group's row set is a proper
  // superset of ours (antecedent closure reverses inclusion). Lemma 3.4
  // plus the post-order insert guarantees all more general groups passing
  // the constraints are already stored. Per 64-group block, the AND of
  // the query rows' words leaves exactly the stored supersets; most
  // blocks die after one or two words. A superset is proper iff it is
  // strictly larger.
  const std::size_t row_count = query.size();
  const std::uint64_t* block = index.row_groups;
  for (std::size_t base = 0; base < limit; base += 64, block += n_) {
    // Slots at or past `limit` may be indexed (the merge queries a
    // prefix of its candidates) but must not be reported.
    const std::size_t live = limit - base;
    std::uint64_t hits =
        live >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << live) - 1;
    // Most blocks die within a few rows, at an unpredictable one: AND the
    // first four rows without a branch, then exit early.
    const std::uint32_t* q = query.data();
    std::size_t next = 0;
    if (row_count >= 4) {
      hits &= block[q[0]] & block[q[1]] & block[q[2]] & block[q[3]];
      next = 4;
    }
    for (; next < row_count && hits != 0; ++next) hits &= block[q[next]];
    for (; hits != 0; hits &= hits - 1) {
      const std::size_t idx =
          base + static_cast<std::size_t>(__builtin_ctzll(hits));
      if (index.counts[idx] > row_count && index.confs[idx] >= conf) {
        return true;
      }
    }
  }
  return false;
}

void FarmerMiner::InsertGroup(GroupStore& store, RuleGroup g) const {
  const std::size_t idx = store.groups.size();
  const std::size_t blocks_end = (idx / 64 + 1) * n_;
  if (store.row_groups.size() < blocks_end) {
    store.row_groups.resize(blocks_end);
  }
  IndexRows(store.row_groups.data(), idx, g.rows);
  store.counts.push_back(
      static_cast<std::uint32_t>(g.support_pos + g.support_neg));
  store.confs.push_back(g.confidence);
  store.groups.push_back(std::move(g));
}

void FarmerMiner::IndexRows(std::uint64_t* row_groups, std::size_t idx,
                            const Bitset& rows) const {
  std::uint64_t* block = row_groups + (idx / 64) * n_;
  const std::uint64_t bit = std::uint64_t{1} << (idx % 64);
  rows.ForEach([&](std::size_t r) { block[r] |= bit; });
}

void FarmerMiner::MaybeInsertGroup(SearchContext& ctx, std::size_t depth,
                                   std::size_t supp, std::size_t supn) {
  DepthScratch& s = ctx.arena[depth];
  const Bitset* rows = &s.support;
  if (exact_mode_) {
    // With Pruning 1 or 2 disabled, the incremental counts undercount the
    // true support: R(I(X)) is the rows occurring in every tuple, which
    // the scan already materialized as `common`. The same group is then
    // reached at several nodes, so deduplicate on the row set (hash set on
    // the bitset digest, equality verified on collision).
    rows = &s.common;
    supp = s.common.CountPrefix(m_);
    supn = s.common.Count() - supp;
    if (!ctx.store.seen_exact.insert(s.common).second) return;
  }

  if (!PassesThresholds(supp, supn)) return;
  GroupStore& store = ctx.store;
  const double conf = Confidence(supp, supp + supn);
  if (!options_.report_all_rule_groups) {
    RowIds(*rows, &store.query_rows);
    const IndexView index{store.row_groups.data(), store.counts.data(),
                          store.confs.data()};
    if (IsDominated(index, store.groups.size(), store.query_rows, conf)) {
      return;
    }
  }
  InsertGroup(store, MakeGroup(s, *rows, supp, supn));

  if (options_.top_k > 0) {
    auto it = std::lower_bound(store.topk_confs.begin(),
                               store.topk_confs.end(), conf,
                               [](double a, double b) { return a > b; });
    store.topk_confs.insert(it, conf);
    if (store.topk_confs.size() > options_.top_k) store.topk_confs.pop_back();
  }
}

RuleGroup FarmerMiner::MakeGroup(const DepthScratch& s, const Bitset& rows,
                                 std::size_t supp, std::size_t supn) const {
  RuleGroup g;
  if (options_.store_antecedents) {
    g.antecedent.reserve(s.alive.size());
    for (ItemId it : s.alive) g.antecedent.push_back(it);
  }
  g.rows = rows;
  g.support_pos = supp;
  g.support_neg = supn;
  g.confidence = Confidence(supp, supp + supn);
  g.chi_square = ChiSquare(supp + supn, supp, n_, m_);
  return g;
}

template <typename GroupAt>
void FarmerMiner::ValidateIndex(std::span<const std::uint64_t> row_groups,
                                std::span<const std::uint32_t> counts,
                                std::span<const double> confs, std::size_t size,
                                const GroupAt& group_at) const {
  FARMER_CHECK(counts.size() == size && confs.size() == size)
      << "index arrays out of step with the groups";
  FARMER_CHECK(row_groups.size() % n_ == 0 &&
               row_groups.size() >= (size + 63) / 64 * n_)
      << "row-group bitmap does not hold one block per 64 groups";
  for (std::size_t i = 0; i < size; ++i) {
    const RuleGroup& g = group_at(i);
    FARMER_CHECK(counts[i] == g.rows.Count())
        << "group " << i << ": indexed row count disagrees with its row set";
    FARMER_CHECK(confs[i] == g.confidence)
        << "group " << i << ": indexed confidence disagrees with the group";
    // The group's bit must be set on exactly its rows across its block,
    // else the dominance comparison would miss it or report a non-superset.
    const std::uint64_t* block = row_groups.data() + (i / 64) * n_;
    for (std::size_t r = 0; r < n_; ++r) {
      const bool indexed = (block[r] >> (i % 64)) & 1;
      FARMER_CHECK(indexed == g.rows.Test(r))
          << "group " << i << ": row-group bitmap disagrees at row " << r;
    }
  }
  // Slots past the last group carry no bits: the part of its block the
  // groups leave free, and every later block.
  const std::size_t first_free_block = size / 64;
  for (std::size_t w = first_free_block * n_; w < row_groups.size(); ++w) {
    const std::uint64_t unused = w / n_ == first_free_block
                                     ? ~std::uint64_t{0} << (size % 64)
                                     : ~std::uint64_t{0};
    FARMER_CHECK((row_groups[w] & unused) == 0)
        << "row-group bitmap sets an unused slot at row " << w % n_;
  }
}

void FarmerMiner::ValidateGroups(const std::vector<RuleGroup>& gs) const {
  for (std::size_t i = 0; i < gs.size(); ++i) {
    const RuleGroup& g = gs[i];
    g.rows.CheckInvariants();
    const std::size_t count = g.rows.Count();
    FARMER_CHECK(g.support_pos + g.support_neg == count)
        << "group " << i << ": support counts disagree with its row set";
    FARMER_CHECK(g.support_pos == ref::CountPrefix(g.rows, m_))
        << "group " << i << ": positive support disagrees with its row set";
    FARMER_CHECK(g.confidence ==
                 Confidence(g.support_pos, g.support_pos + g.support_neg))
        << "group " << i << ": stale confidence";
  }
  // Closed-pattern uniqueness: every stored row set identifies exactly one
  // group.
  for (std::size_t i = 0; i < gs.size(); ++i) {
    for (std::size_t j = i + 1; j < gs.size(); ++j) {
      FARMER_CHECK(gs[i].rows != gs[j].rows)
          << "groups " << i << " and " << j
          << " store the same closed row set";
    }
  }
  // Dominance soundness (Definition 2.2): no stored group may be
  // dominated by another stored group — a proper row superset with
  // confidence at least as high.
  if (!options_.report_all_rule_groups) {
    for (std::size_t i = 0; i < gs.size(); ++i) {
      for (std::size_t j = 0; j < gs.size(); ++j) {
        if (i == j || !gs[i].rows.IsProperSubsetOf(gs[j].rows)) continue;
        FARMER_CHECK(gs[j].confidence < gs[i].confidence)
            << "group " << i << " is dominated by stored group " << j;
      }
    }
  }
}

void FarmerMiner::ValidateClosedAntecedents(
    const std::vector<RuleGroup>& groups) const {
  for (std::size_t i = 0; i < groups.size(); ++i) {
    const RuleGroup& g = groups[i];
    const std::size_t first = g.rows.FindFirst();
    FARMER_CHECK(first < g.rows.size()) << "group " << i << ": no rows";
    ItemVector closure = permuted_.row(static_cast<RowId>(first));
    for (std::size_t r = g.rows.FindNext(first); r < g.rows.size();
         r = g.rows.FindNext(r)) {
      const ItemVector& row = permuted_.row(static_cast<RowId>(r));
      ItemVector merged;
      std::set_intersection(closure.begin(), closure.end(), row.begin(),
                            row.end(), std::back_inserter(merged));
      closure = std::move(merged);
    }
    FARMER_CHECK(closure == g.antecedent)
        << "group " << i
        << ": stored antecedent is not the closed upper bound I(rows)";
  }
}

bool FarmerMiner::VisitNode(SearchContext& ctx, std::size_t depth,
                            std::size_t* supp, std::size_t* supn) {
  DepthScratch& s = ctx.arena[depth];

  // Step 1 — Pruning 2 (back scan, Lemma 3.6): a "foreign" row lies
  // outside both the identified support and the candidate list yet occurs
  // in every tuple — the node's whole subtree was then already enumerated
  // under an earlier node. The rows in every tuple were delivered as
  // `common`, so the scan is one pass over its words instead of the
  // paper's per-row pointer-list scan.
  if (options_.enable_pruning2) {
    const bool duplicate_subtree = AnyOutside(s.common, s.support, s.cand);
    if (FARMER_PREDICT_FALSE(options_.verify_invariants)) {
      std::vector<const Bitset*> tuples;
      for (ItemId it : s.alive) tuples.push_back(&tuple_bits_[it]);
      Bitset all_rows(n_);
      all_rows.SetAll();
      const Bitset foreign =
          ref::AndNotInto(ref::AndNotInto(all_rows, s.support), s.cand);
      FARMER_CHECK(duplicate_subtree ==
                   ref::IntersectsAllOf(foreign, tuples.data(),
                                        tuples.size()))
          << "delivered back scan diverged from the scalar reference";
    }
    if (duplicate_subtree) {
      ++ctx.stats.pruned_by_backscan;
      return false;
    }
  }

  // Step 2 — Pruning 3 with the loose bounds (before absorption). Consequent
  // rows have ids < m_, so the class-C candidates are a bit prefix.
  const std::size_t ep = s.cand.CountPrefix(m_);
  if (FARMER_PREDICT_FALSE(options_.verify_invariants)) {
    FARMER_CHECK(ep == ref::CountPrefix(s.cand, m_))
        << "CountPrefix diverged from the scalar reference";
  }
  const std::size_t supp_entry = *supp;
  const std::size_t us2 = supp_entry + ep;
  if (options_.enable_pruning3) {
    if (us2 < std::max<std::size_t>(1, options_.min_support)) {
      ++ctx.stats.pruned_by_support;
      return false;
    }
    const double minconf = EffectiveMinConfidence(ctx);
    if (minconf > 0.0) {
      const double uc2 = Confidence(us2, us2 + *supn);
      if (uc2 < minconf) {
        ++ctx.stats.pruned_by_confidence;
        return false;
      }
    }
  }

  // Step 3 — absorption. The rows in every tuple that are still
  // candidates form the absorption set Y of Lemma 3.5; `occupied` (the
  // candidates in >= 1 tuple, the set U) and the per-tuple maximum of
  // class-C candidates for the tight bound were delivered with `common`.
  if (FARMER_PREDICT_FALSE(options_.verify_invariants)) {
    // Replay the delivered state through the bit-by-bit reference kernels.
    Bitset expect_common = tuple_bits_[s.alive[0]];
    Bitset expect_occupied(n_);
    std::size_t expect_max_ep = 0;
    for (ItemId it : s.alive) {
      const Bitset& t = tuple_bits_[it];
      expect_common = ref::AndInto(expect_common, t);
      expect_occupied = ref::OrAnd(expect_occupied, t, s.cand);
      expect_max_ep =
          std::max(expect_max_ep, ref::AndCountPrefix(t, s.cand, m_));
    }
    s.common.CheckInvariants();
    s.occupied.CheckInvariants();
    FARMER_CHECK(s.common == expect_common)
        << "delivered common diverged from the scalar reference";
    FARMER_CHECK(s.occupied == expect_occupied)
        << "delivered occupied diverged from the scalar reference";
    FARMER_CHECK(s.max_ep == expect_max_ep)
        << "delivered max_ep diverged from the scalar reference";
  }
  Bitset::AndInto(s.common, s.cand, &s.absorbed);
  if (FARMER_PREDICT_FALSE(options_.verify_invariants)) {
    FARMER_CHECK(s.absorbed == ref::AndInto(s.common, s.cand))
        << "AndInto diverged from the scalar reference";
  }
  if (options_.enable_pruning1 && s.absorbed.Any()) {
    // Pruning 1: rows occurring in every tuple are absorbed into the
    // support right now (Lemma 3.5) instead of spawning children.
    s.support |= s.absorbed;
    const std::size_t absorbed = s.absorbed.Count();
    const std::size_t absorbed_pos = s.absorbed.CountPrefix(m_);
    if (FARMER_PREDICT_FALSE(options_.verify_invariants)) {
      FARMER_CHECK(absorbed == ref::AndCount(s.absorbed, s.absorbed))
          << "Count diverged from the scalar reference";
      FARMER_CHECK(absorbed_pos == ref::CountPrefix(s.absorbed, m_))
          << "CountPrefix diverged from the scalar reference";
    }
    *supp += absorbed_pos;
    *supn += absorbed - absorbed_pos;
    ctx.stats.rows_absorbed += absorbed;
    Bitset::AndNotInto(s.occupied, s.absorbed, &s.new_cands);
    if (FARMER_PREDICT_FALSE(options_.verify_invariants)) {
      FARMER_CHECK(s.new_cands == ref::AndNotInto(s.occupied, s.absorbed))
          << "AndNotInto diverged from the scalar reference";
    }
  } else {
    s.new_cands = s.occupied;
  }

  // Step 4 — Pruning 3 with the tight bounds (after absorption).
  if (options_.enable_pruning3) {
    const std::size_t us1 = supp_entry + s.max_ep;
    if (us1 < std::max<std::size_t>(1, options_.min_support)) {
      ++ctx.stats.pruned_by_support;
      return false;
    }
    if (!exact_mode_) {
      // The tight confidence/chi-square bounds require supp/supn to be the
      // exact counts of R(I(X)); that only holds when Prunings 1 and 2 are
      // active (ablation runs fall back to the loose bounds above).
      const double uc1 = Confidence(us1, us1 + *supn);
      const double minconf = EffectiveMinConfidence(ctx);
      if (minconf > 0.0 && uc1 < minconf) {
        ++ctx.stats.pruned_by_confidence;
        return false;
      }
      if (options_.min_chi_square > 0.0 &&
          ChiSquareUpperBound(*supp + *supn, *supp, n_, m_) <
              options_.min_chi_square) {
        ++ctx.stats.pruned_by_chi;
        return false;
      }
      if (options_.min_lift > 0.0 &&
          LiftUpperBound(uc1, n_, m_) < options_.min_lift) {
        ++ctx.stats.pruned_by_extension;
        return false;
      }
      if (options_.min_conviction > 0.0 &&
          ConvictionUpperBound(uc1, n_, m_) < options_.min_conviction) {
        ++ctx.stats.pruned_by_extension;
        return false;
      }
      if (options_.min_entropy_gain > 0.0 &&
          EntropyGainUpperBound(*supp + *supn, *supp, n_, m_) <
              options_.min_entropy_gain) {
        ++ctx.stats.pruned_by_extension;
        return false;
      }
      if (options_.min_gini_gain > 0.0 &&
          GiniGainUpperBound(*supp + *supn, *supp, n_, m_) <
              options_.min_gini_gain) {
        ++ctx.stats.pruned_by_extension;
        return false;
      }
      if (options_.min_correlation > 0.0 &&
          PhiUpperBound(*supp + *supn, *supp, n_, m_) <
              options_.min_correlation) {
        ++ctx.stats.pruned_by_extension;
        return false;
      }
    }
  }
  return true;
}

void FarmerMiner::Deliver(SearchContext& ctx, std::span<const ItemId> alive,
                          const Bitset& cands, std::size_t only_row,
                          DepthScratch* out) const {
  const std::size_t words = words_;
  DepthScratch& d = *out;
  if (d.list_begin.size() < n_) {
    d.list_begin.resize(n_);
    d.list_end.resize(n_);
    d.child_max_ep.resize(n_);
    d.child_common.resize(n_ * words);
    d.child_union.resize(n_ * words);
  }
  const auto reset = [&](std::size_t r) {
    d.list_end[r] = 0;
    std::fill_n(d.child_common.begin() + r * words, words, ~std::uint64_t{0});
    std::fill_n(d.child_union.begin() + r * words, words, 0);
    d.child_max_ep[r] = 0;
  };
  // Folds tuple t into row r's accumulators; `ep` is |t ∩ cands ∩ (r, m)|.
  const auto fold = [&](std::size_t r, const std::uint64_t* t,
                        std::size_t ep) {
    std::uint64_t* common = d.child_common.data() + r * words;
    std::uint64_t* uni = d.child_union.data() + r * words;
    for (std::size_t v = 0; v < words; ++v) {
      common[v] &= t[v];
      uni[v] |= t[v];
    }
    const auto ep32 = static_cast<std::uint32_t>(ep);
    d.child_max_ep[r] = std::max(d.child_max_ep[r], ep32);
  };

  if (only_row < n_) {
    // One receiving row: test each tuple for it, and its list is the
    // whole buffer.
    reset(only_row);
    if (d.delivered.size() < alive.size()) d.delivered.resize(alive.size());
    std::uint32_t count = 0;
    for (ItemId it : alive) {
      const Bitset& t = tuple_bits_[it];
      if (!t.Test(only_row)) continue;
      std::size_t ep = 0;
      if (only_row < m_) {
        const std::size_t through_row = t.AndCountPrefix(cands, only_row + 1);
        ep = t.AndCountPrefix(cands, m_) - through_row;
      }
      d.delivered[count++] = it;
      fold(only_row, t.words().data(), ep);
    }
    d.list_begin[only_row] = 0;
    d.list_end[only_row] = count;
    return;
  }

  // Pass 1 folds each tuple into its rows' accumulators, counts each row's
  // tuples in list_end, and records the rows, tuple by tuple, in
  // ctx.occurrence_rows (tuple i's end in ctx.occurrence_ends[i]).
  cands.ForEach(reset);
  std::vector<std::uint32_t>& rows = ctx.occurrence_rows;
  std::vector<std::uint32_t>& ends = ctx.occurrence_ends;
  if (ends.size() < alive.size()) ends.resize(alive.size());
  const std::uint64_t* c = cands.words().data();
  std::size_t k = 0;
  for (std::size_t i = 0; i < alive.size(); ++i) {
    const Bitset& tuple = tuple_bits_[alive[i]];
    const std::uint64_t* t = tuple.words().data();
    if (rows.size() < k + 64 * words) rows.resize(2 * (k + 64 * words));
    // t's class-C candidates ascending: the j-th of `after` has after - 1 - j
    // of them behind it, its tight-bound count as a child.
    std::size_t after = tuple.AndCountPrefix(cands, m_);
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t x = t[w] & c[w]; x != 0; x &= x - 1) {
        const std::size_t r = w * 64 + LowestBit(x);
        rows[k++] = static_cast<std::uint32_t>(r);
        ++d.list_end[r];
        fold(r, t, r < m_ ? --after : 0);
      }
    }
    ends[i] = static_cast<std::uint32_t>(k);
  }

  // Lay the lists out back to back in row order; list_end becomes each
  // list's fill cursor.
  std::uint32_t total = 0;
  cands.ForEach([&](std::size_t r) {
    const std::uint32_t count = d.list_end[r];
    d.list_begin[r] = total;
    d.list_end[r] = total;
    total += count;
  });
  if (d.delivered.size() < total) d.delivered.resize(total);
  // Pass 2 appends each tuple to its rows' lists, in `alive` order.
  k = 0;
  for (std::size_t i = 0; i < alive.size(); ++i) {
    for (; k < ends[i]; ++k) d.delivered[d.list_end[rows[k]]++] = alive[i];
  }
}

void FarmerMiner::EnterChild(const DepthScratch& from,
                             std::span<const ItemId> alive,
                             const Bitset& cands, const Bitset& support,
                             std::size_t row, DepthScratch* child) const {
  const std::uint32_t begin = from.list_begin[row];
  const std::uint32_t count = from.list_end[row] - begin;
  child->alive = std::span<const ItemId>(from.delivered).subspan(begin, count);
  child->max_ep = from.child_max_ep[row];
  // One pass over the words: the candidates strictly after `row`, the
  // support plus `row`, and the delivered common and occupied sets.
  const std::size_t words = words_;
  const std::uint64_t* from_cand = cands.words().data();
  const std::uint64_t* from_support = support.words().data();
  const std::uint64_t* common = from.child_common.data() + row * words;
  const std::uint64_t* uni = from.child_union.data() + row * words;
  std::uint64_t* cand = child->cand.mutable_words();
  std::uint64_t* child_support = child->support.mutable_words();
  std::uint64_t* child_common = child->common.mutable_words();
  std::uint64_t* occupied = child->occupied.mutable_words();
  const std::size_t row_word = row / 64;
  const std::uint64_t row_bit = std::uint64_t{1} << (row % 64);
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t after = w < row_word ? 0 : ~std::uint64_t{0};
    std::uint64_t with_row = 0;
    if (w == row_word) {
      after = ~(row_bit | (row_bit - 1));
      with_row = row_bit;
    }
    cand[w] = from_cand[w] & after;
    child_support[w] = from_support[w] | with_row;
    child_common[w] = common[w];
    occupied[w] = uni[w] & cand[w];
  }
  if (FARMER_PREDICT_FALSE(options_.verify_invariants)) {
    std::vector<ItemId> expect;
    for (ItemId it : alive) {
      if (tuple_bits_[it].Test(row)) expect.push_back(it);
    }
    FARMER_CHECK(std::equal(expect.begin(), expect.end(),
                            child->alive.begin(), child->alive.end()))
        << "row " << row << ": delivered alive list diverged from the "
        << "parent's tuples containing it";
    Bitset expect_cand = cands;
    expect_cand.ResetPrefix(row + 1);
    Bitset expect_support = support;
    expect_support.Set(row);
    FARMER_CHECK(child->cand == expect_cand && child->support == expect_support)
        << "row " << row << ": child candidates or support diverged";
  }
}

void FarmerMiner::EnterRoot(DepthScratch* root) const {
  root->alive = root_alive_;
  root->cand.SetAll();
  root->support.ResetAll();
  root->common = root_common_;
  root->occupied = root_union_;
  root->max_ep = root_max_ep_;
}

void FarmerMiner::EnterSplitChild(SearchContext& ctx,
                                  const SplitSnapshot& parent,
                                  std::size_t row, std::size_t depth) const {
  DepthScratch& from = ctx.arena[depth - 1];
  Deliver(ctx, parent.alive, parent.cands, row, &from);
  EnterChild(from, parent.alive, parent.cands, parent.support, row,
             &ctx.arena[depth]);
}

void FarmerMiner::MineIRGs(SearchContext& ctx, std::size_t depth,
                           std::size_t supp, std::size_t supn) {
  if (ctx.stats.timed_out) return;
  if (ctx.cancel != nullptr && ctx.cancel->Cancelled()) {
    ctx.stats.timed_out = true;
    return;
  }
  if (ctx.deadline.Expired()) {
    ctx.stats.timed_out = true;
    if (ctx.cancel != nullptr) ctx.cancel->Cancel();
    return;
  }
  ++ctx.stats.nodes_visited;
  if (FARMER_PREDICT_FALSE(options_.progress != nullptr)) {
    options_.progress->RaiseMaxDepth(depth);
    // Flush counter deltas in batches so the live counters stay fresh
    // without putting an atomic RMW on every enumeration node.
    if ((ctx.stats.nodes_visited & 0x3F) == 0) PublishProgress(ctx);
  }
  DepthScratch& s = ctx.arena[depth];
  if (s.alive.empty()) return;  // I(X) = ∅: no rule here or below.

  // Steps 1-4: prunings, scan, absorption.
  if (!VisitNode(ctx, depth, &supp, &supn)) return;

  // Steps 5/6 — recurse into each remaining candidate, ascending. The ORD
  // order makes the class restriction implicit: after descending into a
  // ¬C row, every later row is ¬C as well. The node delivers its tuples to
  // all children in one pass before the first inline child. A task that
  // splits (ShouldSplit) converts the remaining branches into tasks
  // instead.
  DepthScratch& child = ctx.arena[depth + 1];
  bool delivered = false;
  bool spawned_children = false;
  // The root node publishes its branch count so the progress reporter
  // can estimate completion from first-level branches finished.
  const bool track_root =
      FARMER_PREDICT_FALSE(options_.progress != nullptr) && depth == 0;
  if (track_root) {
    options_.progress->root_total.store(s.new_cands.Count(),
                                        std::memory_order_relaxed);
  }
  for (std::size_t ri = s.new_cands.FindFirst(); ri < n_;
       ri = s.new_cands.FindNext(ri)) {
    if (ctx.split != Split::kNone && ShouldSplit(ctx, depth)) {
      SpawnRemaining(ctx, depth, ri, supp, supn);
      spawned_children = true;
      break;
    }
    if (!delivered) {
      Deliver(ctx, s.alive, s.new_cands, /*only_row=*/n_, &s);
      delivered = true;
    }
    EnterChild(s, s.alive, s.new_cands, s.support, ri, &child);
    if (ctx.split != Split::kNone) {
      ctx.path.push_back(static_cast<std::uint32_t>(ri));
    }
    MineIRGs(ctx, depth + 1, supp + (ri < m_ ? 1 : 0),
             supn + (ri >= m_ ? 1 : 0));
    if (ctx.split != Split::kNone) ctx.path.pop_back();
    if (ctx.stats.timed_out) return;
    if (track_root) {
      options_.progress->root_done.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Step 7 — after the whole subtree (so every more general group is
  // already stored), decide whether I(X) -> C is an IRG. When children
  // were spawned, the decision is deferred past their merge.
  if (spawned_children) {
    DeferStep7(ctx, depth, supp, supn);
  } else {
    MaybeInsertGroup(ctx, depth, supp, supn);
  }
}

bool FarmerMiner::ShouldSplit(const SearchContext& ctx,
                              std::size_t depth) const {
  // The plan's root splits at its first child, so no other node is
  // visited under kCollectRoot.
  if (ctx.split == Split::kCollectRoot) return true;
  return depth < options_.max_split_depth &&
         ctx.shared->pool->ApproxPending() < ctx.shared->hungry_below;
}

void FarmerMiner::SpawnRemaining(SearchContext& ctx, std::size_t depth,
                                 std::size_t first_row, std::size_t supp,
                                 std::size_t supn) {
  DepthScratch& s = ctx.arena[depth];
  auto snapshot = std::make_shared<SplitSnapshot>();
  snapshot->alive.assign(s.alive.begin(), s.alive.end());
  snapshot->cands = s.new_cands;
  snapshot->support = s.support;
  const std::size_t before = ctx.stats.tasks_spawned;
  for (std::size_t ri = first_row; ri < n_; ri = s.new_cands.FindNext(ri)) {
    SubtreeTask task;
    task.parent = snapshot;
    task.row = static_cast<std::uint32_t>(ri);
    task.depth = depth + 1;
    task.supp = supp + (ri < m_ ? 1 : 0);
    task.supn = supn + (ri >= m_ ? 1 : 0);
    task.id = ctx.path;
    task.id.push_back(task.row);
    task.home_worker = ctx.lane == 0
                           ? kExternalWorker
                           : static_cast<std::uint32_t>(ctx.lane - 1);
    ++ctx.stats.tasks_spawned;
    if (ctx.split == Split::kCollectRoot) {
      ctx.collected.push_back(std::move(task));
    } else {
      SubmitTask(*ctx.shared, std::move(task), ctx.lane);
    }
  }
  if (options_.trace != nullptr) {
    options_.trace->Instant(
        ctx.lane, "spawn", "tasks",
        static_cast<std::int64_t>(ctx.stats.tasks_spawned - before),
        "depth", static_cast<std::int64_t>(depth));
  }
}

void FarmerMiner::DeferStep7(SearchContext& ctx, std::size_t depth,
                             std::size_t supp, std::size_t supn) {
  DepthScratch& s = ctx.arena[depth];
  const Bitset* rows = &s.support;
  if (exact_mode_) {
    // Same recomputation as MaybeInsertGroup; the local dedup is skipped —
    // the merge's global seen_exact handles duplicates in id order.
    rows = &s.common;
    supp = s.common.CountPrefix(m_);
    supn = s.common.Count() - supp;
  }
  TaskId closer_id = ctx.path;
  closer_id.push_back(kCloserRank);
  // Thresholds are state-independent: check now, ship only qualifying
  // groups. Dominance (and exact-mode dedup) rerun at merge time, where
  // the spawned children's groups are already in the store.
  if (PassesThresholds(supp, supn)) {
    Segment closer;
    closer.id = closer_id;
    closer.groups.push_back(MakeGroup(s, *rows, supp, supn));
    ctx.closers.push_back(std::move(closer));
  }
  // Later inline insertions (ancestors' later branches and their step-7
  // records) resume in a fresh segment ordered after this node's whole
  // subtree: path + [closer, closer] sorts after every descendant id and
  // after the closer itself, but before any later sibling's path.
  closer_id.push_back(kCloserRank);
  ctx.seg_bounds.emplace_back(std::move(closer_id), ctx.store.groups.size());
}

FarmerMiner::SearchContext FarmerMiner::MakeContext(CancelFlag* cancel) const {
  SearchContext ctx;
  ctx.arena.resize(n_ + 2);
  for (DepthScratch& s : ctx.arena) {
    s.cand.Resize(n_);
    s.support.Resize(n_);
    s.common.Resize(n_);
    s.occupied.Resize(n_);
    s.new_cands.Resize(n_);
    s.absorbed.Resize(n_);
  }
  ctx.deadline = options_.deadline;
  ctx.cancel = cancel;
  return ctx;
}

void FarmerMiner::SubmitTask(ParallelShared& shared, SubtreeTask task,
                             std::size_t lane) {
  if (options_.trace != nullptr) {
    options_.trace->Instant(lane, "enqueue", "row",
                            static_cast<std::int64_t>(task.row), "depth",
                            static_cast<std::int64_t>(task.depth));
  }
  shared.pool->Submit(
      [this, &shared, task = std::move(task)](std::size_t worker_id) {
        SearchContext& ctx = (*shared.contexts)[worker_id];
        std::vector<Segment> out =
            ExecuteSubtree(ctx, task, Split::kWhenHungry);
        MutexLock lock(shared.mutex);
        shared.stats.MergeFrom(ctx.stats);
        for (Segment& seg : out) shared.segments.push_back(std::move(seg));
      });
}

std::vector<MineSegment> FarmerMiner::ExecuteSubtree(SearchContext& ctx,
                                                     const SubtreeTask& task,
                                                     Split split) {
  // With telemetry off, no clock is read.
  const std::uint64_t span_start =
      options_.trace != nullptr ? options_.trace->NowNs() : 0;
  std::optional<Stopwatch> task_sw;
  if (task_seconds_ != nullptr) task_sw.emplace();

  // Reset the context for this task, keeping every capacity. The plan
  // visits the root alone and must list every lease even after the
  // deadline fired.
  ctx.store.Clear();
  ctx.stats = MinerStats{};
  ctx.deadline = split == Split::kCollectRoot ? Deadline() : options_.deadline;
  ctx.split = split;
  // The top-k floor may rise with the store only when that one store
  // sees the whole tree. A store that sees part of it can hold groups a
  // whole-tree run would have dropped as dominated (their witness lives
  // in another task), and those can raise its floor above the whole-tree
  // one — over-pruning subtrees the whole-tree run explores. The static
  // min_confidence floor is always <= the whole-tree floor, so a partial
  // store mines a superset; every extra group's confidence is strictly
  // below the final k-th confidence and the top-k selection discards it,
  // keeping the reported groups bit-identical.
  ctx.dynamic_floor = task.parent == nullptr && split == Split::kNone;
  ctx.path = task.id;
  ctx.seg_bounds.clear();
  ctx.seg_bounds.emplace_back(task.id, 0);
  ctx.closers.clear();
  ctx.collected.clear();
  ctx.published = MinerStats{};
  ctx.published_groups = 0;

  if (task.parent == nullptr) {
    EnterRoot(&ctx.arena[0]);
  } else {
    // Enter from the shared split snapshot, inside the executing thread
    // and into preallocated storage: the spawner copied nothing.
    EnterSplitChild(ctx, *task.parent, task.row, task.depth);
  }
  MineIRGs(ctx, task.depth, task.supp, task.supn);

  // Slice the inline insertions into their segments; the deferred
  // closers follow.
  std::vector<Segment> out;
  out.reserve(ctx.seg_bounds.size() + ctx.closers.size());
  for (std::size_t b = 0; b < ctx.seg_bounds.size(); ++b) {
    const std::size_t begin = ctx.seg_bounds[b].second;
    const std::size_t end = b + 1 < ctx.seg_bounds.size()
                                ? ctx.seg_bounds[b + 1].second
                                : ctx.store.groups.size();
    if (begin == end) continue;
    Segment seg;
    seg.id = std::move(ctx.seg_bounds[b].first);
    seg.groups.assign(
        std::make_move_iterator(ctx.store.groups.begin() + begin),
        std::make_move_iterator(ctx.store.groups.begin() + end));
    out.push_back(std::move(seg));
  }
  for (Segment& closer : ctx.closers) out.push_back(std::move(closer));

  if (FARMER_PREDICT_FALSE(options_.progress != nullptr)) {
    PublishProgress(ctx);
    options_.progress->tasks_completed.fetch_add(
        1, std::memory_order_relaxed);
  }
  if (options_.trace != nullptr) {
    const bool stolen = task.home_worker != kExternalWorker &&
                        task.home_worker + std::size_t{1} != ctx.lane;
    options_.trace->EndSpan(ctx.lane, "task", span_start, "depth",
                            static_cast<std::int64_t>(task.depth),
                            "stolen", stolen ? 1 : 0);
  }
  if (task_sw.has_value()) task_seconds_->Observe(task_sw->ElapsedSeconds());
  return out;
}

// The sequential miner drops candidate c_i iff an earlier *stored*
// group dominates it (a proper row superset with confidence >= its own).
// That is the same as "some earlier *candidate* dominates c_i": a
// dropped candidate was dominated by an earlier stored one, and
// dominance is transitive; an exact-mode duplicate has the same rows and
// confidence as its first copy, which is the one kept. So each
// candidate's fate depends only on the candidates before it, never on
// another keep/drop decision, and the checks can run in any order; and
// once a prefix of the id order is known, its candidates are final.
//
// The appending thread walks each batch's segments in id order, dedups
// (exact mode) and indexes every candidate into a row->group bitmap.
// Each completed chunk of kMergeChunk candidates goes to the pool at
// once and is checked against the lower indices. A chunk is two whole
// 64-candidate blocks, so the workers read only blocks the appending
// thread has finished writing. The index lives in fixed-size slabs that
// never move, so nothing a worker reads is reallocated under it, and a
// merge fed in many batches allocates no more than a merge fed in one.
//
// The deadline bounds the merge too. A worker samples its own copy of it
// after each chunk it checks; once it has fired, chunks not yet checked
// are skipped and the appending thread stops indexing. A candidate is
// kept only when it was checked, so the partial result holds only IRGs.
class FarmerMiner::Merger {
 public:
  Merger(const FarmerMiner& miner, ThreadPool* pool)
      : miner_(miner),
        options_(miner.options_),
        pool_(pool),
        queries_(pool != nullptr ? pool->num_threads() : 1),
        deadlines_(queries_.size(), options_.deadline) {
    if (options_.metrics != nullptr) {
      merge_segments_ = options_.metrics->GetCounter("farmer.merge.segments");
    }
  }

  ~Merger();

  Merger(const Merger&) = delete;
  Merger& operator=(const Merger&) = delete;

  // Appends `batch`, whose ids must all order after every id appended
  // before.
  void Append(std::vector<Segment> batch) {
    std::stable_sort(
        batch.begin(), batch.end(),
        [](const Segment& a, const Segment& b) { return a.id < b.id; });
    if (batch.empty()) return;
    FARMER_CHECK(!appended_ || last_id_ < batch.front().id)
        << "merge batches out of id order";
    appended_ = true;
    last_id_ = batch.back().id;
    std::size_t candidates = size_;
    for (const Segment& seg : batch) candidates += seg.groups.size();
    ReserveSlabs(candidates);
    // The candidates stay in the batch, so indexing them moves nothing.
    batches_.push_back(std::move(batch));
    for (Segment& seg : batches_.back()) {
      if (Expired()) break;
      // One "merge" span per segment on the control lane; the workers
      // checking candidates emit no events.
      obs::ScopedSpan span(options_.trace, obs::TraceSession::kMainLane,
                           "merge");
      span.Arg("groups", static_cast<std::int64_t>(seg.groups.size()));
      if (merge_segments_ != nullptr) merge_segments_->Increment();
      for (RuleGroup& g : seg.groups) {
        if (miner_.exact_mode_ && !seen_exact_.insert(g.rows).second) {
          continue;
        }
        if (size_ % kSlabSize == 0) AddSlab();
        Slab& slab = *slabs_.back();
        const std::size_t j = size_ % kSlabSize;
        miner_.IndexRows(slab.row_groups.data(), j, g.rows);
        slab.counts[j] =
            static_cast<std::uint32_t>(g.support_pos + g.support_neg);
        slab.confs[j] = g.confidence;
        slab.groups[j] = &g;
        if (++size_ % kMergeChunk == 0) {
          HandOut(size_);
          if (Expired()) break;
        }
      }
      // Debug mode: the candidate index must be exact after *every*
      // segment, not only at the end.
      if (FARMER_PREDICT_FALSE(options_.verify_invariants)) {
        for (std::size_t s = 0; s < slabs_.size(); ++s) {
          const Slab& slab = *slabs_[s];
          const std::size_t fill = Fill(s);
          const auto group_at = [&](std::size_t j) -> const RuleGroup& {
            return *slab.groups[j];
          };
          miner_.ValidateIndex(slab.row_groups, {slab.counts.get(), fill},
                               {slab.confs.get(), fill}, fill, group_at);
        }
      }
    }
  }

  // Checks what is left and returns the surviving candidates, in id
  // order.
  std::vector<RuleGroup> Finish(MinerStats* stats) {
    HandOut(size_);
    if (pool_ != nullptr) pool_->Wait();
    std::size_t num_kept = 0;
    for (std::size_t s = 0; s < slabs_.size(); ++s) {
      for (std::size_t j = 0; j < Fill(s); ++j) num_kept += slabs_[s]->keep[j];
    }
    std::vector<RuleGroup> kept;
    kept.reserve(num_kept);
    for (std::size_t s = 0; s < slabs_.size(); ++s) {
      const Slab& slab = *slabs_[s];
      for (std::size_t j = 0; j < Fill(s); ++j) {
        if (slab.keep[j] != 0) kept.push_back(std::move(*slab.groups[j]));
      }
    }
    slabs_.clear();
    batches_.clear();
    if (Expired()) stats->timed_out = true;
    if (FARMER_PREDICT_FALSE(options_.verify_invariants)) {
      miner_.ValidateGroups(kept);
    }
    return kept;
  }

 private:
  static constexpr std::size_t kMergeChunk = 128;
  // Candidates per slab: a whole number of chunks.
  static constexpr std::size_t kSlabSize = 32 * kMergeChunk;

  // The index of kSlabSize candidates: a GroupStore's layout over
  // candidates that stay in their batch. Allocated once, so nothing the
  // workers read changes under them but the slots being filled; the
  // arrays past the fill are never touched.
  struct Slab {
    std::vector<std::uint64_t> row_groups;
    std::unique_ptr<std::uint32_t[]> counts;
    std::unique_ptr<double[]> confs;
    std::unique_ptr<RuleGroup*[]> groups;
    std::vector<std::uint8_t> keep;  // keep[j]: candidate j survives.

    IndexView View() const {
      return {row_groups.data(), counts.get(), confs.get()};
    }
  };

  bool Expired() const { return expired_.load(std::memory_order_relaxed); }

  // Candidates indexed in slab s.
  std::size_t Fill(std::size_t s) const {
    return std::min(kSlabSize, size_ - s * kSlabSize);
  }

  // Makes room in slabs_ for `candidates` in all, doubling at least.
  // Workers read slabs_ while it grows, so moving it waits for them; a
  // merge fed in one batch never waits.
  void ReserveSlabs(std::size_t candidates) {
    const std::size_t slabs = (candidates + kSlabSize - 1) / kSlabSize;
    if (slabs <= slabs_.capacity()) return;
    if (pool_ != nullptr) pool_->Wait();
    slabs_.reserve(std::max(slabs, 2 * slabs_.capacity()));
  }

  void AddSlab() {
    auto slab = std::make_unique<Slab>();
    slab->row_groups.resize(kSlabSize / 64 * miner_.n_);
    slab->counts = std::make_unique_for_overwrite<std::uint32_t[]>(kSlabSize);
    slab->confs = std::make_unique_for_overwrite<double[]>(kSlabSize);
    slab->groups = std::make_unique_for_overwrite<RuleGroup*[]>(kSlabSize);
    // Report-all mode keeps every candidate without checking it.
    slab->keep.assign(kSlabSize, options_.report_all_rule_groups ? 1 : 0);
    slabs_.push_back(std::move(slab));
  }

  // Queues the check of candidates [handed_out_, end).
  void HandOut(std::size_t end) {
    if (!options_.report_all_rule_groups && end > handed_out_) {
      if (pool_ == nullptr) {
        Check(handed_out_, end, 0);
      } else {
        pool_->Submit([this, begin = handed_out_, end](std::size_t worker) {
          Check(begin, end, worker);
        });
      }
    }
    handed_out_ = end;
  }

  // Checks candidates [begin, end) against every candidate before each.
  void Check(std::size_t begin, std::size_t end, std::size_t worker) {
    if (Expired()) return;
    std::vector<std::uint32_t>& query = queries_[worker].rows;
    for (std::size_t i = begin; i < end; ++i) {
      Slab& own = *slabs_[i / kSlabSize];
      const std::size_t j = i % kSlabSize;
      RowIds(own.groups[j]->rows, &query);
      const double conf = own.confs[j];
      bool dominated = false;
      for (std::size_t s = 0; s <= i / kSlabSize && !dominated; ++s) {
        const std::size_t limit = s < i / kSlabSize ? kSlabSize : j;
        dominated = miner_.IsDominated(slabs_[s]->View(), limit, query, conf);
      }
      own.keep[j] = dominated ? 0 : 1;
    }
    if (deadlines_[worker].ExpiredNow()) {
      expired_.store(true, std::memory_order_relaxed);
    }
  }

  // One worker's query rows, on a cache line of its own.
  struct alignas(64) Query {
    std::vector<std::uint32_t> rows;
  };

  // Read by the workers.
  const FarmerMiner& miner_;
  const MinerOptions& options_;
  ThreadPool* const pool_;
  std::vector<std::unique_ptr<Slab>> slabs_;
  std::vector<Query> queries_;  // Per worker.
  // ExpiredNow() updates the Deadline it is called on: one copy each.
  std::vector<Deadline> deadlines_;
  std::atomic<bool> expired_{false};
  obs::Counter* merge_segments_ = nullptr;

  // Written by the appending thread for every candidate, so kept off the
  // cache lines the workers read.
  alignas(64) std::size_t size_ = 0;  // Candidates indexed.
  std::size_t handed_out_ = 0;  // Candidates [0, handed_out_) are queued.
  std::vector<std::vector<Segment>> batches_;  // Hold the candidates.
  // Row sets already indexed (exact-mode deduplication).
  std::unordered_set<Bitset, BitsetHash> seen_exact_;
  bool appended_ = false;
  TaskId last_id_;  // The largest id appended so far.
};

FarmerMiner::Merger::~Merger() {
  // Queued checks hold `this`.
  if (pool_ != nullptr) pool_->Wait();
}

struct FarmerMiner::FarmMerge {
  explicit FarmMerge(const FarmerMiner& miner)
      : pool(miner.options_), merger(miner, pool.get()) {}

  MinePool pool;
  Merger merger;  // After the pool: its checks run there.
};

FarmerMiner::~FarmerMiner() = default;

std::vector<RuleGroup> FarmerMiner::RunSearch(MinerStats* stats,
                                              ThreadPool* pool) {
  CancelFlag cancel;
  if (pool == nullptr) {
    // One store sees the whole tree, so the root task's one segment is
    // already the merged result.
    SearchContext ctx = MakeContext(&cancel);
    std::vector<Segment> segments =
        ExecuteSubtree(ctx, SubtreeTask{}, Split::kNone);
    *stats = ctx.stats;
    std::vector<RuleGroup> groups;
    if (!segments.empty()) groups = std::move(segments.front().groups);
    if (FARMER_PREDICT_FALSE(options_.verify_invariants)) {
      const GroupStore& store = ctx.store;
      const auto group_at = [&](std::size_t i) -> const RuleGroup& {
        return groups[i];
      };
      ValidateIndex(store.row_groups, store.counts, store.confs,
                    groups.size(), group_at);
      ValidateGroups(groups);
    }
    return groups;
  }

  // Parallel search: a single root task seeds the work-stealing pool;
  // workers split their subtrees adaptively whenever the pool runs low
  // on queued work (ShouldSplit), so one skewed subtree cannot serialize
  // the run. Every emitted segment carries the lexicographic id of its
  // position in the sequential insertion stream.
  const std::size_t num_workers = pool->num_threads();
  ParallelShared shared;
  shared.pool = pool;
  shared.hungry_below = num_workers;
  std::vector<SearchContext> contexts;
  contexts.reserve(num_workers);
  for (std::size_t w = 0; w < num_workers; ++w) {
    contexts.push_back(MakeContext(&cancel));
    contexts.back().shared = &shared;
    contexts.back().lane = w + 1;
  }
  shared.contexts = &contexts;

  SubtreeTask root_task;  // parent == nullptr, id == {}: the tree root.
  if (FARMER_PREDICT_FALSE(options_.progress != nullptr)) {
    // Count the root task too, so completed/spawned can reach 1.0.
    options_.progress->tasks_spawned.fetch_add(1,
                                               std::memory_order_relaxed);
  }
  SubmitTask(shared, std::move(root_task), obs::TraceSession::kMainLane);
  pool->Wait();
  if (FARMER_PREDICT_FALSE(options_.verify_invariants)) {
    pool->CheckQuiescent();
  }

  // pool->Wait() means no task can still touch `shared`, but that is a
  // scheduling argument the analysis cannot see — so take the (now
  // uncontended) lock once and move the guarded state into locals.
  std::vector<Segment> segments;
  {
    MutexLock lock(shared.mutex);
    *stats = shared.stats;
    segments = std::move(shared.segments);
  }
  // The drained workers' arenas and stores are dead weight now: free
  // them before the merge builds its own index.
  shared.contexts = nullptr;
  std::vector<SearchContext>().swap(contexts);
  Merger merger(*this, pool);
  merger.Append(std::move(segments));
  return merger.Finish(stats);
}

void FarmerMiner::PublishProgress(SearchContext& ctx) const {
  obs::ProgressCounters& p = *options_.progress;
  const MinerStats& s = ctx.stats;
  MinerStats& q = ctx.published;
  const auto relaxed = std::memory_order_relaxed;
  p.nodes.fetch_add(s.nodes_visited - q.nodes_visited, relaxed);
  p.pruned_backscan.fetch_add(
      s.pruned_by_backscan - q.pruned_by_backscan, relaxed);
  p.pruned_support.fetch_add(
      s.pruned_by_support - q.pruned_by_support, relaxed);
  p.pruned_confidence.fetch_add(
      s.pruned_by_confidence - q.pruned_by_confidence, relaxed);
  p.pruned_chi.fetch_add(s.pruned_by_chi - q.pruned_by_chi, relaxed);
  p.pruned_extension.fetch_add(
      s.pruned_by_extension - q.pruned_by_extension, relaxed);
  p.rows_absorbed.fetch_add(s.rows_absorbed - q.rows_absorbed, relaxed);
  p.tasks_spawned.fetch_add(s.tasks_spawned - q.tasks_spawned, relaxed);
  q = s;
  const std::size_t g = ctx.store.groups.size();
  if (g > ctx.published_groups) {
    p.groups.fetch_add(g - ctx.published_groups, relaxed);
    ctx.published_groups = g;
  }
}

void FarmerMiner::ExportMetrics(const FarmerResult& result) const {
  obs::MetricsRegistry& m = *options_.metrics;
  m.GetCounter("farmer.nodes_visited")->Add(stats_.nodes_visited);
  m.GetCounter("farmer.pruned.backscan")->Add(stats_.pruned_by_backscan);
  m.GetCounter("farmer.pruned.support")->Add(stats_.pruned_by_support);
  m.GetCounter("farmer.pruned.confidence")
      ->Add(stats_.pruned_by_confidence);
  m.GetCounter("farmer.pruned.chi")->Add(stats_.pruned_by_chi);
  m.GetCounter("farmer.pruned.extension")
      ->Add(stats_.pruned_by_extension);
  m.GetCounter("farmer.rows_absorbed")->Add(stats_.rows_absorbed);
  m.GetCounter("farmer.tasks.spawned")->Add(stats_.tasks_spawned);
  m.GetCounter("farmer.tasks.steals")->Add(stats_.task_steals);
  m.GetCounter("farmer.tasks.stolen")->Add(stats_.tasks_stolen);
  m.GetCounter("farmer.groups")->Add(result.groups.size());
  m.GetGauge("farmer.mine_seconds")->Set(stats_.mine_seconds);
  m.GetGauge("farmer.lower_bound_seconds")
      ->Set(stats_.lower_bound_seconds);
  m.GetGauge("farmer.timed_out")->Set(stats_.timed_out ? 1.0 : 0.0);
  m.GetGauge("farmer.num_threads")
      ->Set(static_cast<double>(options_.num_threads));
  obs::Histogram* support = m.GetHistogram(
      "farmer.group.rows", {1, 2, 4, 8, 16, 32, 64, 128, 256});
  for (const RuleGroup& g : result.groups) {
    support->Observe(
        static_cast<double>(g.support_pos + g.support_neg));
  }
}

void FarmerMiner::ApplySimdOverride() const {
  // Apply the per-run kernel-tier override before any bitset kernel
  // runs; a level this binary/host cannot execute must fail loudly, not
  // quietly mine on the wrong tier. The stats record whichever tier the
  // run actually used.
  if (!options_.simd_level.empty()) {
    FARMER_CHECK(simd::Configure(options_.simd_level))
        << "MinerOptions::simd_level='" << options_.simd_level
        << "' is not usable here (supported: " << simd::SupportedLevelsCsv()
        << ")";
  }
}

FarmerResult FarmerMiner::Mine() {
  ApplySimdOverride();

  FarmerResult result;
  result.num_rows = n_;
  result.num_consequent_rows = m_;
  if (n_ == 0) return result;

  MinePool pool(options_);
  Stopwatch sw;
  std::vector<RuleGroup> groups;
  {
    obs::ScopedSpan span(options_.trace, obs::TraceSession::kMainLane,
                         "mine");
    groups = RunSearch(&stats_, pool.get());
    span.Arg("nodes", static_cast<std::int64_t>(stats_.nodes_visited));
    span.Arg("groups", static_cast<std::int64_t>(groups.size()));
  }
  stats_.mine_seconds = sw.ElapsedSeconds();
  return FinalizeResult(std::move(groups), pool.get());
}

FarmerResult FarmerMiner::FinalizeResult(std::vector<RuleGroup> groups,
                                         ThreadPool* pool) {
  FarmerResult result;
  result.num_rows = n_;
  result.num_consequent_rows = m_;
  // After RunSearch (and in farm merges): the search overwrites stats_
  // with the aggregated per-task counters, which never carry a level of
  // their own.
  stats_.simd_level = simd::LevelName(simd::ActiveLevel());

  // Debug mode: every reported upper bound must be the closed antecedent
  // of its row set (closed-pattern uniqueness — the property that makes a
  // rule-group representation lossless).
  if (FARMER_PREDICT_FALSE(options_.verify_invariants) &&
      options_.store_antecedents) {
    ValidateClosedAntecedents(groups);
  }

  // Top-k selection: best confidence first, support breaks ties. Sort
  // even when k or fewer groups arrive: a one-thread mine's rising floor
  // can leave exactly k, in discovery order.
  if (options_.top_k > 0) {
    std::stable_sort(groups.begin(), groups.end(),
                     [](const RuleGroup& a, const RuleGroup& b) {
                       if (a.confidence != b.confidence) {
                         return a.confidence > b.confidence;
                       }
                       return a.support_pos > b.support_pos;
                     });
    if (groups.size() > options_.top_k) groups.resize(options_.top_k);
  }

  // Optional lower-bound mining (MineLB), still in permuted row ids.
  if (options_.mine_lower_bounds) {
    Stopwatch lb_sw;
    obs::ScopedSpan lb_phase(options_.trace, obs::TraceSession::kMainLane,
                             "minelb_phase");
    lb_phase.Arg("groups", static_cast<std::int64_t>(groups.size()));
    MineGroupLowerBounds(groups, pool);
    stats_.lower_bound_seconds = lb_sw.ElapsedSeconds();
  }

  {
    obs::ScopedSpan span(options_.trace, obs::TraceSession::kMainLane,
                         "remap");
    span.Arg("groups", static_cast<std::int64_t>(groups.size()));
    RemapRows(groups, pool);
  }
  if (pool != nullptr) {
    // Every phase above ran on the pool, and so did the search.
    stats_.task_steals += pool->steal_count();
    stats_.tasks_stolen += pool->stolen_task_count();
  }

  result.groups = std::move(groups);
  result.stats = stats_;
  if (options_.metrics != nullptr) ExportMetrics(result);
  return result;
}

void FarmerMiner::MineGroupLowerBounds(std::vector<RuleGroup>& groups,
                                       ThreadPool* pool) {
  const std::size_t workers = pool != nullptr ? pool->num_threads() : 1;
  std::vector<MineLbScratch> scratch(workers);
  // Expired() and ExpiredNow() update the Deadline they are called on, so
  // every worker samples a copy of its own.
  std::vector<Deadline> deadlines(workers, options_.deadline);
  std::vector<std::uint8_t> finished(groups.size(), 0);
  // Set once the deadline fired, on any worker: the groups not started
  // yet are skipped.
  std::atomic<bool> expired{false};
  const auto mine = [&](std::size_t begin, std::size_t end,
                        std::size_t worker) {
    const std::size_t lane =
        pool != nullptr ? worker + 1 : obs::TraceSession::kMainLane;
    ItemVector recovered;
    for (std::size_t i = begin; i < end; ++i) {
      // Unthrottled: one MineLB call can dwarf the check interval, so
      // each group re-samples the clock directly.
      if (expired.load(std::memory_order_relaxed) ||
          deadlines[worker].ExpiredNow()) {
        expired.store(true, std::memory_order_relaxed);
        return;
      }
      RuleGroup& g = groups[i];
      const ItemVector* antecedent = &g.antecedent;
      if (antecedent->empty()) {
        // Antecedents were not stored: recover I(rows) by intersecting the
        // member rows' itemsets.
        const std::size_t first = g.rows.FindFirst();
        recovered = permuted_.row(static_cast<RowId>(first));
        for (std::size_t r = g.rows.FindNext(first); r < g.rows.size();
             r = g.rows.FindNext(r)) {
          const ItemVector& row = permuted_.row(static_cast<RowId>(r));
          ItemVector merged;
          std::set_intersection(recovered.begin(), recovered.end(),
                                row.begin(), row.end(),
                                std::back_inserter(merged));
          recovered = std::move(merged);
        }
        antecedent = &recovered;
      }
      LowerBoundResult lb;
      {
        obs::ScopedSpan span(options_.trace, lane, "minelb");
        lb = MineLowerBounds(tuple_bits_, *antecedent, g.rows,
                             options_.max_lower_bound_candidates,
                             &deadlines[worker], &scratch[worker]);
        span.Arg("bounds",
                 static_cast<std::int64_t>(lb.lower_bounds.size()));
        span.Arg("truncated", lb.truncated ? 1 : 0);
      }
      if (FARMER_PREDICT_FALSE(options_.progress != nullptr)) {
        options_.progress->minelb_done.fetch_add(
            1, std::memory_order_relaxed);
      }
      if (FARMER_PREDICT_FALSE(options_.verify_invariants) &&
          !lb.truncated) {
        FARMER_CHECK_OK(ValidateLowerBounds(permuted_, *antecedent, g.rows,
                                            lb.lower_bounds))
            << "MineLB produced a non-minimal or non-generating bound";
      }
      g.lower_bounds = std::move(lb.lower_bounds);
      g.lower_bounds_truncated = lb.truncated;
      finished[i] = 1;
      if (lb.timed_out) {
        // The deadline fired inside the computation; the remaining
        // groups' MineLB calls would all time out instantly too.
        expired.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };
  ForEachChunk(pool, groups.size(), /*chunk=*/32, mine);
  if (expired.load(std::memory_order_relaxed)) stats_.timed_out = true;
  // Groups MineLB never finished carry partial or no bounds: flag them.
  for (std::size_t i = 0; i < groups.size(); ++i) {
    if (finished[i] == 0) groups[i].lower_bounds_truncated = true;
  }
}

void FarmerMiner::RemapRows(std::vector<RuleGroup>& groups,
                            ThreadPool* pool) const {
  std::vector<Bitset> scratch(pool != nullptr ? pool->num_threads() : 1,
                              Bitset(n_));
  const auto remap = [&](std::size_t begin, std::size_t end,
                         std::size_t worker) {
    Bitset& permuted = scratch[worker];
    for (std::size_t i = begin; i < end; ++i) {
      // Swap the permuted-id rows into the scratch and rewrite the group's
      // own (same-sized) storage: no allocation per group.
      Bitset& rows = groups[i].rows;
      std::swap(permuted, rows);
      rows.ResetAll();
      permuted.ForEach(
          [&](std::size_t pos) { rows.Set(order_.order[pos]); });
    }
  };
  ForEachChunk(pool, groups.size(), /*chunk=*/1024, remap);
}

const FarmerMiner::FarmPlan& FarmerMiner::PlanFarm() {
  ApplySimdOverride();
  if (farm_root_ != nullptr) return farm_root_->plan;
  farm_ctx_ =
      std::make_unique<SearchContext>(MakeContext(/*cancel=*/nullptr));
  farm_root_ = std::make_unique<FarmRoot>();
  FarmPlan& plan = farm_root_->plan;
  plan.root_segments =
      ExecuteSubtree(*farm_ctx_, SubtreeTask{}, Split::kCollectRoot);
  plan.root_stats = farm_ctx_->stats;
  farm_root_->leases = std::move(farm_ctx_->collected);
  for (const SubtreeTask& lease : farm_root_->leases) {
    plan.lease_rows.push_back(lease.row);
  }
  plan.root_pruned = plan.lease_rows.empty() && plan.root_segments.empty();
  return plan;
}

std::vector<MineSegment> FarmerMiner::MineFarmLease(std::uint32_t row,
                                                    CancelFlag* cancel,
                                                    MinerStats* stats) {
  const std::vector<std::uint32_t>& rows = PlanFarm().lease_rows;
  const auto it = std::lower_bound(rows.begin(), rows.end(), row);
  FARMER_CHECK(it != rows.end() && *it == row)
      << "row " << row << " is not a farm lease root";
  SearchContext& ctx = *farm_ctx_;
  ctx.cancel = cancel;
  std::vector<MineSegment> out = ExecuteSubtree(
      ctx, farm_root_->leases[it - rows.begin()], Split::kNone);
  ctx.cancel = nullptr;
  if (stats != nullptr) *stats = ctx.stats;
  return out;
}

FarmerResult FarmerMiner::FinalizeFarm(std::vector<MineSegment> segments,
                                       MinerStats stats) {
  ApplySimdOverride();
  FarmerResult result;
  result.num_rows = n_;
  result.num_consequent_rows = m_;
  if (n_ == 0) return result;
  stats_ = stats;

  // The deterministic merge of RunSearch, fed by uploads instead of the
  // pool's shared segment vector. Duplicate uploads of the same lease
  // must NOT reach this point (the coordinator dedups by lease id): two
  // copies of one segment would double-insert in report-all mode.
  MergeFarmSegments(std::move(segments));
  const std::unique_ptr<FarmMerge> merge = std::move(farm_merge_);
  return FinalizeResult(merge->merger.Finish(&stats_), merge->pool.get());
}

void FarmerMiner::MergeFarmSegments(std::vector<MineSegment> batch) {
  if (farm_merge_ == nullptr) farm_merge_ = std::make_unique<FarmMerge>(*this);
  farm_merge_->merger.Append(std::move(batch));
}

}  // namespace internal

FarmerResult MineFarmer(const BinaryDataset& dataset,
                        const MinerOptions& options) {
  internal::FarmerMiner miner(dataset, options);
  return miner.Mine();
}

}  // namespace farmer
