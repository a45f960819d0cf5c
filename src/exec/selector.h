// ComponentSelector: the planning operator over a pinned component set.
//
// For each sealed component it resolves per-term bounds (through the skip
// header's Bloom filter + summaries when the plan prunes, else the
// posting-map Bounds()), computes the sc-top upper bound of Algorithm 3,
// drops components proven term-free or bound-free, precomputes the
// admission screen's relevance ceilings, and returns the survivors sorted
// best bound first, ties in snapshot order. Summary bounds are >= the
// posting-map bounds by construction, so switching lookups never tightens
// a bound — pruning stays lossless. This is RTSI's selector; the LSII
// baseline keeps its own selection loop (baseline/lsii_index.cc).

#ifndef RTSI_EXEC_SELECTOR_H_
#define RTSI_EXEC_SELECTOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/explain.h"
#include "core/scorer.h"
#include "core/search_index.h"
#include "exec/query_plan.h"
#include "exec/traversal.h"
#include "index/inverted_index.h"

namespace rtsi::exec {

/// One component that survived selection, with everything the traversal
/// driver needs. Bound and ceiling are captured at selection time (same
/// capture-once semantics as max_pop).
struct SelectedComponent {
  const index::InvertedIndex* component = nullptr;
  double bound = 0.0;
  Timestamp frsh_ceiling = 0;  // Live-freshness ceiling for Threshold().
  double rel_total = 0.0;   // Screen: bound on this component's rel part.
  std::size_t order = 0;    // Snapshot position: deterministic sort
                            // tie-break and the component's screen row.
  std::size_t explain_slot = 0;
  bool screen = false;      // Header summaries read: screen candidates.
};

/// Reused buffers for selection (views into QueryScratch or locals).
struct SelectorScratch {
  std::vector<PerTermBound>& per_term;
  std::vector<double>& screen_own;
  /// Out: component-major, stride num_terms; entry [c*nq+i] bounds the
  /// tf-idf mass the terms *other than* i can contribute inside the
  /// snapshot's component c (indexed by SelectedComponent::order).
  std::vector<double>& screen_tfidf;
};

/// Plans over `components` (a pinned view's snapshot): per-component
/// bounds, Bloom/bound skips (counted into `qs`), screen ingredients, and
/// the bound-descending sort. Skip headers are read exactly when
/// `plan.use_bound` is set. A component without a freshness ceiling cell
/// is bounded with `fallback_ceiling` (the stream table's max_frsh()).
/// When `explain` is non-null every component gets a ComponentExplanation
/// slot, pushed before any skip decision.
std::vector<SelectedComponent> SelectComponents(
    const QueryPlan& plan, const core::Scorer& scorer,
    const std::vector<std::shared_ptr<const index::InvertedIndex>>&
        components,
    Timestamp fallback_ceiling, SelectorScratch scratch,
    core::QueryStats& qs, core::QueryExplanation* explain);

}  // namespace rtsi::exec

#endif  // RTSI_EXEC_SELECTOR_H_
