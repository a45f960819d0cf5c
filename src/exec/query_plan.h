// QueryPlan: everything Algorithm 3 resolves once per query before any
// posting is touched — the deduplicated term list, per-term idfs, the
// result filter, the popularity normalizer, and the pruning regime. The
// plan is immutable during execution and carries no buffers, so it can be
// re-entered: a standing query builds its plan once and re-executes it
// against later index states (the ROADMAP's continuous-query seam), and
// fuzzy term expansion only has to rewrite `terms` before the build.

#ifndef RTSI_EXEC_QUERY_PLAN_H_
#define RTSI_EXEC_QUERY_PLAN_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "core/config.h"
#include "core/doc_freq.h"
#include "core/search_index.h"

namespace rtsi::exec {

/// One query's resolved inputs, shared verbatim by every operator
/// (capture-once semantics: every operator prunes and scores against the
/// same max_pop / bound mode).
struct QueryPlan {
  std::vector<TermId> terms;   // Deduplicated, first-seen order.
  std::vector<double> idfs;    // Parallel to `terms`.
  core::QueryFilter filter;
  int k = 0;
  Timestamp now = 0;
  std::uint64_t max_pop = 0;
  core::BoundMode bound_mode = core::BoundMode::kSnapshot;
  bool use_bound = true;
  /// Pruning comparison against a bound: RTSI prunes strictly-below only
  /// (a dropped candidate can never re-enter via the stream-id tie-break,
  /// which keeps results identical under any traversal order); the LSII
  /// baseline keeps the paper baseline's >= cut.
  bool prune_if_equal = false;

  std::size_t num_terms() const { return terms.size(); }

  bool empty() const { return terms.empty() || k <= 0; }
};

/// Builds `plan` from a raw term list: deduplicates preserving first-seen
/// order (membership via the caller's sorted flat set `term_set` — queries
/// hold a handful of terms, so binary search in a contiguous vector beats
/// both hashing and a quadratic scan) and resolves idfs from `df`. The
/// scalar knobs are copied as given; `term_set` is caller-owned scratch.
void BuildQueryPlan(const std::vector<TermId>& terms,
                    const core::DocumentFrequencyTable& df, int k,
                    Timestamp now, const core::QueryFilter& filter,
                    std::uint64_t max_pop, core::BoundMode bound_mode,
                    bool use_bound, bool prune_if_equal,
                    std::vector<TermId>& term_set, QueryPlan& plan);

}  // namespace rtsi::exec

#endif  // RTSI_EXEC_QUERY_PLAN_H_
