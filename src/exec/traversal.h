// The Traversal operator of the query-execution pipeline: component
// upper bounds (the sc-top of Algorithm 3) and the threshold-algorithm
// walk of a sealed component's three sorted inverted lists. Shared by
// every query path (RTSI query/explain and the extended-LSII baseline);
// moved here from core/query_util.

#ifndef RTSI_EXEC_TRAVERSAL_H_
#define RTSI_EXEC_TRAVERSAL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/config.h"
#include "core/scorer.h"
#include "index/inverted_index.h"

namespace rtsi::exec {

/// Per-query-term inputs for a component bound.
struct PerTermBound {
  index::TermBounds bounds;   // Maxima of the term inside the component.
  double idf = 0.0;
  TermFreq tf_correction = 0;  // Extra tf headroom for multi-component
                               // streams (0 when the owner guarantees
                               // consolidated totals; LSII uses its global
                               // per-term max total).
};

/// Largest possible score of any stream whose postings for the query terms
/// lie in a component with these maxima. Returns 0 when no term is
/// present. `frsh_ceiling` is a ceiling on the *live* freshness of every
/// stream resident in the component (per-component FreshnessCeiling cell;
/// the stream table's global max_frsh() is the sound fallback, and the
/// LSII baseline passes `now`); kGlobalPop mode substitutes it for the
/// component's stored freshness maxima, which go stale once a stream
/// posts again after the component sealed. kSnapshot ignores it.
double ComponentBound(const core::Scorer& scorer,
                      const std::vector<PerTermBound>& terms, Timestamp now,
                      std::uint64_t max_pop_count, Timestamp frsh_ceiling,
                      core::BoundMode mode);

/// Round-based sorted access over one sealed component (Algorithm 3 lines
/// 10-17): each round yields the next unchecked posting from each of the
/// three sorted lists of every query term ("GetTop3"), and Threshold()
/// bounds the score of every posting not yet yielded.
class Traversal {
 public:
  Traversal(const index::InvertedIndex& component,
            const std::vector<TermId>& terms);

  /// Appends this round's postings (up to 3 per live term) to `out`.
  /// Returns false when every term is exhausted (nothing appended).
  bool NextRound(std::vector<index::Posting>& out);

  /// As above; additionally appends, per appended posting, the index into
  /// the constructor's `terms` of the term whose list yielded it, so the
  /// caller can start candidate scoring from the discovering term's
  /// aggregate without re-deriving it.
  bool NextRound(std::vector<index::Posting>& out,
                 std::vector<std::uint32_t>& term_of);

  /// Upper bound on the score of all unchecked postings, from the current
  /// cursor values. `idfs` aligns with the constructor's `terms`;
  /// `frsh_ceiling` is the component's live-freshness ceiling (see
  /// ComponentBound).
  double Threshold(const core::Scorer& scorer,
                   const std::vector<double>& idfs, Timestamp now,
                   std::uint64_t max_pop_count, Timestamp frsh_ceiling,
                   core::BoundMode mode) const;

  /// Random access used when scoring a candidate discovered via another
  /// term: aggregated posting of `stream` for terms[i], if present.
  bool Find(std::size_t term_index, StreamId stream,
            index::Posting& out) const;

  std::size_t postings_yielded() const { return postings_yielded_; }

 private:
  struct TermCursor {
    index::TermPostingsView view;
    std::size_t pos[index::kNumSortKeys] = {0, 0, 0};
    bool exhausted = false;
  };

  bool NextRoundImpl(std::vector<index::Posting>& out,
                     std::vector<std::uint32_t>* term_of);

  std::vector<TermCursor> cursors_;
  std::size_t postings_yielded_ = 0;
};

}  // namespace rtsi::exec

#endif  // RTSI_EXEC_TRAVERSAL_H_
