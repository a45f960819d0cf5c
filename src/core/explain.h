// Query explanation: a structured account of how one query was answered —
// which phases produced candidates, which components were visited or
// pruned by the upper bound, and how each result's score decomposes into
// Equation 1's popularity / relevance / freshness parts.
//
// For operators debugging ranking ("why is this stream first?") and for
// tests asserting the pruning machinery. The explanation is recorded from
// the query's own walk: ExplainQuery runs the body of
// RtsiIndex::ExecutePlan with an exec::BreakdownRecorder attached, so its
// results, component fates and breakdowns are those of the query.

#ifndef RTSI_CORE_EXPLAIN_H_
#define RTSI_CORE_EXPLAIN_H_

#include <string>
#include <vector>

#include "common/types.h"

namespace rtsi::core {

/// Score decomposition of one result (Equation 1 terms, pre-weighting).
struct ScoreBreakdown {
  StreamId stream = 0;
  double pop_score = 0.0;   // Normalized popularity in [0, 1].
  double rel_score = 0.0;   // Squashed tf-idf in [0, 1).
  double frsh_score = 0.0;  // Freshness decay in (0, 1].
  double total = 0.0;       // wp*pop + wr*rel + wf*frsh.
  /// Per-query-term total term frequencies used for rel.
  std::vector<TermFreq> term_tfs;
  /// Where the candidate was discovered.
  enum class Source { kLiveTable, kL0Scan, kSealedComponent } source =
      Source::kSealedComponent;
};

/// One sealed component's fate during the query.
struct ComponentExplanation {
  int level = 0;
  std::size_t num_postings = 0;
  double upper_bound = 0.0;
  bool visited = false;          // False = pruned by the bound.
  bool skipped = false;          // Skip header proved every term absent.
  bool terminated_early = false; // Visited but cut off by the threshold.
  std::size_t postings_yielded = 0;
};

struct QueryExplanation {
  std::vector<TermId> terms;
  std::vector<double> idfs;
  int k = 0;
  Timestamp now = 0;

  std::size_t live_table_candidates = 0;
  std::size_t l0_candidates = 0;
  std::vector<ComponentExplanation> components;

  /// Results in rank order with their decompositions.
  std::vector<ScoreBreakdown> results;

  /// Multi-line human-readable rendering.
  std::string ToString() const;
};

}  // namespace rtsi::core

#endif  // RTSI_CORE_EXPLAIN_H_
