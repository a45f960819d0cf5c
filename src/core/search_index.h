// The index interface shared by RTSI and the extended-LSII baseline, so
// workloads, tests and benches drive both through identical code.

#ifndef RTSI_CORE_SEARCH_INDEX_H_
#define RTSI_CORE_SEARCH_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace rtsi::core {

/// One term of an audio window with its in-window frequency.
using TermCount = rtsi::TermCount;

/// A scored query result.
struct ScoredStream {
  StreamId stream = 0;
  double score = 0.0;
};

/// Optional result filtering for top-k queries. Filters drop candidates
/// at scoring time; pruning bounds stay valid (they only ever
/// overestimate). Part of the exec::QueryPlan every query path executes.
struct QueryFilter {
  /// Return only streams that are currently broadcasting.
  bool live_only = false;
  /// Return only streams whose latest window is at/after this timestamp
  /// (0 = no constraint).
  Timestamp min_frsh = 0;
};

/// Per-query diagnostics.
struct QueryStats {
  std::size_t components_visited = 0;
  std::size_t components_pruned = 0;   // Dropped by the theta bound walk.
  std::size_t components_skipped = 0;  // Skip header proved terms absent.
  std::size_t bloom_false_positives = 0;
  std::size_t postings_scanned = 0;
  std::size_t candidates_scored = 0;
  std::size_t candidates_screened = 0;  // Dropped by the admission screen.
  bool terminated_early = false;
};

class SearchIndex {
 public:
  virtual ~SearchIndex() = default;

  /// Inserts one audio window (the terms of ~60 s of audio) of `stream`.
  /// `live` marks the stream as still broadcasting.
  virtual void InsertWindow(StreamId stream, Timestamp now,
                            const std::vector<TermCount>& terms,
                            bool live) = 0;

  /// Marks the broadcast finished (stream remains searchable).
  virtual void FinishStream(StreamId stream) = 0;

  /// Lazily deletes the stream: it disappears from results immediately,
  /// postings are purged at merges.
  virtual void DeleteStream(StreamId stream) = 0;

  /// Popularity update (play counter / likes increment).
  virtual void UpdatePopularity(StreamId stream, std::uint64_t delta) = 0;

  /// Top-k search. `now` anchors freshness scoring.
  virtual std::vector<ScoredStream> Query(const std::vector<TermId>& terms,
                                          int k, Timestamp now,
                                          QueryStats* stats) = 0;

  std::vector<ScoredStream> Query(const std::vector<TermId>& terms, int k,
                                  Timestamp now) {
    return Query(terms, k, now, nullptr);
  }

  /// Blocks until merges the index runs off the calling thread are done.
  /// A no-op for indices that merge inline.
  virtual void WaitForMerges() {}

  /// Logical bytes held by the index (postings + hash tables).
  virtual std::size_t MemoryBytes() const = 0;

  virtual std::string name() const = 0;
};

}  // namespace rtsi::core

#endif  // RTSI_CORE_SEARCH_INDEX_H_
