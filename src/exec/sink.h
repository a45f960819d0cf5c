// TopKSink: the tail of the query-execution pipeline, where candidates
// land. Queries offer into one, shard scatter-gather folds per-shard
// partials through one, and the LSII and metadata baselines keep their
// results in one.
//
// Sink contract (what the pruning soundness arguments rely on):
//  * Offer() keeps the best score per stream under the deterministic
//    total order RanksAbove (score desc, stream asc) — re-offering a
//    retained stream with a worse partial score must not displace the
//    better one. The total order makes the retained top-k independent of
//    offer order, which is what lets shard scatter-gather reproduce a
//    single index's results bit for bit.
//  * Threshold() is a monotone non-decreasing lower bound on the final
//    k-th score, and is -infinity until k distinct candidates have been
//    offered. Operators compare bounds against it to prune/screen; a
//    candidate dropped strictly below it can never have entered the final
//    top-k, whatever the traversal order.
//  * SortedResults() returns rank order under the same total order.
//  * A sink serves one query on one thread; none is thread-safe.

#ifndef RTSI_EXEC_SINK_H_
#define RTSI_EXEC_SINK_H_

#include <cstddef>
#include <limits>
#include <vector>

#include "core/search_index.h"

namespace rtsi::exec {

/// Total result order: true when `a` ranks strictly above `b`.
inline bool RanksAbove(const core::ScoredStream& a,
                       const core::ScoredStream& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.stream < b.stream;
}

/// Keeps the k best-ranked *distinct* streams offered to it, in rank
/// order. k <= 0 acts as k = 1. The entries grow with offers only, never
/// with k, so a k taken from a request sizes no allocation up front.
class TopKSink {
 public:
  explicit TopKSink(int k) : k_(k < 1 ? 1 : static_cast<std::size_t>(k)) {}

  void Offer(StreamId stream, double score);

  double Threshold() const {
    return entries_.size() < k_ ? -std::numeric_limits<double>::infinity()
                                : entries_.back().score;
  }

  std::vector<core::ScoredStream> SortedResults() const { return entries_; }

 private:
  std::size_t k_;
  std::vector<core::ScoredStream> entries_;  // Rank order, at most k.
};

/// Folds one shard's / one modality's QueryStats into `total`.
void FoldStats(core::QueryStats& total, const core::QueryStats& part);

/// Scatter-gather merge: offers every per-shard partial top-k to one
/// deterministic sink. Each stream lives in exactly one shard and every
/// shard scores with the corpus-global statistics, so the gathered top-k
/// is exactly what a single index over the union would return.
std::vector<core::ScoredStream> GatherPartials(
    const std::vector<std::vector<core::ScoredStream>>& partials, int k);

}  // namespace rtsi::exec

#endif  // RTSI_EXEC_SINK_H_
