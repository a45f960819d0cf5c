// Bounded top-k result heap.
//
// Ties break deterministically: results are ordered by (score descending,
// stream id ascending). The total order makes the retained top-k
// independent of the order candidates were offered in, which is what lets
// shard scatter-gather reproduce a single index's results bit for bit.

#ifndef RTSI_CORE_TOP_K_H_
#define RTSI_CORE_TOP_K_H_

#include <cstddef>
#include <set>
#include <unordered_map>
#include <vector>

#include "core/search_index.h"

namespace rtsi::core {

/// Keeps the k highest-scoring *distinct* streams offered to it. Offer()
/// is O(log k); ties are broken by stream id (lower wins), so the retained
/// set does not depend on offer order. Re-offering a retained stream keeps
/// only its better-ranked score: a stream whose postings transiently span
/// several sealed components is scored once per component, and every query
/// path must deterministically keep the same (best) partial score.
class TopKHeap {
 public:
  explicit TopKHeap(int k);

  void Offer(StreamId stream, double score);

  bool full() const { return entries_.size() >= k_; }
  std::size_t size() const { return entries_.size(); }

  /// Score of the current k-th (worst retained) result;
  /// -infinity while not full.
  double KthScore() const;

  /// Results sorted by descending score, ascending stream id on ties.
  std::vector<ScoredStream> SortedResults() const;

  /// Total result order: true when `a` ranks strictly above `b`.
  static bool RanksAbove(const ScoredStream& a, const ScoredStream& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.stream < b.stream;
  }

 private:
  struct BestFirst {
    bool operator()(const ScoredStream& a, const ScoredStream& b) const {
      return RanksAbove(a, b);
    }
  };

  std::size_t k_;
  // Retained results in rank order plus a stream -> score index for the
  // keep-best-per-stream upsert; both hold at most k entries.
  std::set<ScoredStream, BestFirst> entries_;
  std::unordered_map<StreamId, double> index_;
};

}  // namespace rtsi::core

#endif  // RTSI_CORE_TOP_K_H_
