// ResultSink: the pluggable tail of the query-execution pipeline.
//
// Every query path accumulates candidates through this interface —
// queries into a TopKSink, shard scatter-gather folds per-shard partials
// through a TopKSink, and future standing queries can implement a push
// sink without touching the traversal.
//
// Sink contract (what the pruning soundness arguments rely on):
//  * Offer() keeps the best score per stream under the deterministic
//    total order (score desc, stream asc) — re-offering a retained stream
//    with a worse partial score must not displace the better one.
//  * Threshold() is a monotone non-decreasing lower bound on the final
//    k-th score, and is -infinity until k distinct candidates have been
//    offered. Operators compare bounds against it to prune/screen; a
//    candidate dropped strictly below it can never have entered the final
//    top-k, whatever the traversal order.
//  * SortedResults() returns rank order under the same total order.
//  * A sink serves one query on one thread; none is thread-safe.

#ifndef RTSI_EXEC_SINK_H_
#define RTSI_EXEC_SINK_H_

#include <vector>

#include "core/search_index.h"
#include "core/top_k.h"

namespace rtsi::exec {

class ResultSink {
 public:
  virtual ~ResultSink() = default;

  /// Offers one scored candidate (keep-best-per-stream).
  virtual void Offer(StreamId stream, double score) = 0;

  /// Monotone lower bound on the final k-th score; -infinity until k
  /// distinct candidates have been offered.
  virtual double Threshold() const = 0;

  /// Results in (score desc, stream asc) rank order.
  virtual std::vector<core::ScoredStream> SortedResults() const = 0;
};

/// Single-threaded top-k sink over core::TopKHeap.
class TopKSink : public ResultSink {
 public:
  explicit TopKSink(int k) : heap_(k) {}

  void Offer(StreamId stream, double score) override {
    heap_.Offer(stream, score);
  }
  double Threshold() const override { return heap_.KthScore(); }
  std::vector<core::ScoredStream> SortedResults() const override {
    return heap_.SortedResults();
  }

  const core::TopKHeap& heap() const { return heap_; }

 private:
  core::TopKHeap heap_;
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
