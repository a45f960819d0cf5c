#include "exec/sink.h"

#include <algorithm>

namespace rtsi::exec {

void TopKSink::Offer(StreamId stream, double score) {
  const core::ScoredStream candidate{stream, score};
  // A full sink rejects anything not above its worst entry; that also
  // covers a retained stream re-offered with a worse score.
  if (entries_.size() >= k_ && !RanksAbove(candidate, entries_.back())) {
    return;
  }
  // Keep-best per stream: a stream whose postings span several sealed
  // components is scored once per component.
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->stream != stream) continue;
    if (!RanksAbove(candidate, *it)) return;
    entries_.erase(it);
    break;
  }
  entries_.insert(std::upper_bound(entries_.begin(), entries_.end(),
                                   candidate, RanksAbove),
                  candidate);
  if (entries_.size() > k_) entries_.pop_back();
}

void FoldStats(core::QueryStats& total, const core::QueryStats& part) {
  total.components_visited += part.components_visited;
  total.components_pruned += part.components_pruned;
  total.components_skipped += part.components_skipped;
  total.bloom_false_positives += part.bloom_false_positives;
  total.postings_scanned += part.postings_scanned;
  total.candidates_scored += part.candidates_scored;
  total.candidates_screened += part.candidates_screened;
  total.terminated_early = total.terminated_early || part.terminated_early;
}

std::vector<core::ScoredStream> GatherPartials(
    const std::vector<std::vector<core::ScoredStream>>& partials, int k) {
  TopKSink sink(k);
  for (const auto& partial : partials) {
    for (const core::ScoredStream& r : partial) sink.Offer(r.stream, r.score);
  }
  return sink.SortedResults();
}

}  // namespace rtsi::exec
