#include "baseline/metadata_index.h"

#include <algorithm>

#include "exec/sink.h"

namespace rtsi::baseline {

MetadataIndex::MetadataIndex(const core::RtsiConfig& config,
                             int metadata_terms)
    : config_(config),
      scorer_(config.weights, config.freshness_tau_seconds),
      metadata_terms_(std::max(metadata_terms, 1)) {}

void MetadataIndex::InsertWindow(StreamId stream, Timestamp now,
                                 const std::vector<core::TermCount>& terms,
                                 bool live) {
  const bool new_stream = streams_.OnInsert(stream, now, live);
  if (new_stream) df_.AddDocument();

  std::lock_guard<std::mutex> lock(mu_);
  if (!seen_.insert(stream).second) {
    return;  // Only the first window's leading terms ("title/tags").
  }
  int kept = 0;
  for (const core::TermCount& tc : terms) {
    if (tc.tf == 0) continue;
    if (kept++ >= metadata_terms_) break;
    postings_[tc.term][stream] += tc.tf;
    df_.AddOccurrence(tc.term);
  }
}

void MetadataIndex::FinishStream(StreamId stream) {
  streams_.MarkFinished(stream);
}

void MetadataIndex::DeleteStream(StreamId stream) {
  streams_.MarkDeleted(stream);
}

void MetadataIndex::UpdatePopularity(StreamId stream, std::uint64_t delta) {
  streams_.AddPopularity(stream, delta);
}

std::vector<core::ScoredStream> MetadataIndex::Query(
    const std::vector<TermId>& terms, int k, Timestamp now,
    core::QueryStats* stats) {
  if (stats != nullptr) *stats = core::QueryStats{};
  if (terms.empty() || k <= 0) return {};

  const std::uint64_t max_pop = streams_.max_pop_count();
  std::unordered_map<StreamId, double> tfidf;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const TermId term : terms) {
      auto it = postings_.find(term);
      if (it == postings_.end()) continue;
      const double idf = df_.Idf(term);
      for (const auto& [stream, tf] : it->second) {
        tfidf[stream] += scorer_.TermTfIdf(tf, idf);
        if (stats != nullptr) ++stats->postings_scanned;
      }
    }
  }

  exec::TopKSink sink(k);
  for (const auto& [stream, sum] : tfidf) {
    index::StreamInfo info;
    if (!streams_.Get(stream, info)) continue;
    sink.Offer(stream,
               scorer_.Combine(
                   scorer_.PopScore(info.pop_count, max_pop),
                   scorer_.RelScore(sum, static_cast<int>(terms.size())),
                   scorer_.FrshScore(info.frsh, now)));
    if (stats != nullptr) ++stats->candidates_scored;
  }
  return sink.SortedResults();
}

std::size_t MetadataIndex::MemoryBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t bytes = sizeof(*this) + streams_.MemoryBytes() +
                      df_.MemoryBytes() +
                      postings_.bucket_count() * sizeof(void*);
  for (const auto& [term, streams] : postings_) {
    bytes += sizeof(term) + 2 * sizeof(void*) +
             streams.bucket_count() * sizeof(void*) +
             streams.size() *
                 (sizeof(StreamId) + sizeof(TermFreq) + 2 * sizeof(void*));
  }
  return bytes;
}

}  // namespace rtsi::baseline
