#include "core/doc_freq.h"

#include <cmath>

namespace rtsi::core {

void DocumentFrequencyTable::AddOccurrence(TermId term) {
  Shard& shard = shards_[term % kNumShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  ++shard.df[term];
}

void DocumentFrequencyTable::RestoreEntry(TermId term, std::uint64_t df) {
  Shard& shard = shards_[term % kNumShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.df[term] = df;
}

std::uint64_t DocumentFrequencyTable::DocumentFrequency(TermId term) const {
  const Shard& shard = shards_[term % kNumShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.df.find(term);
  return it == shard.df.end() ? 0 : it->second;
}

double DocumentFrequencyTable::Idf(TermId term) const {
  return Idf(num_documents(), DocumentFrequency(term));
}

double DocumentFrequencyTable::Idf(std::uint64_t num_documents,
                                   std::uint64_t df) {
  return std::log1p(static_cast<double>(num_documents) /
                    (1.0 + static_cast<double>(df)));
}

std::size_t DocumentFrequencyTable::MemoryBytes() const {
  std::size_t bytes = sizeof(*this);
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    bytes += shard.df.bucket_count() * sizeof(void*) +
             shard.df.size() * (sizeof(TermId) + sizeof(std::uint64_t) +
                                2 * sizeof(void*));
  }
  return bytes;
}

}  // namespace rtsi::core
