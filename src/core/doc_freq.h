// Document-frequency table for IDF: term -> number of streams containing
// it, plus the total stream count. Sharded for concurrent inserts.

#ifndef RTSI_CORE_DOC_FREQ_H_
#define RTSI_CORE_DOC_FREQ_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "common/types.h"

namespace rtsi::core {

class DocumentFrequencyTable {
 public:
  DocumentFrequencyTable() = default;

  DocumentFrequencyTable(const DocumentFrequencyTable&) = delete;
  DocumentFrequencyTable& operator=(const DocumentFrequencyTable&) = delete;

  /// One more stream contains `term`.
  void AddOccurrence(TermId term);

  /// One more stream exists (IDF denominator).
  void AddDocument() {
    num_documents_.fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t DocumentFrequency(TermId term) const;
  std::uint64_t num_documents() const {
    return num_documents_.load(std::memory_order_relaxed);
  }

  /// Smoothed IDF: log(1 + N / (1 + df)).
  double Idf(TermId term) const;

  /// The same formula over given counts: a shard set sums its shards'
  /// integer counts and scores exactly as one table holding them all.
  static double Idf(std::uint64_t num_documents, std::uint64_t df);

  std::size_t MemoryBytes() const;

  /// Calls fn(TermId, df) for every entry. Snapshot save path.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      for (const auto& [term, df] : shard.df) {
        fn(term, df);
      }
    }
  }

  /// Installs a raw entry / document count. Snapshot restore path.
  void RestoreEntry(TermId term, std::uint64_t df);
  void SetNumDocuments(std::uint64_t n) {
    num_documents_.store(n, std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kNumShards = 64;

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<TermId, std::uint64_t> df;
  };

  Shard shards_[kNumShards];
  std::atomic<std::uint64_t> num_documents_{0};
};

}  // namespace rtsi::core

#endif  // RTSI_CORE_DOC_FREQ_H_
