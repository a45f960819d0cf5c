// Term dictionary: interns term strings to dense TermIds and tracks
// document frequencies for IDF.
//
// Shared by the text and sound LSM-trees (lattice units are terms too).
// Thread-safe: interning takes an exclusive lock; lookups take a shared
// lock and build no temporary string; frequency counters are atomics.

#ifndef RTSI_TEXT_TERM_DICTIONARY_H_
#define RTSI_TEXT_TERM_DICTIONARY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/string_hash.h"
#include "common/types.h"

namespace rtsi::text {

class TermDictionary {
 public:
  TermDictionary() = default;

  TermDictionary(const TermDictionary&) = delete;
  TermDictionary& operator=(const TermDictionary&) = delete;

  /// Returns the id of `term`, interning it on first sight.
  TermId Intern(std::string_view term);

  /// Id of `term`, or kInvalidTermId when unknown.
  TermId Lookup(std::string_view term) const;

  /// String of `id`; empty view when out of range.
  std::string_view TermString(TermId id) const;

  /// Bumps the number of documents (streams) containing `id`.
  void AddDocumentOccurrence(TermId id);

  /// Number of documents containing `id`.
  std::uint64_t DocumentFrequency(TermId id) const;

  /// Registers that one more document exists (IDF denominator).
  void AddDocument() {
    num_documents_.fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t num_documents() const {
    return num_documents_.load(std::memory_order_relaxed);
  }

  /// Smoothed inverse document frequency of `id`:
  /// log(1 + N / (1 + df)). Always >= 0.
  double InverseDocumentFrequency(TermId id) const;

  std::size_t size() const;

  /// Calls fn(TermId, std::string_view term, std::uint64_t df) for every
  /// interned term in id order (snapshot save path).
  template <typename Fn>
  void ForEachInIdOrder(Fn&& fn) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    for (TermId id = 0; id < strings_.size(); ++id) {
      fn(id, std::string_view(strings_[id]),
         doc_freq_[id]->load(std::memory_order_relaxed));
    }
  }

  /// Restores a document-frequency counter (snapshot restore path; the
  /// term itself is re-interned in id order first).
  void RestoreDocumentFrequency(TermId id, std::uint64_t df);

  void SetNumDocuments(std::uint64_t n) {
    num_documents_.store(n, std::memory_order_relaxed);
  }

 private:
  mutable std::shared_mutex mu_;
  StringMap<TermId> ids_;
  std::vector<std::string> strings_;
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> doc_freq_;
  std::atomic<std::uint64_t> num_documents_{0};
};

}  // namespace rtsi::text

#endif  // RTSI_TEXT_TERM_DICTIONARY_H_
