#include "text/term_dictionary.h"

#include <cmath>
#include <mutex>

namespace rtsi::text {

TermId TermDictionary::Intern(std::string_view term) {
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = ids_.find(term);
    if (it != ids_.end()) return it->second;
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto [it, inserted] =
      ids_.emplace(std::string(term), static_cast<TermId>(strings_.size()));
  if (inserted) {
    strings_.emplace_back(term);
    doc_freq_.push_back(std::make_unique<std::atomic<std::uint64_t>>(0));
  }
  return it->second;
}

TermId TermDictionary::Lookup(std::string_view term) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = ids_.find(term);
  return it == ids_.end() ? kInvalidTermId : it->second;
}

std::string_view TermDictionary::TermString(TermId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (id >= strings_.size()) return {};
  return strings_[id];
}

void TermDictionary::AddDocumentOccurrence(TermId id) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (id < doc_freq_.size()) {
    doc_freq_[id]->fetch_add(1, std::memory_order_relaxed);
  }
}

std::uint64_t TermDictionary::DocumentFrequency(TermId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (id >= doc_freq_.size()) return 0;
  return doc_freq_[id]->load(std::memory_order_relaxed);
}

double TermDictionary::InverseDocumentFrequency(TermId id) const {
  const double n = static_cast<double>(num_documents());
  const double df = static_cast<double>(DocumentFrequency(id));
  return std::log1p(n / (1.0 + df));
}

void TermDictionary::RestoreDocumentFrequency(TermId id, std::uint64_t df) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (id < doc_freq_.size()) {
    doc_freq_[id]->store(df, std::memory_order_relaxed);
  }
}

std::size_t TermDictionary::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return strings_.size();
}

}  // namespace rtsi::text
