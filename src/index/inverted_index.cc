#include "index/inverted_index.h"

#include <cassert>

namespace rtsi::index {

void InvertedIndex::Add(TermId term, const Posting& posting) {
  assert(!compressed_);
  auto it = terms_.find(term);
  if (it == terms_.end()) {
    it = terms_.emplace(term, TermPostings(arena_)).first;
  }
  it->second.Append(posting);
  ++num_postings_;
  if (posting.frsh > max_stored_frsh_) max_stored_frsh_ = posting.frsh;
}

void InvertedIndex::Put(TermId term, TermPostings postings) {
  assert(!compressed_);
  num_postings_ += postings.size();
  if (postings.max_frsh() > max_stored_frsh_) {
    max_stored_frsh_ = postings.max_frsh();
  }
  auto it = terms_.find(term);
  if (it == terms_.end()) {
    terms_.emplace(term, std::move(postings));
  } else {
    num_postings_ -= it->second.size();
    it->second = std::move(postings);
  }
}

const TermPostings* InvertedIndex::GetPlain(TermId term) const {
  if (compressed_) return nullptr;
  auto it = terms_.find(term);
  return it == terms_.end() ? nullptr : &it->second;
}

TermPostingsView InvertedIndex::View(TermId term) const {
  if (compressed_) {
    auto it = compressed_terms_.find(term);
    if (it == compressed_terms_.end()) return TermPostingsView();
    return TermPostingsView(it->second.Decode());
  }
  auto it = terms_.find(term);
  if (it == terms_.end()) return TermPostingsView();
  return TermPostingsView(&it->second);
}

TermBounds InvertedIndex::Bounds(TermId term) const {
  TermBounds bounds;
  if (compressed_) {
    auto it = compressed_terms_.find(term);
    if (it == compressed_terms_.end()) return bounds;
    bounds = {it->second.max_pop(), it->second.max_frsh(),
              it->second.max_tf(), true};
    return bounds;
  }
  auto it = terms_.find(term);
  if (it == terms_.end()) return bounds;
  bounds = {it->second.max_pop(), it->second.max_frsh(),
            it->second.max_tf(), true};
  return bounds;
}

void InvertedIndex::SealAll() {
  for (auto& [term, postings] : terms_) postings.Seal();
}

void InvertedIndex::CompressAll() {
  if (compressed_) return;
  compressed_terms_.reserve(terms_.size());
  for (auto& [term, postings] : terms_) {
    compressed_terms_.emplace(term,
                              CompressedTermPostings::FromPostings(postings));
  }
  terms_.clear();
  compressed_ = true;
}

void InvertedIndex::BuildSkipHeader() {
  std::vector<TermSummary> summaries;
  summaries.reserve(num_terms());
  // Sealed lists hold one aggregated posting per stream, so df equals the
  // posting count and the stored max_tf already is the aggregated
  // per-stream maximum the traversal scores against. Compressed storage
  // keeps the same exact maxima uncompressed.
  const auto summarize = [&](TermId term, const auto& postings) {
    TermSummary s;
    s.term = term;
    s.max_pop = postings.max_pop();
    s.max_frsh = postings.max_frsh();
    s.max_tf = postings.max_tf();
    s.df = static_cast<std::uint32_t>(postings.size());
    s.postings = s.df;
    summaries.push_back(s);
  };
  if (compressed_) {
    for (const auto& [term, compressed] : compressed_terms_) {
      summarize(term, compressed);
    }
  } else {
    SealAll();  // Frozen-L0 path; idempotent when already sealed.
    for (const auto& [term, postings] : terms_) summarize(term, postings);
  }
  skip_header_ =
      std::make_unique<SkipHeader>(SkipHeader::Build(std::move(summaries)));
}

void InvertedIndex::AdoptSkipHeader(SkipHeader header) {
  skip_header_ = std::make_unique<SkipHeader>(std::move(header));
}

void InvertedIndex::AttachSkipHeaderGauge(
    std::shared_ptr<MemoryTracker> tracker) {
  skip_charge_.reset();  // Release any previous charge first.
  if (tracker == nullptr || skip_header_ == nullptr) return;
  auto charge = std::make_unique<SkipHeaderCharge>();
  charge->tracker = std::move(tracker);
  charge->bytes = skip_header_->MemoryBytes();
  charge->tracker->Add(MemCategory::kSkipHeader, charge->bytes);
  skip_charge_ = std::move(charge);
}

std::unordered_map<TermId, TermPostings> InvertedIndex::TakeTerms() {
  assert(!compressed_);
  std::unordered_map<TermId, TermPostings> out;
  out.swap(terms_);
  num_postings_ = 0;
  max_stored_frsh_ = 0;
  return out;
}

std::vector<TermId> InvertedIndex::TermIds() const {
  std::vector<TermId> ids;
  ids.reserve(num_terms());
  if (compressed_) {
    for (const auto& entry : compressed_terms_) ids.push_back(entry.first);
  } else {
    for (const auto& entry : terms_) ids.push_back(entry.first);
  }
  return ids;
}

std::size_t InvertedIndex::MemoryBytes() const {
  std::size_t bytes = sizeof(*this);
  if (compressed_) {
    // Bucket overhead of the hash map plus per-term blobs.
    bytes += compressed_terms_.bucket_count() * sizeof(void*);
    for (const auto& [term, compressed] : compressed_terms_) {
      bytes += sizeof(term) + compressed.MemoryBytes();
    }
  } else {
    bytes += terms_.bucket_count() * sizeof(void*);
    for (const auto& [term, postings] : terms_) {
      bytes += sizeof(term) + postings.MemoryBytes();
    }
  }
  if (skip_header_ != nullptr) bytes += skip_header_->MemoryBytes();
  return bytes;
}

}  // namespace rtsi::index
