#include "index/term_postings.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace rtsi::index {

void TermPostings::Append(const Posting& posting) {
  assert(!sealed_ && "cannot append to a sealed posting list");
  entries_.push_back(posting);
  max_pop_ = std::max(max_pop_, posting.pop);
  max_frsh_ = std::max(max_frsh_, posting.frsh);
  max_tf_ = std::max(max_tf_, posting.tf);
}

namespace {

// Order-preserving map of a float onto uint32 (-0 folded onto +0), so a
// popularity sort compares plain integers.
std::uint32_t PopKey(float pop) {
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(pop + 0.0f);
  return (bits & 0x80000000u) != 0 ? ~bits : bits | 0x80000000u;
}

// Fills `perm` with the slots in descending `key` order, ties in arrival
// order: one sort of (inverted key, arrival rank) packed into a uint64.
template <typename KeyFn>
void SortDescending(const std::vector<std::pair<Timestamp, std::uint32_t>>&
                        arrival,
                    KeyFn key, std::vector<std::uint64_t>& packed,
                    std::vector<std::uint32_t>& perm) {
  for (std::size_t r = 0; r < arrival.size(); ++r) {
    packed[r] = static_cast<std::uint64_t>(~key(arrival[r].second)) << 32 | r;
  }
  std::sort(packed.begin(), packed.end());
  perm.resize(arrival.size());
  for (std::size_t i = 0; i < packed.size(); ++i) {
    perm[i] = arrival[packed[i] & 0xffffffffu].second;
  }
}

}  // namespace

void TermPostings::Seal() {
  if (sealed_) return;
  // Every sort below orders plain (key, index) values, never indices
  // through a comparator that chases entries_. First, (stream, index)
  // groups each stream's postings; the fold writes the survivors, in
  // stream order, into an exact-size heap array. Sealed state outlives
  // the live window, so that array is also what takes the list off the
  // window's arena: POCMA is enabled on ArenaAllocator, so the
  // move-assignment below carries the heap buffer and the heap allocator
  // into entries_ in O(1).
  std::vector<std::pair<StreamId, std::uint32_t>> by_stream(entries_.size());
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    by_stream[i] = {entries_[i].stream, static_cast<std::uint32_t>(i)};
  }
  std::sort(by_stream.begin(), by_stream.end());
  std::size_t distinct = 0;
  for (std::size_t i = 0; i < by_stream.size(); ++i) {
    if (i == 0 || by_stream[i].first != by_stream[i - 1].first) ++distinct;
  }
  PostingVec folded{ArenaAllocator<Posting>()};
  folded.reserve(distinct);
  for (const auto& [stream, i] : by_stream) {
    const Posting& p = entries_[i];
    if (!folded.empty() && folded.back().stream == stream) {
      Posting& merged = folded.back();
      merged.tf += p.tf;
      merged.frsh = std::max(merged.frsh, p.frsh);
      merged.pop = std::max(merged.pop, p.pop);
    } else {
      folded.push_back(p);
    }
  }
  entries_ = std::move(folded);
  // The aggregated tf maximum can exceed the per-posting one; pop and
  // frsh maxima are unchanged (max of per-stream maxima).
  max_tf_ = 0;
  for (const Posting& p : entries_) max_tf_ = std::max(max_tf_, p.tf);

  // Arrival order is ascending (frsh, stream) = (frsh, slot); the
  // freshness view is its reverse. Popularity and tf ties keep arrival
  // order.
  const std::size_t n = entries_.size();
  std::vector<std::pair<Timestamp, std::uint32_t>> arrival(n);
  for (std::size_t j = 0; j < n; ++j) {
    arrival[j] = {entries_[j].frsh, static_cast<std::uint32_t>(j)};
  }
  std::sort(arrival.begin(), arrival.end());
  by_frsh_.resize(n);
  for (std::size_t r = 0; r < n; ++r) by_frsh_[n - 1 - r] = arrival[r].second;
  std::vector<std::uint64_t> packed(n);
  SortDescending(
      arrival, [this](std::uint32_t j) { return PopKey(entries_[j].pop); },
      packed, by_pop_);
  SortDescending(
      arrival, [this](std::uint32_t j) { return entries_[j].tf; }, packed,
      by_tf_);
  sealed_ = true;
}

const Posting& TermPostings::At(SortKey key, std::size_t i) const {
  switch (key) {
    case SortKey::kFreshness:
      // Unsealed arrival order is ascending frsh; descending = reverse.
      return sealed_ ? entries_[by_frsh_[i]]
                     : entries_[entries_.size() - 1 - i];
    case SortKey::kPopularity:
      assert(sealed_);
      return entries_[by_pop_[i]];
    case SortKey::kTermFrequency:
      assert(sealed_);
      return entries_[by_tf_[i]];
  }
  return entries_[i];  // Unreachable.
}

bool TermPostings::AggregateForStream(StreamId stream, Posting& out) const {
  assert(sealed_);
  // Duplicates were folded at Seal(), so a hit is a single load. The
  // lower bound halves the range without a data-dependent branch (the
  // step is a conditional move), so a probe costs no mispredictions.
  std::size_t len = entries_.size();
  if (len == 0) return false;
  const Posting* first = entries_.data();
  while (len > 1) {
    const std::size_t half = len / 2;
    first += first[half].stream < stream ? half : 0;
    len -= half;
  }
  first += first->stream < stream ? 1 : 0;
  if (first == entries_.data() + entries_.size() || first->stream != stream) {
    return false;
  }
  out = *first;
  return true;
}

std::size_t TermPostings::MemoryBytes() const {
  return sizeof(*this) + entries_.capacity() * sizeof(Posting) +
         (by_pop_.capacity() + by_frsh_.capacity() + by_tf_.capacity()) *
             sizeof(std::uint32_t);
}

bool TermPostings::IsSorted(SortKey key) const {
  if (entries_.size() <= 1) return true;
  if (key != SortKey::kFreshness && !sealed_) return false;
  for (std::size_t i = 1; i < entries_.size(); ++i) {
    const Posting& prev = At(key, i - 1);
    const Posting& cur = At(key, i);
    switch (key) {
      case SortKey::kPopularity:
        if (prev.pop < cur.pop) return false;
        break;
      case SortKey::kFreshness:
        if (prev.frsh < cur.frsh) return false;
        break;
      case SortKey::kTermFrequency:
        if (prev.tf < cur.tf) return false;
        break;
    }
  }
  return true;
}

}  // namespace rtsi::index
