#include "baseline/big_table.h"

#include <algorithm>

namespace rtsi::baseline {

bool BigTable::OnInsertWindow(StreamId stream, Timestamp now, bool live,
                              const std::vector<core::TermCount>& terms,
                              std::vector<TermId>& first_seen_terms) {
  bool created;
  {
    const std::uint64_t key = Pack(stream, kFlagsField);
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    std::uint64_t& flags = shard.map[key];
    // First *content* window: a popularity update may have created the
    // entry earlier, but only indexed content makes it a document.
    created = (flags & kFlagContent) == 0;
    flags |= kFlagExists | kFlagContent;
    if (live) {
      flags |= kFlagLive;
    } else {
      flags &= ~kFlagLive;
    }
  }
  {
    const std::uint64_t key = Pack(stream, kFrshField);
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    std::uint64_t& frsh = shard.map[key];
    frsh = std::max(frsh, static_cast<std::uint64_t>(now));
  }

  // Per-term frequency accumulation: one probe into the big table per
  // term — the LSII insertion cost the paper measures.
  std::vector<std::pair<TermId, TermFreq>> new_totals;
  new_totals.reserve(terms.size());
  for (const core::TermCount& tc : terms) {
    if (tc.tf == 0) continue;
    assert(tc.term < kFirstReservedField);
    const std::uint64_t key = Pack(stream, tc.term);
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    std::uint64_t& total = shard.map[key];
    if (total == 0) first_seen_terms.push_back(tc.term);
    total += tc.tf;
    new_totals.emplace_back(tc.term, static_cast<TermFreq>(total));
  }

  if (!first_seen_terms.empty()) {
    PurgeShard& shard = purge_shards_[stream % kNumShards];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto& list = shard.terms[stream];
    list.insert(list.end(), first_seen_terms.begin(),
                first_seen_terms.end());
  }
  {
    std::lock_guard<std::mutex> lock(max_mu_);
    for (const auto& [term, total] : new_totals) {
      TermFreq& current = max_total_[term];
      if (total > current) current = total;
    }
  }
  return created;
}

std::uint64_t BigTable::AddPopularity(StreamId stream, std::uint64_t delta) {
  std::uint64_t count;
  {
    const std::uint64_t key = Pack(stream, kPopField);
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    std::uint64_t& pop = shard.map[key];
    pop += delta;
    count = pop;
  }
  {
    const std::uint64_t key = Pack(stream, kFlagsField);
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.map[key] |= kFlagExists;
  }
  std::uint64_t prev = max_pop_count_.load(std::memory_order_relaxed);
  while (count > prev && !max_pop_count_.compare_exchange_weak(
                             prev, count, std::memory_order_relaxed)) {
  }
  return count;
}

void BigTable::MarkFinished(StreamId stream) {
  const std::uint64_t key = Pack(stream, kFlagsField);
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) it->second &= ~kFlagLive;
}

void BigTable::MarkDeleted(StreamId stream) {
  const std::uint64_t key = Pack(stream, kFlagsField);
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  std::uint64_t& flags = shard.map[key];
  flags |= kFlagExists | kFlagDeleted;
  flags &= ~kFlagLive;
}

bool BigTable::GetMeta(StreamId stream, std::uint64_t& pop_count,
                       Timestamp& frsh) const {
  const std::uint64_t flags = Load(Pack(stream, kFlagsField));
  if ((flags & kFlagExists) == 0 || (flags & kFlagDeleted) != 0) {
    return false;
  }
  pop_count = Load(Pack(stream, kPopField));
  frsh = static_cast<Timestamp>(Load(Pack(stream, kFrshField)));
  return true;
}

TermFreq BigTable::GetTf(StreamId stream, TermId term) const {
  return static_cast<TermFreq>(Load(Pack(stream, term)));
}

bool BigTable::IsDeleted(StreamId stream) const {
  return (Load(Pack(stream, kFlagsField)) & kFlagDeleted) != 0;
}

void BigTable::PurgeTerms(StreamId stream) {
  if (!IsDeleted(stream)) return;
  std::vector<TermId> terms;
  {
    PurgeShard& shard = purge_shards_[stream % kNumShards];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.terms.find(stream);
    if (it == shard.terms.end()) return;
    terms.swap(it->second);
    shard.terms.erase(it);
  }
  for (const TermId term : terms) {
    const std::uint64_t key = Pack(stream, term);
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.map.erase(key);
  }
}

TermFreq BigTable::GetMaxTotal(TermId term) const {
  std::lock_guard<std::mutex> lock(max_mu_);
  auto it = max_total_.find(term);
  return it == max_total_.end() ? 0 : it->second;
}

std::size_t BigTable::MemoryBytes() const {
  std::size_t bytes = sizeof(*this);
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    bytes += shard.map.bucket_count() * sizeof(void*) +
             shard.map.size() * (2 * sizeof(std::uint64_t) +
                                 2 * sizeof(void*));
  }
  for (const PurgeShard& shard : purge_shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    bytes += shard.terms.bucket_count() * sizeof(void*);
    for (const auto& [stream, terms] : shard.terms) {
      bytes += sizeof(stream) + 2 * sizeof(void*) +
               terms.capacity() * sizeof(TermId);
    }
  }
  {
    std::lock_guard<std::mutex> lock(max_mu_);
    bytes += max_total_.bucket_count() * sizeof(void*) +
             max_total_.size() *
                 (sizeof(TermId) + sizeof(TermFreq) + 2 * sizeof(void*));
  }
  return bytes;
}

}  // namespace rtsi::baseline
