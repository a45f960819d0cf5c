#include "index/live_term_table.h"

#include <algorithm>

namespace rtsi::index {

namespace {

// One heap-footprint formula for every unordered_map in this file: the
// bucket-pointer array plus, per node, the payload and the node header
// (forward link + cached hash). The old code applied a different formula
// to each map, so the shard totals and max_total_ drifted apart; keeping
// a single helper makes the accounting uniform by construction.
std::size_t MapBytes(std::size_t bucket_count, std::size_t nodes,
                     std::size_t payload_per_node) {
  return bucket_count * sizeof(void*) +
         nodes * (payload_per_node + 2 * sizeof(void*));
}

// The table spreads load over 64 shards, so per-shard slabs stay small;
// nodes are ~32 B, giving ~500 entries per slab before a new one is cut.
constexpr std::size_t kLiveTableSlabBytes = 16 * 1024;

}  // namespace

LiveTermTable::LiveTermTable(std::shared_ptr<MemoryTracker> tracker) {
  for (TermShard& shard : term_shards_) {
    shard.arena = std::make_unique<WindowArena>(kLiveTableSlabBytes, tracker);
  }
}

TermFreq& LiveTermTable::SlotFor(TermShard& shard, TermId term,
                                 StreamId stream) {
  auto it = shard.map.find(term);
  if (it == shard.map.end()) {
    it = shard.map
             .emplace(term, StreamTfMap(StreamTfAlloc(shard.arena.get())))
             .first;
  }
  return it->second[stream];
}

void LiveTermTable::RegisterTerms(StreamId stream,
                                  const std::vector<TermId>& terms) {
  if (terms.empty()) return;
  StreamShard& shard = StreamShardFor(stream);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto& list = shard.terms_of_stream[stream];
  list.insert(list.end(), terms.begin(), terms.end());
}

void LiveTermTable::BumpMaxTotal(TermId term, TermFreq total) {
  std::lock_guard<std::mutex> lock(max_mu_);
  TermFreq& current = max_total_[term];
  if (total > current) current = total;
}

TermFreq LiveTermTable::Add(StreamId stream, TermId term, TermFreq tf) {
  TermFreq total;
  bool first;
  {
    TermShard& shard = TermShardFor(term);
    std::lock_guard<std::mutex> lock(shard.mu);
    TermFreq& slot = SlotFor(shard, term, stream);
    first = slot == 0;
    slot += tf;
    total = slot;
  }
  // Registration happens after the term lock is released — the same
  // disjoint protocol as AddWindow. Taking the stream lock nested inside
  // the term lock (as this function originally did) ordered the two
  // families term-before-stream here while every other path keeps them
  // disjoint, which is one inverted acquisition away from deadlock.
  if (first) RegisterTerms(stream, {term});
  BumpMaxTotal(term, total);
  return total;
}

std::vector<TermFreq> LiveTermTable::AddWindow(
    StreamId stream, const std::vector<TermCount>& terms) {
  std::vector<TermFreq> totals(terms.size(), 0);
  std::vector<TermId> first_seen;
  for (std::size_t i = 0; i < terms.size(); ++i) {
    if (terms[i].tf == 0) continue;
    TermShard& shard = TermShardFor(terms[i].term);
    std::lock_guard<std::mutex> lock(shard.mu);
    TermFreq& slot = SlotFor(shard, terms[i].term, stream);
    if (slot == 0) first_seen.push_back(terms[i].term);
    slot += terms[i].tf;
    totals[i] = slot;
  }
  RegisterTerms(stream, first_seen);
  {
    std::lock_guard<std::mutex> lock(max_mu_);
    for (std::size_t i = 0; i < terms.size(); ++i) {
      if (totals[i] == 0) continue;
      TermFreq& current = max_total_[terms[i].term];
      if (totals[i] > current) current = totals[i];
    }
  }
  return totals;
}

TermFreq LiveTermTable::GetTotal(StreamId stream, TermId term) const {
  const TermShard& shard = TermShardFor(term);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto term_it = shard.map.find(term);
  if (term_it == shard.map.end()) return 0;
  auto stream_it = term_it->second.find(stream);
  return stream_it == term_it->second.end() ? 0 : stream_it->second;
}

bool LiveTermTable::ContainsStream(StreamId stream) const {
  const StreamShard& shard = StreamShardFor(stream);
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.terms_of_stream.count(stream) > 0;
}

void LiveTermTable::RemoveStream(StreamId stream) {
  // Loop until the stream entry stays gone. An insert racing one pass can
  // (a) re-register the stream after we swapped its term list out — the
  // re-created entry is caught by the next pass — or (b) re-create a
  // counter for a term we already erased, which re-registers the stream
  // (every counter creation is followed by a registration) and is thus
  // also caught by a later pass. Without the loop, case (a) left an
  // orphan (term → stream) counter that no RemoveStream would ever visit.
  while (true) {
    std::vector<TermId> terms;
    {
      StreamShard& shard = StreamShardFor(stream);
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.terms_of_stream.find(stream);
      if (it == shard.terms_of_stream.end()) return;
      terms.swap(it->second);
      shard.terms_of_stream.erase(it);
    }
    for (const TermId term : terms) {
      TermShard& shard = TermShardFor(term);
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.map.find(term);
      if (it == shard.map.end()) continue;
      it->second.erase(stream);
      if (it->second.empty()) shard.map.erase(it);
    }
  }
}

TermFreq LiveTermTable::GetMaxTotal(TermId term) const {
  std::lock_guard<std::mutex> lock(max_mu_);
  auto it = max_total_.find(term);
  return it == max_total_.end() ? 0 : it->second;
}

std::unordered_map<TermId, TermFreq> LiveTermTable::MaterializeStream(
    StreamId stream) const {
  std::vector<TermId> terms;
  {
    const StreamShard& shard = StreamShardFor(stream);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.terms_of_stream.find(stream);
    if (it != shard.terms_of_stream.end()) terms = it->second;
  }
  std::unordered_map<TermId, TermFreq> out;
  out.reserve(terms.size());
  for (const TermId term : terms) {
    const TermFreq total = GetTotal(stream, term);
    if (total > 0) out[term] = total;
  }
  return out;
}

std::size_t LiveTermTable::num_streams() const {
  std::size_t total = 0;
  for (const StreamShard& shard : stream_shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.terms_of_stream.size();
  }
  return total;
}

std::size_t LiveTermTable::num_entries() const {
  std::size_t total = 0;
  for (const TermShard& shard : term_shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [term, streams] : shard.map) total += streams.size();
  }
  return total;
}

std::size_t LiveTermTable::MemoryBytes() const {
  std::size_t bytes = sizeof(*this);
  for (const TermShard& shard : term_shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    // Outer map: TermId -> StreamTfMap object, always on the heap.
    bytes += MapBytes(shard.map.bucket_count(), shard.map.size(),
                      sizeof(TermId) + sizeof(StreamTfMap));
    // Every inner-map node and bucket array was carved from the shard
    // arena, so its in-use counter *is* the inner maps' footprint —
    // report that instead of re-deriving an estimate that could drift
    // from the arena's own accounting. Slab waste (owned - in-use) is
    // deliberately not attributed here; it is observable exactly via
    // ArenaStats()/the kLiveArena tracker gauge.
    bytes += shard.arena->allocated_bytes();
  }
  for (const StreamShard& shard : stream_shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    bytes += MapBytes(shard.terms_of_stream.bucket_count(),
                      shard.terms_of_stream.size(),
                      sizeof(StreamId) + sizeof(std::vector<TermId>));
    for (const auto& [stream, terms] : shard.terms_of_stream) {
      bytes += terms.capacity() * sizeof(TermId);
    }
  }
  {
    std::lock_guard<std::mutex> lock(max_mu_);
    bytes += MapBytes(max_total_.bucket_count(), max_total_.size(),
                      sizeof(TermId) + sizeof(TermFreq));
  }
  return bytes;
}

WindowArena::Stats LiveTermTable::ArenaStats() const {
  WindowArena::Stats total;
  for (const TermShard& shard : term_shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.arena->GetStats();
  }
  return total;
}

}  // namespace rtsi::index
