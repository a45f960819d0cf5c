#include "index/stream_info_table.h"

#include <algorithm>

namespace rtsi::index {

bool StreamInfoTable::OnInsert(StreamId stream, Timestamp frsh, bool live,
                               std::uint64_t* pop_count) {
  Shard& shard = ShardFor(stream);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto [it, created] = shard.map.try_emplace(stream);
  (void)created;
  StreamInfo& info = it->second;
  const bool first_content = !info.content_seen;
  info.content_seen = true;
  info.frsh = std::max(info.frsh, frsh);
  // Liveness is monotone downward: a late window arriving out of order
  // after MarkFinished (or a deletion) must not resurrect the stream into
  // the live set — it would never be evicted again.
  if (!info.finished && !info.deleted) info.live = live;
  if (pop_count != nullptr) *pop_count = info.pop_count;
  // Raise the live-freshness ceiling of every sealed component the stream
  // resides in: their older postings of this stream will now be scored
  // with this (newer) live freshness.
  auto res = shard.residency.find(stream);
  if (res != shard.residency.end()) {
    for (const Residency& r : res->second) r.ceiling->Bump(frsh);
  }
  BumpMaxFrsh(frsh);
  BumpMaxStream(stream);
  return first_content;
}

void StreamInfoTable::AddSealedResidency(StreamId stream,
                                         ComponentId component,
                                         const FreshnessCeilingPtr& cell) {
  if (cell == nullptr || component == kInvalidComponentId) return;
  Shard& shard = ShardFor(stream);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(stream);
  // A deleted stream is never scored again, and MarkDeleted already
  // erased its residency: registering it would leak an orphan entry
  // (merges purge its postings without a de-registration hook).
  if (it == shard.map.end() || it->second.deleted) return;
  // Fold the stream's current live freshness into the cell under the same
  // lock OnInsert bumps under: an insert serialized before this
  // registration contributed to info.frsh and is covered here; one
  // serialized after sees the entry and bumps the cell itself.
  cell->Bump(it->second.frsh);
  std::vector<Residency>& entries = shard.residency[stream];
  for (const Residency& r : entries) {
    if (r.component == component) return;
  }
  entries.push_back({component, cell});
}

void StreamInfoTable::DropResidency(StreamId stream,
                                    const std::vector<ComponentId>& from) {
  Shard& shard = ShardFor(stream);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.residency.find(stream);
  if (it == shard.residency.end()) return;
  std::vector<Residency>& entries = it->second;
  std::size_t n = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const bool retired =
        std::find(from.begin(), from.end(), entries[i].component) !=
        from.end();
    if (retired) continue;  // Retired merge input.
    if (n != i) entries[n] = std::move(entries[i]);
    ++n;
  }
  entries.resize(n);
  if (entries.empty()) shard.residency.erase(it);
}

std::vector<ComponentId> StreamInfoTable::GetResidency(
    StreamId stream) const {
  const Shard& shard = ShardFor(stream);
  std::lock_guard<std::mutex> lock(shard.mu);
  std::vector<ComponentId> out;
  auto it = shard.residency.find(stream);
  if (it == shard.residency.end()) return out;
  out.reserve(it->second.size());
  for (const Residency& r : it->second) out.push_back(r.component);
  return out;
}

void StreamInfoTable::StampL0(StreamId stream, std::uint32_t l0_epoch) {
  Shard& shard = ShardFor(stream);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(stream);
  if (it != shard.map.end()) it->second.l0_stamp = l0_epoch;
}

StreamInfoTable::Placement StreamInfoTable::GetPlacement(
    StreamId stream, std::uint32_t l0_epoch) const {
  const Shard& shard = ShardFor(stream);
  std::lock_guard<std::mutex> lock(shard.mu);
  Placement placement;
  auto it = shard.map.find(stream);
  if (it == shard.map.end()) return placement;
  placement.live = it->second.live && !it->second.deleted;
  placement.in_l0 = it->second.l0_stamp == l0_epoch;
  auto res = shard.residency.find(stream);
  if (res != shard.residency.end()) placement.sealed = res->second.size();
  return placement;
}

bool StreamInfoTable::IsLive(StreamId stream) const {
  const Shard& shard = ShardFor(stream);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(stream);
  return it != shard.map.end() && it->second.live && !it->second.deleted;
}

std::uint64_t StreamInfoTable::AddPopularity(StreamId stream,
                                             std::uint64_t delta) {
  std::uint64_t count;
  {
    Shard& shard = ShardFor(stream);
    std::lock_guard<std::mutex> lock(shard.mu);
    StreamInfo& info = shard.map[stream];
    info.pop_count += delta;
    count = info.pop_count;
  }
  BumpMaxPop(count);
  BumpMaxStream(stream);
  return count;
}

void StreamInfoTable::MarkFinished(StreamId stream) {
  Shard& shard = ShardFor(stream);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(stream);
  if (it != shard.map.end()) {
    it->second.live = false;
    it->second.finished = true;
  }
}

void StreamInfoTable::MarkDeleted(StreamId stream) {
  {
    Shard& shard = ShardFor(stream);
    std::lock_guard<std::mutex> lock(shard.mu);
    StreamInfo& info = shard.map[stream];
    info.deleted = true;
    info.live = false;
    // A deleted stream is never scored again: its live freshness cannot
    // reach a query, so its residency cells need no further bumps.
    shard.residency.erase(stream);
  }
  BumpMaxStream(stream);
}

bool StreamInfoTable::Get(StreamId stream, StreamInfo& info) const {
  const Shard& shard = ShardFor(stream);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(stream);
  if (it == shard.map.end() || it->second.deleted) return false;
  info = it->second;
  return true;
}

bool StreamInfoTable::IsDeleted(StreamId stream) const {
  const Shard& shard = ShardFor(stream);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(stream);
  return it != shard.map.end() && it->second.deleted;
}

void StreamInfoTable::RestoreEntry(StreamId stream, const StreamInfo& info) {
  {
    Shard& shard = ShardFor(stream);
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.map[stream] = info;
  }
  BumpMaxPop(info.pop_count);
  BumpMaxFrsh(info.frsh);
  BumpMaxStream(stream);
}

std::size_t StreamInfoTable::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.map.size();
  }
  return total;
}

std::size_t StreamInfoTable::MemoryBytes() const {
  std::size_t bytes = sizeof(*this);
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    bytes += shard.map.bucket_count() * sizeof(void*) +
             shard.map.size() *
                 (sizeof(StreamId) + sizeof(StreamInfo) + 2 * sizeof(void*));
    bytes += shard.residency.bucket_count() * sizeof(void*);
    for (const auto& [stream, entries] : shard.residency) {
      bytes += sizeof(StreamId) + 2 * sizeof(void*) +
               entries.capacity() * sizeof(Residency);
    }
  }
  return bytes;
}

}  // namespace rtsi::index
