// The extended-LSII "big hash table" (Section V-A).
//
// LSII keeps *all* audio information in one hash table: for every stream
// — live or not — the popularity counter, the freshness timestamp, the
// liveness/deletion flags, and the total term frequency of every
// (stream, term) pair. This reproduction stores all of it in a single
// flat table keyed by the packed (stream, field) pair: term frequencies
// under (stream, term), metadata under (stream, reserved-key). Every
// operation — per-term inserts, popularity updates, per-candidate query
// lookups — therefore probes one structure that grows with the whole
// corpus (~400 unique terms per 16-minute stream), which is exactly the
// cost profile the paper's experiments measure against RTSI's two small
// tables.

#ifndef RTSI_BASELINE_BIG_TABLE_H_
#define RTSI_BASELINE_BIG_TABLE_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "core/search_index.h"

namespace rtsi::baseline {

class BigTable {
 public:
  BigTable() = default;

  BigTable(const BigTable&) = delete;
  BigTable& operator=(const BigTable&) = delete;

  /// Registers a window: refreshes metadata and accumulates term totals.
  /// Returns true when the stream is new; appends each term whose total
  /// was previously zero to `first_seen_terms` (for document frequencies).
  bool OnInsertWindow(StreamId stream, Timestamp now, bool live,
                      const std::vector<core::TermCount>& terms,
                      std::vector<TermId>& first_seen_terms);

  std::uint64_t AddPopularity(StreamId stream, std::uint64_t delta);
  void MarkFinished(StreamId stream);
  void MarkDeleted(StreamId stream);

  /// Copies pop/frsh into the outputs; false when unknown or deleted.
  bool GetMeta(StreamId stream, std::uint64_t& pop_count,
               Timestamp& frsh) const;

  /// Total tf of (stream, term); 0 when untracked.
  TermFreq GetTf(StreamId stream, TermId term) const;

  bool IsDeleted(StreamId stream) const;

  /// Frees a deleted stream's term entries (called when a merge purges
  /// its postings); the metadata tombstone stays.
  void PurgeTerms(StreamId stream);

  /// Monotone per-term maximum total tf, for query bounds.
  TermFreq GetMaxTotal(TermId term) const;

  std::uint64_t max_pop_count() const {
    return max_pop_count_.load(std::memory_order_relaxed);
  }

  std::size_t MemoryBytes() const;

 private:
  static constexpr std::size_t kNumShards = 64;

  // Reserved field ids in the term slot of the packed key; real TermIds
  // must stay below kFirstReservedField (checked in debug builds).
  static constexpr TermId kPopField = 0xFFFFFFFFu;
  static constexpr TermId kFrshField = 0xFFFFFFFEu;
  static constexpr TermId kFlagsField = 0xFFFFFFFDu;
  static constexpr TermId kFirstReservedField = kFlagsField;

  static constexpr std::uint64_t kFlagLive = 1;
  static constexpr std::uint64_t kFlagDeleted = 2;
  static constexpr std::uint64_t kFlagExists = 4;
  static constexpr std::uint64_t kFlagContent = 8;  // Had a real window.

  // Stream ids must fit in 32 bits to pack with the 32-bit field id.
  static std::uint64_t Pack(StreamId stream, TermId field) {
    assert(stream < (1ULL << 32));
    return (stream << 32) | field;
  }

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::uint64_t, std::uint64_t> map;
  };

  // Shard by the packed key's hash: every probe — term frequency or
  // metadata field — locks one shard of the single big table, the way a
  // sharded concurrent hash map behaves.
  Shard& ShardFor(std::uint64_t key) {
    return shards_[(key ^ (key >> 32) ^ (key >> 13)) % kNumShards];
  }
  const Shard& ShardFor(std::uint64_t key) const {
    return shards_[(key ^ (key >> 32) ^ (key >> 13)) % kNumShards];
  }

  /// Reads the value at `key`, or 0 when absent.
  std::uint64_t Load(std::uint64_t key) const {
    const Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    return it == shard.map.end() ? 0 : it->second;
  }

  Shard shards_[kNumShards];

  struct PurgeShard {
    mutable std::mutex mu;
    std::unordered_map<StreamId, std::vector<TermId>> terms;
  };
  PurgeShard purge_shards_[kNumShards];  // Bookkeeping for lazy deletion.

  mutable std::mutex max_mu_;
  std::unordered_map<TermId, TermFreq> max_total_;
  std::atomic<std::uint64_t> max_pop_count_{0};
};

}  // namespace rtsi::baseline

#endif  // RTSI_BASELINE_BIG_TABLE_H_
