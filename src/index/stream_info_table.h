// RTSI's small per-stream hash table (Section IV-B).
//
// Keyed by StreamId only — |P| entries, independent of the number of terms
// — holding the mutable score ingredients: the popularity counter and the
// freshness timestamp, plus liveness and lazy-deletion flags. It is also
// the one record of where a stream's postings live: its sealed-component
// residencies and its L0 stamp (GetPlacement). Sharded mutexes allow
// concurrent updates with queries. Contrast with LSII's big
// table (baseline/big_table.h) which additionally stores every (stream,
// term) frequency.

#ifndef RTSI_INDEX_STREAM_INFO_TABLE_H_
#define RTSI_INDEX_STREAM_INFO_TABLE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.h"
#include "index/freshness_ceiling.h"

namespace rtsi::index {

struct StreamInfo {
  std::uint64_t pop_count = 0;  // Play counter / likes (raw popularity).
  Timestamp frsh = 0;           // Timestamp of the latest content window.
  std::uint32_t l0_stamp = 0;   // LsmTree::l0_epoch() read after the
                                // stream's latest postings reached L0;
                                // equal to the current epoch iff L0 may
                                // still hold some (0: never in L0).
  bool content_seen = false;    // At least one window was indexed
                                // (distinguishes real documents from
                                // metadata-only entries created by early
                                // popularity updates).
  bool live = false;            // Still broadcasting?
  bool finished = false;        // MarkFinished seen: liveness is monotone,
                                // a late out-of-order window must not
                                // resurrect the stream into the live set.
  bool deleted = false;         // Lazy deletion tombstone.
};

// Get() copies the record for every sealed-walk candidate.
static_assert(sizeof(StreamInfo) == 24, "StreamInfo grew");

class StreamInfoTable {
 public:
  StreamInfoTable() = default;

  StreamInfoTable(const StreamInfoTable&) = delete;
  StreamInfoTable& operator=(const StreamInfoTable&) = delete;

  /// Called on every window insertion: creates or refreshes the entry.
  /// Returns true on the stream's first *content* window (popularity
  /// updates may have created the entry earlier without content). If
  /// `pop_count` is non-null, receives the current popularity counter
  /// (the insertion snapshot) without a second lookup.
  bool OnInsert(StreamId stream, Timestamp frsh, bool live,
                std::uint64_t* pop_count = nullptr);

  /// Records that sealed component `component` holds postings of `stream`
  /// and hands the stream a reference to the component's live-freshness
  /// ceiling cell, which every subsequent OnInsert bumps. The cell is
  /// immediately raised to the stream's current live freshness, so an
  /// insert that raced ahead of the registration is still covered.
  /// Called before the component becomes query-visible (a freeze, or a
  /// merge output while its inputs are still published). Idempotent per
  /// (stream, component); no-op for unknown or deleted streams (a
  /// deleted stream's residency was erased by MarkDeleted and re-adding
  /// it would leak, since later merges purge its postings without
  /// another hook call).
  void AddSealedResidency(StreamId stream, ComponentId component,
                          const FreshnessCeilingPtr& cell);

  /// Post-publication merge bookkeeping: drops the stream's residency
  /// entries for the retired merge inputs `from`, now no longer
  /// query-visible. Until then they stay registered: the inputs are
  /// served by the published view (and older pinned ones) for the whole
  /// merge, so they must keep receiving ceiling bumps. Inputs the stream
  /// never resided in are skipped; no-op for unknown streams.
  void DropResidency(StreamId stream, const std::vector<ComponentId>& from);

  /// Records that the stream's latest postings reached L0 in epoch
  /// `l0_epoch` (LsmTree::l0_epoch(), read after the appends).
  void StampL0(StreamId stream, std::uint32_t l0_epoch);

  /// Where a stream's postings live, read under one shard lock.
  struct Placement {
    bool live = false;       // Live and not deleted.
    std::size_t sealed = 0;  // Residency entries. Mid-merge this counts
                             // the inputs and the unpublished output.
    bool in_l0 = false;      // L0 stamp equals the current epoch.
  };
  Placement GetPlacement(StreamId stream, std::uint32_t l0_epoch) const;

  /// Component ids the stream currently resides in (test introspection).
  std::vector<ComponentId> GetResidency(StreamId stream) const;

  bool IsLive(StreamId stream) const;

  /// Popularity update (e.g. play counter increment). Creates the entry if
  /// needed. Returns the new counter.
  std::uint64_t AddPopularity(StreamId stream, std::uint64_t delta);

  /// Marks the broadcast finished (stream stays queryable).
  void MarkFinished(StreamId stream);

  /// Lazy deletion: tombstones the stream; postings are purged at merges.
  void MarkDeleted(StreamId stream);

  /// Copies the entry into `info`. Returns false when the stream is
  /// unknown or deleted.
  bool Get(StreamId stream, StreamInfo& info) const;

  bool IsDeleted(StreamId stream) const;

  /// Largest popularity counter ever observed (safe upper bound even after
  /// in-place popularity updates that stale the sorted lists).
  std::uint64_t max_pop_count() const {
    return max_pop_count_.load(std::memory_order_relaxed);
  }

  /// Largest freshness timestamp ever entered. Candidates are scored with
  /// their *live* frsh, which can exceed every frsh stored in a sealed
  /// component (the stream stayed active after sealing). Per-component
  /// pruning uses the residency-bumped FreshnessCeiling cells instead
  /// (tight AND sound); this global maximum remains the sound fallback
  /// for components without a ceiling cell.
  Timestamp max_frsh() const {
    return max_frsh_.load(std::memory_order_relaxed);
  }

  /// Largest stream id ever entered (0 when empty). Queries size their
  /// dense dedup filters from it; monotone, so a stale read only costs a
  /// hash-set fallback for the newest ids.
  StreamId max_stream_id() const {
    return max_stream_id_.load(std::memory_order_relaxed);
  }

  std::size_t size() const;
  std::size_t MemoryBytes() const;

  /// Calls fn(StreamId, const StreamInfo&) for every entry (including
  /// tombstones), one shard lock at a time. Snapshot save path.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      for (const auto& [stream, info] : shard.map) {
        fn(stream, info);
      }
    }
  }

  /// Installs a raw entry (snapshot restore path); refreshes the global
  /// popularity maximum.
  void RestoreEntry(StreamId stream, const StreamInfo& info);

 private:
  static constexpr std::size_t kNumShards = 64;

  /// One sealed component the stream has postings in, with a handle on
  /// that component's live-freshness ceiling cell.
  struct Residency {
    ComponentId component = kInvalidComponentId;
    FreshnessCeilingPtr ceiling;
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<StreamId, StreamInfo> map;
    // Parallel to `map`, keyed by stream: the sealed components the stream
    // resides in. Kept out of StreamInfo so Get() stays a cheap POD copy
    // on the per-candidate scoring path.
    std::unordered_map<StreamId, std::vector<Residency>> residency;
  };

  Shard& ShardFor(StreamId stream) {
    return shards_[stream % kNumShards];
  }
  const Shard& ShardFor(StreamId stream) const {
    return shards_[stream % kNumShards];
  }

  void BumpMaxPop(std::uint64_t count) {
    std::uint64_t prev = max_pop_count_.load(std::memory_order_relaxed);
    while (count > prev && !max_pop_count_.compare_exchange_weak(
                               prev, count, std::memory_order_relaxed)) {
    }
  }

  void BumpMaxFrsh(Timestamp frsh) {
    Timestamp prev = max_frsh_.load(std::memory_order_relaxed);
    while (frsh > prev && !max_frsh_.compare_exchange_weak(
                              prev, frsh, std::memory_order_relaxed)) {
    }
  }

  void BumpMaxStream(StreamId stream) {
    StreamId prev = max_stream_id_.load(std::memory_order_relaxed);
    while (stream > prev && !max_stream_id_.compare_exchange_weak(
                                prev, stream, std::memory_order_relaxed)) {
    }
  }

  Shard shards_[kNumShards];
  std::atomic<std::uint64_t> max_pop_count_{0};
  std::atomic<Timestamp> max_frsh_{0};
  std::atomic<StreamId> max_stream_id_{0};
};

}  // namespace rtsi::index

#endif  // RTSI_INDEX_STREAM_INFO_TABLE_H_
