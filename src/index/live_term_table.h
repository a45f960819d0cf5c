// RTSI's live-term hash table (Section IV-B).
//
// "We maintain another small hash table which keeps track of the existing
// term frequency of a term" — the table is keyed by term: for each term
// it holds the total accumulated frequency per tracked stream, so (a) the
// *total* tf of a live stream is available in O(1) even though its
// postings are scattered across multiple LSM components, and (b) a query
// can enumerate exactly the tracked streams matching a term without
// scanning the table. The table is small: it only covers streams that are
// currently broadcasting (plus finished streams whose postings have not
// yet been consolidated into a single component — see the invariant in
// core/rtsi_index.h).
//
// Locking protocol (two disjoint shard families, never nested):
//   1. The term shards own the counters. A mutation takes exactly one
//      term-shard lock, records whether it created the (term, stream)
//      entry, and releases the lock.
//   2. First-seen terms are then registered in the stream shard (the
//      reverse index RemoveStream walks) under that lock alone.
// No thread ever holds a term-shard and a stream-shard lock at the same
// time, so the families cannot deadlock against each other regardless of
// acquisition order. The protocol keeps one invariant: *every* creation
// of a (term → stream) counter is followed by a registration of that term
// under the stream. RemoveStream relies on it — it drains the stream's
// registered term list and loops until the stream entry stays gone, so a
// racing insert either lands entirely (counter + registration, cleaned by
// the next RemoveStream) or is fully reclaimed. The one benign artifact
// is a *stale registration* (term listed for a stream whose counter was
// already erased); it holds no counter, is invisible to queries, and the
// next RemoveStream drops it.
//
// The per-stream counter maps allocate from a per-term-shard WindowArena
// (table-lifetime, size-class free lists recycle erased nodes) so
// steady-state ingest churn never touches the global allocator.

#ifndef RTSI_INDEX_LIVE_TERM_TABLE_H_
#define RTSI_INDEX_LIVE_TERM_TABLE_H_

#include <cstddef>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "common/window_arena.h"

namespace rtsi::index {

class LiveTermTable {
 public:
  /// The per-stream counter map of one term. Arena-allocated (nodes and
  /// bucket arrays).
  using StreamTfAlloc = ArenaAllocator<std::pair<const StreamId, TermFreq>>;
  using StreamTfMap =
      std::unordered_map<StreamId, TermFreq, std::hash<StreamId>,
                         std::equal_to<StreamId>, StreamTfAlloc>;

  /// `tracker` (optional) has the arenas' slab bytes charged to its
  /// kLiveArena category while the table is alive.
  explicit LiveTermTable(std::shared_ptr<MemoryTracker> tracker = nullptr);

  LiveTermTable(const LiveTermTable&) = delete;
  LiveTermTable& operator=(const LiveTermTable&) = delete;

  /// Accumulates `tf` for (stream, term); returns the new total.
  TermFreq Add(StreamId stream, TermId term, TermFreq tf);

  /// Batched window insertion. Returns the new total per term, aligned
  /// with `terms` (0 for entries with tf == 0).
  std::vector<TermFreq> AddWindow(StreamId stream,
                                  const std::vector<TermCount>& terms);

  /// Total accumulated tf, or 0 when the pair is not tracked.
  TermFreq GetTotal(StreamId stream, TermId term) const;

  /// True when the stream has any tracked terms.
  bool ContainsStream(StreamId stream) const;

  /// Drops all entries of a stream (broadcast finished and consolidated,
  /// or stream deleted). Loops until the removal is stable, so inserts
  /// racing this call cannot leak counters past the *next* RemoveStream
  /// (see the locking protocol above).
  void RemoveStream(StreamId stream);

  /// Monotone upper bound on the total tf of `term` over every stream
  /// that is (or ever was) tracked. Used to keep query upper bounds valid
  /// for streams whose postings span multiple components.
  TermFreq GetMaxTotal(TermId term) const;

  /// Calls fn(StreamId, TermFreq total) for every tracked stream
  /// containing `term`, under the term's shard lock; `fn` must not
  /// reenter the table. This is the query pre-scan: cost proportional to
  /// the number of *matching* tracked streams.
  template <typename Fn>
  void ForEachStreamOfTerm(TermId term, Fn&& fn) const {
    const TermShard& shard = TermShardFor(term);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(term);
    if (it == shard.map.end()) return;
    for (const auto& [stream, total] : it->second) {
      fn(stream, total);
    }
  }

  /// Calls fn(StreamId, const std::unordered_map<TermId, TermFreq>&) for
  /// every tracked stream (test/diagnostic helper; materializes each
  /// stream's term map).
  template <typename Fn>
  void ForEachStream(Fn&& fn) const {
    for (const StreamShard& shard : stream_shards_) {
      std::vector<StreamId> streams;
      {
        std::lock_guard<std::mutex> lock(shard.mu);
        streams.reserve(shard.terms_of_stream.size());
        for (const auto& [stream, terms] : shard.terms_of_stream) {
          streams.push_back(stream);
        }
      }
      for (const StreamId stream : streams) {
        fn(stream, MaterializeStream(stream));
      }
    }
  }

  /// Number of tracked streams.
  std::size_t num_streams() const;

  /// Number of tracked (stream, term) pairs.
  std::size_t num_entries() const;

  std::size_t MemoryBytes() const;

  /// Aggregate allocation counters of the per-shard arenas. owned_bytes
  /// here is exactly what the kLiveArena tracker category carries for
  /// this table, and exactly what MemoryBytes() attributes to the counter
  /// maps — the test suite pins the three together.
  WindowArena::Stats ArenaStats() const;

 private:
  static constexpr std::size_t kNumShards = 64;

  // term -> (stream -> total tf). The primary structure. The arena backs
  // the StreamTfMap nodes/buckets and is used only under `mu`; declared
  // before `map` so the maps (which deallocate into it) die first.
  struct TermShard {
    mutable std::mutex mu;
    std::unique_ptr<WindowArena> arena;
    std::unordered_map<TermId, StreamTfMap> map;
  };
  // stream -> its terms, for RemoveStream / ContainsStream. Heap-backed:
  // RemoveStream swaps the vector out of the lock's scope, so its storage
  // must not be tied to a shard-locked arena.
  struct StreamShard {
    mutable std::mutex mu;
    std::unordered_map<StreamId, std::vector<TermId>> terms_of_stream;
  };

  TermShard& TermShardFor(TermId term) {
    return term_shards_[term % kNumShards];
  }
  const TermShard& TermShardFor(TermId term) const {
    return term_shards_[term % kNumShards];
  }
  StreamShard& StreamShardFor(StreamId stream) {
    return stream_shards_[stream % kNumShards];
  }
  const StreamShard& StreamShardFor(StreamId stream) const {
    return stream_shards_[stream % kNumShards];
  }

  /// The (term, stream) counter slot, created on demand with the shard's
  /// arena allocator. Caller holds shard.mu.
  TermFreq& SlotFor(TermShard& shard, TermId term, StreamId stream);

  /// Appends `terms` to the stream's registration list (stream lock only).
  void RegisterTerms(StreamId stream, const std::vector<TermId>& terms);

  std::unordered_map<TermId, TermFreq> MaterializeStream(
      StreamId stream) const;

  void BumpMaxTotal(TermId term, TermFreq total);

  TermShard term_shards_[kNumShards];
  StreamShard stream_shards_[kNumShards];
  mutable std::mutex max_mu_;
  std::unordered_map<TermId, TermFreq> max_total_;
};

}  // namespace rtsi::index

#endif  // RTSI_INDEX_LIVE_TERM_TABLE_H_
