// Per-term postings with the RTSI "three sorted inverted lists".
//
// Mutable state (inside I0) is a single append-only array: appends arrive
// in timestamp order, so the freshness-descending list is simply the array
// reversed, and running maxima keep upper bounds available in O(1).
// Seal() turns the object into the immutable three-list form the paper
// draws in Figure 3 (Algorithm 2 lines 6-7: lists that are not yet sorted
// are sorted during a merge). A sealed list stores each posting once: one
// posting per stream (duplicates folded), in ascending stream order, plus
// three uint32 permutations into that array — popularity, freshness and
// term-frequency descending. 24 + 3 x 4 = 36 bytes per sealed posting.
//
// Unsealed storage may live in a WindowArena (the live window's slab
// allocator): construct with the shard's arena and `entries_` grows
// through its size-class free lists instead of the global heap. Seal()
// builds the sealed array on the heap, so a sealed TermPostings never
// references arena memory and the arena can be retired wholesale at
// FreezeL0.

#ifndef RTSI_INDEX_TERM_POSTINGS_H_
#define RTSI_INDEX_TERM_POSTINGS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/window_arena.h"
#include "index/posting.h"

namespace rtsi::index {

class TermPostings {
 public:
  using PostingVec = std::vector<Posting, ArenaAllocator<Posting>>;

  TermPostings() = default;
  /// Unsealed entries allocate from `arena` (nullptr = global heap).
  explicit TermPostings(WindowArena* arena)
      : entries_(ArenaAllocator<Posting>(arena)) {}

  // Movable, not copyable (these live inside index maps).
  TermPostings(TermPostings&&) = default;
  TermPostings& operator=(TermPostings&&) = default;
  TermPostings(const TermPostings&) = delete;
  TermPostings& operator=(const TermPostings&) = delete;

  /// Appends a posting. Only valid while unsealed. The unsealed freshness
  /// view is the arrival order reversed, so a list that is queried before
  /// it is sealed must receive postings in non-decreasing `frsh` order
  /// (the live-stream arrival order). Seal() orders by freshness itself.
  void Append(const Posting& posting);

  /// Folds duplicate postings of the same stream into one aggregate
  /// (summed tf, newest frsh, largest pop — the merge fold rule), stores
  /// the survivors in ascending stream order and builds the three
  /// descending permutations; freshness ties descend by stream, so the
  /// arrival order of a sealed list is ascending (frsh, stream), whatever
  /// order the postings were appended in. The fold is what makes the
  /// query-side upper bounds (Bounds(), the traversal Threshold()) sound:
  /// they read per-posting maxima, which bound a stream's score only when
  /// the stream owns a single aggregated posting (a live stream can emit
  /// several windows of one term inside one epoch). Idempotent.
  void Seal();

  bool sealed() const { return sealed_; }
  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }

  /// The stored postings: arrival order while unsealed, ascending stream
  /// order (one per stream) once sealed. Use Arrival() for arrival order
  /// in both states.
  std::span<const Posting> entries() const {
    return {entries_.data(), entries_.size()};
  }

  /// The i-th posting in arrival order (ascending frsh; i in [0, size())).
  /// Works in both states.
  const Posting& Arrival(std::size_t i) const {
    return sealed_ ? entries_[by_frsh_[entries_.size() - 1 - i]]
                   : entries_[i];
  }

  /// The i-th posting of the list sorted descending by `key`
  /// (i in [0, size())). Requires sealed() for kPopularity and
  /// kTermFrequency; kFreshness works in both states.
  const Posting& At(SortKey key, std::size_t i) const;

  /// Aggregated posting of `stream` within this list (duplicates were
  /// folded at Seal()). A binary search straight over the stream-ordered
  /// array — the hot random-access path of candidate scoring, so no
  /// indirection through a permutation. Requires sealed(). Returns false
  /// when the stream is absent.
  bool AggregateForStream(StreamId stream, Posting& out) const;

  /// Upper bounds over all postings of this term (valid in both states).
  float max_pop() const { return max_pop_; }
  Timestamp max_frsh() const { return max_frsh_; }
  TermFreq max_tf() const { return max_tf_; }

  /// Bytes held by this object: sizeof plus the capacity of the posting
  /// array and of the three permutations.
  std::size_t MemoryBytes() const;

  /// Testing/merge helper: true when the `key` view is sorted descending.
  bool IsSorted(SortKey key) const;

 private:
  // Unsealed: arrival (ascending frsh) order, arena-backed when the owning
  // shard passed an arena. Sealed: one folded posting per stream,
  // ascending stream id, on the heap.
  PostingVec entries_;
  // Sealed only: permutations of entries_, each descending by its key.
  std::vector<std::uint32_t> by_pop_;
  std::vector<std::uint32_t> by_frsh_;
  std::vector<std::uint32_t> by_tf_;
  bool sealed_ = false;
  float max_pop_ = 0.0f;
  Timestamp max_frsh_ = 0;
  TermFreq max_tf_ = 0;
};

}  // namespace rtsi::index

#endif  // RTSI_INDEX_TERM_POSTINGS_H_
