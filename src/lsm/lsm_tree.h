// The LSM-tree of inverted indices (Figure 2).
//
// Level 0 is mutable and sharded by term into kL0Shards shards: insertions
// lock only the term's shard (the paper's "partially locking the inverted
// index"), queries take the shard's shared lock for the duration of one
// term scan. Levels >= 1 are immutable components produced by merges.
//
// Every sealed level holds a *list* of runs, not a single resident: a
// just-frozen L0 lives at levels_[0], and a snapshot restored mid-cascade
// may land a detached input next to an over-capacity intermediate on the
// same level. Any such state is valid — each cascade step is planned from
// whatever run lists it finds, so every pinned view is a restorable
// snapshot (the snapshot-anywhere invariant, DESIGN.md §6h).
//
// The sealed structure is epoch-published: every structural change builds
// an immutable IndexView and swaps it in with one atomic shared_ptr
// store. Queries pin the current view and traverse it lock-free;
// pre-merge components stay alive because the views that reference them
// do, which subsumes Algorithm 2's mirror set (the refcount is the
// mirror). Writer-side bookkeeping (per-level run lists, the in-flight
// merge's detached inputs) is serialized by components_mu_, which no
// reader ever takes.
//
// Merging is two calls. FreezeL0 seals an over-capacity L0 into a
// level-0 run; RunCascade then runs Algorithm 1's geometric cascade —
// level l overflows into level l+1 while it holds more than
// delta * rho^l postings — as N-way merge steps until every level fits.
// The owner decides which thread runs each: RtsiIndex freezes on the
// inserting thread and cascades on its merge thread.

#ifndef RTSI_LSM_LSM_TREE_H_
#define RTSI_LSM_LSM_TREE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "common/atomic_shared_ptr.h"
#include "common/memory_tracker.h"
#include "common/status.h"
#include "common/window_arena.h"
#include "index/inverted_index.h"
#include "lsm/index_view.h"
#include "lsm/merge.h"

namespace rtsi::lsm {

class LsmTree {
 public:
  /// The paper's knobs.
  struct Config {
    std::size_t delta = 64 * 1024;  // I0 capacity, in postings.
    double rho = 4.0;               // Size ratio between adjacent levels.
    bool compress = false;          // Huffman-compress merged components.

    /// InvalidArgument unless the cascade settles: delta >= 1 and
    /// rho > 1 (a NaN rho fails too). Otherwise every non-empty level is
    /// over capacity and each step opens a deeper one, forever. Paths
    /// that can return a status (snapshot load, DurableIndex::Open,
    /// IndexShardSet::Open) check it; the in-memory constructors take
    /// it as a precondition, asserted in debug builds.
    Status Check() const;
  };

  /// Term shards of L0.
  static constexpr std::size_t kL0Shards = 16;

  /// Requires config.Check() to pass (asserted in debug builds).
  explicit LsmTree(const Config& config);

  LsmTree(const LsmTree&) = delete;
  LsmTree& operator=(const LsmTree&) = delete;

  /// Appends one posting to the term's level-0 list. Thread-safe.
  void AddPosting(TermId term, const index::Posting& posting);

  /// The current L0 epoch: 1 at birth, bumped by every freeze under all
  /// L0 shard locks, after the frozen component is published. A caller
  /// that reads it after appending postings gets the epoch of the L0
  /// they landed in, or a later one if a freeze raced the read: a stamp
  /// taken this way is never too low.
  std::uint32_t l0_epoch() const {
    return l0_epoch_.load(std::memory_order_acquire);
  }

  bool NeedsMerge() const {
    return l0_postings_.load(std::memory_order_relaxed) > config_.delta;
  }

  /// If I0 is over capacity, freezes L0 into a sealed run appended to
  /// level 0 and publishes it; returns whether it froze. The run gets a
  /// fresh id and ceiling cell; `hooks.on_stream` runs for each of its
  /// streams before it becomes query-visible, and `hooks.on_settled`
  /// and `hooks.on_cascade_step` after, with no L0 lock held. Nothing is
  /// published when L0 holds no postings (a drifted l0_postings_ counter,
  /// which is reset so NeedsMerge() stops firing). Serialized with other
  /// freezes and with RunCascade.
  bool FreezeL0(const MergeHooks& hooks);

  /// Executes Algorithm 1's cascade steps until every level fits its
  /// capacity. Queries proceed concurrently against whatever view they
  /// pinned, and inserts against L0.
  /// Each step reports its output's streams to `hooks.on_stream` before
  /// publication and to `hooks.on_settled` after; `hooks.on_cascade_step`
  /// (if set) fires after every published step with no structural or L0
  /// lock held.
  void RunCascade(const MergeHooks& hooks);

  /// FreezeL0, then RunCascade if it froze: the whole of Algorithm 1's
  /// lines 4-7 on the calling thread (the LSII baseline and tests).
  void MergeCascade(const MergeHooks& hooks);

  /// Runs `fn(const index::TermPostings*)` for the term's L0 postings
  /// (nullptr when absent) under the shard's shared lock.
  template <typename Fn>
  void WithL0Term(TermId term, Fn&& fn) const {
    const L0Shard& shard = *l0_shards_[term % l0_shards_.size()];
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    fn(shard.index.GetPlain(term));
  }

  /// Runs fn(TermId, const index::TermPostings&) for every L0 term, one
  /// shard at a time under its shared lock (snapshot save path).
  template <typename Fn>
  void ForEachL0Term(Fn&& fn) const {
    for (const auto& shard : l0_shards_) {
      std::shared_lock<std::shared_mutex> lock(shard->mu);
      shard->index.ForEachTerm(fn);
    }
  }

  /// Appends a sealed component to the run list of the level implied by
  /// its level() (snapshot restore path). Any level >= 0 is accepted and
  /// levels may receive several runs: a snapshot can be taken at any
  /// point of a merge cascade — frozen L0 at level 0, detached inputs
  /// and over-capacity intermediates sharing a level — and the next
  /// cascade re-plans from whatever shape was restored. Assigns the
  /// component a fresh id and live-freshness ceiling cell if it has none.
  Status RestoreSealedComponent(
      std::shared_ptr<index::InvertedIndex> component);

  /// Pins the currently published read view: the complete sealed
  /// component set plus its epoch, immutable for the pin's lifetime.
  /// Wait-free for readers; the one load a query performs on entry.
  IndexViewPtr PinView() const { return view_.Load(); }

  /// Convenience copy of the pinned view's component list (callers that
  /// want a vector rather than a view pin, e.g. snapshot save). Never
  /// contains duplicates.
  std::vector<std::shared_ptr<const index::InvertedIndex>> SealedSnapshot()
      const;

  /// Epoch of the currently published view (monotone; bumped on every
  /// freeze, merge swap and restore). Two equal epochs bracket an
  /// unchanged component set.
  std::uint64_t epoch() const { return PinView()->epoch; }

  std::size_t l0_postings() const {
    return l0_postings_.load(std::memory_order_relaxed);
  }

  std::size_t total_postings() const;

  /// Number of levels holding at least one run.
  std::size_t num_levels() const;

  /// Total sealed runs across all levels (a level can hold several).
  std::size_t num_runs() const;

  /// Run count per level, indexed by level (index 0 = frozen-L0 runs).
  /// Trailing empty levels are trimmed.
  std::vector<std::size_t> RunsPerLevel() const;

  std::size_t MemoryBytes() const;
  MergeStats GetMergeStats() const;
  const Config& config() const { return config_; }

  // Lifecycle observability (rtsi_cli stats, leak assertions in tests).

  /// Number of IndexView objects alive: the published view plus every
  /// retired view still pinned by an in-flight reader.
  std::int64_t live_views() const {
    return view_gauge_->load(std::memory_order_relaxed);
  }

  /// Components that left the published view but are still alive because
  /// a pinned view references them (the mirror-era "extra copies").
  std::size_t retired_components() const;

  /// Bytes currently held by retired-but-still-pinned components.
  std::size_t RetiredBytes() const;

  /// The tracker skip-header bytes are charged to (kSkipHeader category).
  /// Shared so a component retired past the tree's lifetime can still
  /// release its charge.
  const std::shared_ptr<MemoryTracker>& memory_tracker() const {
    return mem_tracker_;
  }

  /// Aggregate allocation counters of the L0 ingest arenas. Counters
  /// (requests, upstream, free-list hits) are cumulative across arena
  /// rotations — monotone, so benches can diff them across a freeze; the
  /// gauges (owned/allocated bytes) reflect the current arenas only.
  /// Takes each shard's shared lock briefly; counters themselves are
  /// relaxed atomics.
  WindowArena::Stats ArenaStats() const;

 private:
  friend struct LsmTreeTestPeer;

  struct L0Shard {
    mutable std::shared_mutex mu;
    // Ingest arena for this shard's unsealed posting vectors, rotated at
    // FreezeL0 (the retired arena is quarantined on the frozen component
    // until the last pinned view drops); declared before `index` so the
    // index (whose vectors deallocate into the arena) is destroyed first.
    std::unique_ptr<WindowArena> arena;
    index::InvertedIndex index{0};
  };

  /// runs[l] holds every sealed run whose level() == l, oldest first.
  using LevelRuns =
      std::vector<std::vector<std::shared_ptr<const index::InvertedIndex>>>;

  /// FreezeL0's body; fills `streams` with the frozen run's distinct
  /// streams when the hooks track streams. Requires merge_mu_.
  bool FreezeL0Locked(const MergeHooks& hooks, std::vector<StreamId>* streams);

  /// Builds the view implied by levels_ + pending_, bumps the epoch, and
  /// publishes it; components that just left the view are recorded in the
  /// retired registry. Requires components_mu_.
  void PublishLocked();

  /// Moves one run from its level list into pending_ (detaching a merge
  /// input: still query-visible, no longer plannable). Requires
  /// components_mu_.
  void DetachRunLocked(const std::shared_ptr<const index::InvertedIndex>& run);

  /// Appends a run to its level's list. Requires components_mu_.
  void InstallRunLocked(std::shared_ptr<const index::InvertedIndex> run,
                        int level);

  /// Removes one component from pending_ by identity. Requires
  /// components_mu_.
  void ErasePendingLocked(const index::InvertedIndex* component);

  /// Never-reused component id (1-based; 0 = invalid).
  ComponentId AllocateComponentId() {
    return next_component_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  Config config_;
  // kL0Shards entries each. Every shard is its own heap allocation:
  // ThreadSanitizer knows a std::mutex by its address only, so mutexes
  // inside a stack-allocated tree would be confused with whatever later
  // reuses that stack (false lock-order reports).
  std::vector<std::unique_ptr<L0Shard>> l0_shards_;
  std::atomic<std::size_t> l0_postings_{0};
  std::atomic<std::uint32_t> l0_epoch_{1};

  // Writer-side structural state; readers go through view_ only.
  mutable std::mutex components_mu_;  // Guards levels_/pending_/publish.
  // levels_[l] holds the sealed runs at level l, oldest first; index 0 is
  // the home of frozen-L0 runs no merge has touched yet.
  LevelRuns levels_;
  // Query-visible components without a level-list entry: merge inputs
  // detached from their run lists while the output is built.
  std::vector<std::shared_ptr<const index::InvertedIndex>> pending_;
  AtomicSharedPtr<const IndexView> view_;
  // Counts IndexView objects alive (each view's deleter decrements); the
  // gauge is shared so a view pinned past the tree's lifetime stays safe.
  std::shared_ptr<std::atomic<std::int64_t>> view_gauge_;
  // Components that left the view; weak so the registry never extends a
  // lifetime — entries expire exactly when the last pinned view drops.
  mutable std::mutex retired_mu_;
  mutable std::vector<std::weak_ptr<const index::InvertedIndex>> retired_;
  std::atomic<ComponentId> next_component_id_{0};
  // Byte accounting for per-component skip headers; shared with the
  // components so retirement-after-tree-destruction still balances.
  std::shared_ptr<MemoryTracker> mem_tracker_ =
      std::make_shared<MemoryTracker>();

  std::mutex merge_mu_;  // Serializes freezes and cascades.
  mutable std::mutex stats_mu_;
  MergeStats merge_stats_;
  // Counters of ingest arenas retired by rotation (gauge fields zeroed),
  // so ArenaStats() stays monotone across freezes. Guarded by stats_mu_.
  WindowArena::Stats rotated_arena_stats_;
};

}  // namespace rtsi::lsm

#endif  // RTSI_LSM_LSM_TREE_H_
