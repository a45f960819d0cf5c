// Component merging (Algorithm 2's CombineLists + lazy deletion).
//
// Merging consolidates duplicate postings: a live stream inserts one
// posting per 60-second window, so the same (term, stream) pair appears
// many times across (and within) components; the merged component keeps a
// single posting with the summed term frequency, the newest freshness and
// the largest popularity snapshot. Postings of deleted streams are purged
// here (lazy deletion). Merges are N-way: a cascade step folds every run
// of the overflowing level and the next — the classic two in steady
// state, more after a snapshot restored mid-cascade — in one pass.
// Hooks let the owning index keep its record of where each stream's
// postings live, and the live-term table, in step with the structure.

#ifndef RTSI_LSM_MERGE_H_
#define RTSI_LSM_MERGE_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "common/window_arena.h"
#include "index/inverted_index.h"

namespace rtsi::lsm {

struct MergeHooks {
  /// Lazy deletion predicate; postings of deleted streams are dropped.
  /// Consulted once per distinct stream per merge (memoized).
  std::function<bool(StreamId)> is_deleted;

  /// Called once per stream whose postings were purged by this merge.
  std::function<void(StreamId stream)> on_purged;

  /// Called once per distinct surviving stream of a new sealed component
  /// — a frozen L0 run or a merge output — before it is published.
  /// `component` already carries its id and live-freshness ceiling cell,
  /// so the owner can register the stream's residency while the view
  /// still serves L0 or the merge inputs. In a freeze it runs under every
  /// L0 shard lock, so no insert can race.
  std::function<void(StreamId stream, const index::InvertedIndex& component)>
      on_stream;

  /// Called again for each of those streams once the component is
  /// published, with no L0 lock held. `retired_inputs` are the merge
  /// inputs that just left the view (empty for a freeze): the owner drops
  /// the stream's residencies for them — until now they had to stay
  /// registered, so inserts kept bumping the ceilings of inputs that
  /// queries could still pin — and re-decides the stream's placement.
  std::function<void(StreamId stream,
                     const std::vector<ComponentId>& retired_inputs)>
      on_settled;

  /// Called after every published structural step — the L0 freeze (by
  /// FreezeL0, on the freezing thread) and each merge swap (by
  /// RunCascade) — with no structural or L0 lock held. The tree
  /// is fully consistent and snapshot-safe at each invocation: this is
  /// the seam checkpoint-during-compaction and the mid-cascade snapshot
  /// tests hang off. Leave unset in production ingest paths.
  std::function<void()> on_cascade_step;
};

struct MergeStats {
  std::size_t merges = 0;
  std::size_t postings_in = 0;
  std::size_t postings_out = 0;
  std::size_t purged_postings = 0;
  std::size_t consolidated_postings = 0;  // Duplicates folded together.
  double total_micros = 0.0;

  MergeStats& operator+=(const MergeStats& other) {
    merges += other.merges;
    postings_in += other.postings_in;
    postings_out += other.postings_out;
    purged_postings += other.purged_postings;
    consolidated_postings += other.consolidated_postings;
    total_micros += other.total_micros;
    return *this;
  }
};

/// Combines `inputs` (one or more sealed components) into a new sealed
/// component at `out_level`, compressing it when `compress` is set. With
/// two inputs the pass structure — input 0's terms first, each folded
/// with the later inputs' postings for that term, then the terms only
/// later inputs hold — is identical to the historical two-way merge, so
/// a two-input call produces a bit-identical component.
/// `out_id`/`out_cell` give the output its component identity and
/// live-freshness ceiling cell (allocated by the owning LsmTree); the
/// output's ceiling additionally inherits every input's ceiling. Tests
/// may omit them — the output then has no ceiling cell and queries fall
/// back to the global freshness maximum. When `surviving` is non-null it
/// receives every distinct surviving stream, so the caller can run the
/// post-publication `on_settled` pass.
/// `scratch` (optional) backs the merge's transient state — per-term
/// consolidation maps, ordering buffers, unsealed output vectors, stream
/// sets — so the allocation churn recycles through the arena's free
/// lists instead of hitting the global heap once per node. The output
/// component never references the scratch arena: `Seal()` migrates every
/// unsealed vector to an exact-size heap buffer, so the caller may drop
/// (or reuse) the arena as soon as this returns. Null = global heap.
std::shared_ptr<index::InvertedIndex> CombineComponents(
    const std::vector<const index::InvertedIndex*>& inputs, int out_level,
    bool compress, const MergeHooks& hooks, MergeStats* stats,
    ComponentId out_id = kInvalidComponentId,
    index::FreshnessCeilingPtr out_cell = nullptr,
    std::vector<StreamId>* surviving = nullptr,
    WindowArena* scratch = nullptr);

}  // namespace rtsi::lsm

#endif  // RTSI_LSM_MERGE_H_
