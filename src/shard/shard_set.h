// IndexShardSet: the horizontal scale-out seam (DESIGN.md §6i).
//
// Partitions streams across N independent RTSI shards by a mixed hash of
// the stream id. Every shard is a plain single-node RtsiIndex that knows
// nothing of sharding — its own LsmTree (own delta / L0 freeze schedule /
// merge cascades), its own df and stream tables, its own journal and
// snapshot files in durable mode — so a window seal or merge cascade on
// one shard never stalls ingest or queries on another, and a disk failure
// degrades exactly one partition. The set does three things: it routes
// each operation by stream id, builds one plan per query, and gathers.
//
// Queries run on the calling thread. BuildPlan resolves the query's
// corpus-wide statistics once: each idf from the sum of the shards' df
// and document counts (the same log1p(N / (1 + df)) over the same integer
// sums a single index would hold), the popularity normalizer as the
// maximum of the shards' counters. Every shard then runs that one plan
// through ExecutePlan into its own sink, and the set merges the per-shard
// top-k with the deterministic total order of exec::TopKSink. Results are
// bit-identical to a single unsharded index holding the same streams:
//   * every stream lives in exactly one shard, so the global top-k is a
//     subset of the union of per-shard top-k lists;
//   * every shard scores each candidate with the plan's corpus-wide idfs
//     and normalizer, captured once per query;
//   * the merge sink applies the same (score desc, stream asc) total
//     order as every other query path in the repo.
// A set of any shard count accepts exactly the operations one index
// accepts, stream-id reuse after finish or delete included.
//
// Durable mode gives each shard its own directory:
//   <dir>/shard-<i>/index.snap      — shard snapshot (storage/snapshot.h)
//   <dir>/shard-<i>/index.journal   — shard journal  (storage/journal.h)
// Recovery opens each shard independently (snapshot + journal replay, the
// crash-consistency contract per shard). The shard count is part of the
// on-disk layout: routing is hash mod N, so a set must be reopened with
// the count it was written with.

#ifndef RTSI_SHARD_SHARD_SET_H_
#define RTSI_SHARD_SHARD_SET_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/config.h"
#include "core/rtsi_index.h"
#include "exec/query_plan.h"
#include "storage/journal.h"

namespace rtsi::shard {

struct ShardSetConfig {
  /// Per-shard index configuration. `lsm.delta` is per shard: N shards
  /// seal after delta postings EACH, so seals (and the cascades they
  /// trigger) happen independently per partition.
  core::RtsiConfig index;
  int num_shards = 1;
  /// Non-empty = durable mode: every shard journals to its own directory
  /// under this root (created if missing).
  std::string durable_dir;
  storage::JournalOptions journal;
};

/// The shard a stream routes to: splitmix64 finalizer over the id, mod N.
/// Raw ids are often sequential; the mix spreads them uniformly so shard
/// load stays balanced (see DESIGN.md §6i).
int ShardForStream(StreamId stream, int num_shards);

class IndexShardSet : public core::SearchIndex {
 public:
  /// In-memory shard set (`config.durable_dir` ignored). Requires
  /// config.index.lsm.Check() to pass (asserted in debug builds).
  explicit IndexShardSet(const ShardSetConfig& config);

  /// Adopts already-built indices as the shards (snapshot-restore path;
  /// the vector's size becomes the shard count).
  IndexShardSet(const ShardSetConfig& config,
                std::vector<std::unique_ptr<core::RtsiIndex>> shards);

  /// Durable mode: opens (or recovers) every shard under
  /// `config.durable_dir`. `recovery`, when non-null, receives one entry
  /// per shard. Fails with FailedPrecondition when the directory already
  /// holds shards and their count differs from `config.num_shards`. While
  /// no shard holds data yet, shard directories beyond the count (left by
  /// a first open under a larger count that crashed) are removed.
  static Result<std::unique_ptr<IndexShardSet>> Open(
      const ShardSetConfig& config,
      std::vector<storage::RecoveryStats>* recovery = nullptr);

  ~IndexShardSet() override;

  // SearchIndex: mutations route to the owning shard.
  void InsertWindow(StreamId stream, Timestamp now,
                    const std::vector<core::TermCount>& terms,
                    bool live) override;
  void FinishStream(StreamId stream) override;
  void DeleteStream(StreamId stream) override;
  void UpdatePopularity(StreamId stream, std::uint64_t delta) override;

  /// Scatter-gather top-k across all shards, one shard after another on
  /// the calling thread, with one plan from BuildPlan; bit-identical to a
  /// single-shard index on the same data (see file comment).
  std::vector<core::ScoredStream> Query(const std::vector<TermId>& terms,
                                        int k, Timestamp now,
                                        core::QueryStats* stats) override;
  using core::SearchIndex::Query;

  /// Scatter-gather with a result filter (e.g. live-only search).
  std::vector<core::ScoredStream> QueryFiltered(
      const std::vector<TermId>& terms, int k, Timestamp now,
      const core::QueryFilter& filter, core::QueryStats* stats = nullptr);

  /// The mirror of core::RtsiIndex::BuildPlan over the whole set: idfs
  /// from the summed shard df and document counts, max_pop the maximum of
  /// the shards' counters. At one shard it is that index's own plan.
  exec::QueryPlan BuildPlan(
      const std::vector<TermId>& terms, int k, Timestamp now,
      const core::QueryFilter& filter = core::QueryFilter{}) const;

  std::size_t MemoryBytes() const override;
  std::string name() const override;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  bool durable() const { return !durables_.empty(); }

  /// The shard a stream routes to (tests, stats, per-shard tooling).
  int ShardOf(StreamId stream) const {
    return ShardForStream(stream, num_shards());
  }

  /// The underlying RTSI index of shard `s`.
  core::RtsiIndex& shard_index(int s);
  const core::RtsiIndex& shard_index(int s) const;

  /// The durable wrapper of shard `s`; null in in-memory mode.
  storage::DurableIndex* durable_shard(int s);

  /// Checkpoints every shard (durable mode). Returns the first error but
  /// attempts every shard regardless — one shard's full disk must not
  /// block the others' checkpoints.
  Status Checkpoint();
  Status CheckpointShard(int s);

  /// Blocks until no shard has a merge pending or running.
  void WaitForMerges();

  /// Point-in-time observability for /stats, rtsi_cli and benches.
  struct ShardStats {
    int shard = 0;
    std::uint64_t view_epoch = 0;
    std::vector<std::size_t> runs_per_level;
    std::size_t postings = 0;
    std::size_t streams = 0;
    std::size_t arena_bytes = 0;     // WindowArena in-use bytes
    std::size_t memory_bytes = 0;
    bool degraded = false;           // durable shard in fail-stop mode
  };
  ShardStats GetShardStats(int s) const;

 private:
  IndexShardSet() = default;  // Open() fills the members itself.

  ShardSetConfig config_;
  // Exactly one of the two per slot: plain shards own the index, durable
  // shards own it through the journaling wrapper.
  std::vector<std::unique_ptr<core::RtsiIndex>> plain_;
  std::vector<std::unique_ptr<storage::DurableIndex>> durables_;
  // shards_[i] is the SearchIndex ops route through; raw_[i] the
  // underlying RtsiIndex (for planning, queries and stats).
  std::vector<core::SearchIndex*> shards_;
  std::vector<core::RtsiIndex*> raw_;
};

}  // namespace rtsi::shard

#endif  // RTSI_SHARD_SHARD_SET_H_
