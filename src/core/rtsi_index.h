// RTSI: the Real-Time Search Index for live audio streams.
//
// Implements the paper's Algorithms 1 (insertion), 2 (merging with
// queries kept exact via epoch-published immutable views; delegated to
// lsm::LsmTree) and 3 (top-k query answering with upper-bound early
// termination), plus popularity updates and lazy deletion.
//
// Index anatomy (Section IV-B):
//  - an LSM-tree of inverted indices whose postings carry (pop snapshot,
//    freshness, tf) inline, with three sorted lists per term in sealed
//    components;
//  - a small per-stream hash table (StreamInfoTable) for the mutable
//    popularity counter and freshness;
//  - a small live-term hash table (LiveTermTable) holding total term
//    frequencies of live (and not-yet-consolidated) streams, so scoring
//    never visits multiple components.
//
// Consolidation invariant: a stream is absent from the live-term table
// only if it is not live and all its postings sit in a single sealed
// component of the published view. Queries read the table before they pin
// a view, so any candidate not in the table is scored from that one
// component, which makes per-component bounds and random accesses exact.
// One record says where a stream's postings are — its sealed residencies
// plus its L0 stamp, in StreamInfoTable — and every eviction is decided
// from it, under the stream's lock, after the freeze or merge it depends
// on is published.

#ifndef RTSI_CORE_RTSI_INDEX_H_
#define RTSI_CORE_RTSI_INDEX_H_

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/config.h"
#include "core/doc_freq.h"
#include "core/explain.h"
#include "core/query_scratch.h"
#include "core/scorer.h"
#include "core/search_index.h"
#include "exec/query_plan.h"
#include "exec/selector.h"
#include "exec/sink.h"
#include "index/live_term_table.h"
#include "index/stream_info_table.h"
#include "lsm/lsm_tree.h"

namespace rtsi::exec {
class BreakdownRecorder;
}  // namespace rtsi::exec

namespace rtsi::core {

class RtsiIndex : public SearchIndex {
 public:
  /// Requires config.lsm.Check() to pass (asserted in debug builds).
  explicit RtsiIndex(const RtsiConfig& config);

  /// Drains the merge thread.
  ~RtsiIndex() override;

  /// Blocks until the merge thread has no cascade queued or running.
  /// Callers that read structure, stats or memory, save a snapshot, or
  /// time an insert together with the cascade it started call this first.
  void WaitForMerges() override;

  /// Toggles upper-bound pruning (RtsiConfig::use_bound). With pruning off
  /// every sealed component is walked to exhaustion without consulting
  /// any pruning structure (skip headers, summaries, admission screen);
  /// tests and benches compare that full walk against the pruned walk to
  /// certify bound soundness. NOT safe concurrently with queries.
  void SetUseBound(bool use_bound);

  /// Installs an observer invoked after every published cascade step —
  /// the L0 freeze, on the inserting thread, and each merge swap, on the
  /// merge thread — with no structural or L0 lock held: the tree is
  /// consistent and snapshot-safe at each call. Tests use it to save
  /// snapshots mid-cascade. Pass nullptr to clear. NOT safe concurrently
  /// with running merges (set it before inserting past delta, clear it
  /// after WaitForMerges()).
  void SetCascadeObserver(std::function<void()> observer);

  // SearchIndex. Deletion is monotone: InsertWindow drops a window for a
  // deleted stream, which could never be returned again, so it changes
  // neither the df table nor any score. The check and DeleteStream run
  // under the stream's striped lock, so a racing window lands either
  // wholly before the deletion or not at all.
  void InsertWindow(StreamId stream, Timestamp now,
                    const std::vector<TermCount>& terms, bool live) override;
  void FinishStream(StreamId stream) override;
  void DeleteStream(StreamId stream) override;
  void UpdatePopularity(StreamId stream, std::uint64_t delta) override;
  std::vector<ScoredStream> Query(const std::vector<TermId>& terms, int k,
                                  Timestamp now, QueryStats* stats) override;
  using SearchIndex::Query;

  /// Top-k search restricted by `filter` (e.g. live streams only — the
  /// "search live broadcasts" product feature).
  std::vector<ScoredStream> QueryFiltered(const std::vector<TermId>& terms,
                                          int k, Timestamp now,
                                          const QueryFilter& filter,
                                          QueryStats* stats = nullptr);

  /// Answers the query and explains it: candidate sources, per-component
  /// bounds and prune decisions, and per-result score decompositions. It
  /// runs ExecutePlan's walk with a breakdown recorder attached.
  QueryExplanation ExplainQuery(const std::vector<TermId>& terms, int k,
                                Timestamp now,
                                const QueryFilter& filter = QueryFilter{});

  /// Builds (but does not run) the execution plan Query would use for
  /// these inputs: deduplicated terms, idfs from this index's df table,
  /// the capture-once popularity normalizer, and the pruning regime. The
  /// plan is immutable and re-enterable — standing queries hold one and
  /// re-execute it as the index advances; fuzzy expansion rewrites the
  /// term list before building.
  exec::QueryPlan BuildPlan(const std::vector<TermId>& terms, int k,
                            Timestamp now,
                            const QueryFilter& filter = QueryFilter{}) const;

  /// Runs a prepared plan through the pipeline into a caller-supplied
  /// sink (the standing-query seam; Query/QueryFiltered are BuildPlan and
  /// this with a TopKSink). The sink keeps its prior contents —
  /// re-executions can accumulate — and the returned vector is its
  /// current rank order.
  std::vector<ScoredStream> ExecutePlan(const exec::QueryPlan& plan,
                                        exec::TopKSink& sink,
                                        QueryStats* stats = nullptr);
  std::size_t MemoryBytes() const override;
  std::string name() const override { return "RTSI"; }

  // Introspection for tests and benches.
  const lsm::LsmTree& tree() const { return tree_; }
  const index::StreamInfoTable& stream_table() const { return streams_; }
  const index::LiveTermTable& live_table() const { return live_terms_; }
  const DocumentFrequencyTable& doc_freq() const { return df_; }
  const RtsiConfig& config() const { return config_; }
  lsm::MergeStats GetMergeStats() const { return tree_.GetMergeStats(); }

  /// Cumulative skip-planner counters across the index's lifetime
  /// (rtsi_cli stats; monotone, updated once per query).
  struct SkipCounters {
    std::uint64_t components_visited = 0;
    std::uint64_t components_pruned = 0;
    std::uint64_t components_skipped = 0;
    std::uint64_t bloom_false_positives = 0;
    std::uint64_t candidates_screened = 0;
  };
  /// Aggregate WindowArena counters across the live ingest path: the L0
  /// shard arenas plus the live-term table's shard arenas. Benches derive
  /// allocations-per-insert from the request counters; rtsi_cli stats
  /// prints the byte gauges.
  WindowArena::Stats LiveArenaStats() const {
    WindowArena::Stats s = tree_.ArenaStats();
    s += live_terms_.ArenaStats();
    return s;
  }

  SkipCounters GetSkipCounters() const {
    SkipCounters c;
    c.components_visited = cum_visited_.load(std::memory_order_relaxed);
    c.components_pruned = cum_pruned_.load(std::memory_order_relaxed);
    c.components_skipped = cum_skipped_.load(std::memory_order_relaxed);
    c.bloom_false_positives =
        cum_bloom_fp_.load(std::memory_order_relaxed);
    c.candidates_screened =
        cum_screened_.load(std::memory_order_relaxed);
    return c;
  }

  // Mutable access for the snapshot-restore path only
  // (storage/snapshot.h); not part of the public indexing API.
  lsm::LsmTree& mutable_tree() { return tree_; }
  index::StreamInfoTable& mutable_stream_table() { return streams_; }
  index::LiveTermTable& mutable_live_table() { return live_terms_; }
  DocumentFrequencyTable& mutable_doc_freq() { return df_; }

  // Test seam: the recycled query scratches, so a test can drive a
  // scratch's stamped sets (e.g. to an epoch wrap) between queries.
  ScratchPool& scratch_pool() { return scratch_pool_; }

 private:
  friend struct RtsiIndexTestPeer;

  lsm::MergeHooks MakeMergeHooks();

  /// Re-seeds the live-term table with a resuming stream's sealed totals.
  void SeedLiveTotals(StreamId stream);

  /// Drops a finished stream from the live-term table once all its
  /// postings sit in one sealed component: not live, at most one sealed
  /// residency (mid-merge the unpublished output counts too) and no L0
  /// stamp in the current epoch, all read under the stream's lock.
  void EvictIfConsolidated(StreamId stream);

  std::mutex& StreamMutex(StreamId stream) {
    return stream_mu_[stream % stream_mu_.size()];
  }

  /// The one query walk behind ExecutePlan and ExplainQuery: phases 1-3
  /// into `sink`. `explain` (candidate counts, component fates) and
  /// `recorder` (per-candidate breakdowns) are null on the query path.
  std::vector<ScoredStream> Execute(const exec::QueryPlan& plan,
                                    exec::TopKSink& sink, QueryStats* stats,
                                    QueryExplanation* explain,
                                    exec::BreakdownRecorder* recorder);

  /// Folds one query's skip-planner counters into the lifetime totals.
  void AddLifetimeCounters(const QueryStats& qs);

  RtsiConfig config_;
  Scorer scorer_;
  lsm::LsmTree tree_;
  index::StreamInfoTable streams_;
  index::LiveTermTable live_terms_;
  DocumentFrequencyTable df_;
  // Test seam: forwarded into MergeHooks::on_cascade_step at each merge.
  std::function<void()> cascade_observer_;
  // Striped by stream: serializes a window's table/L0/stamp updates with
  // the eviction of the same stream from the live-term table.
  std::array<std::mutex, 64> stream_mu_;
  // Lifetime skip-planner counters (relaxed: statistics only).
  std::atomic<std::uint64_t> cum_visited_{0};
  std::atomic<std::uint64_t> cum_pruned_{0};
  std::atomic<std::uint64_t> cum_skipped_{0};
  std::atomic<std::uint64_t> cum_bloom_fp_{0};
  std::atomic<std::uint64_t> cum_screened_{0};
  // Recycled query buffers; each query leases one scratch so the scoring
  // hot path never allocates in steady state.
  mutable ScratchPool scratch_pool_;
  // The index's one merge thread; every cascade runs on it. Declared
  // last: destroyed first, draining queued merges while the members above
  // are still alive.
  std::unique_ptr<ThreadPool> merge_executor_;
};

}  // namespace rtsi::core

#endif  // RTSI_CORE_RTSI_INDEX_H_
