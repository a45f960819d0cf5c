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
// Consolidation invariant: a stream is present in the live-term table iff
// it is live or its postings span more than one LSM component. Hence any
// candidate not in the table has all its postings inside a single sealed
// component, which makes per-component bounds and random accesses exact.
// (One documented transient exception: a stream finished while its level-0
// postings are being merged can momentarily evade the table; its score is
// still computed exactly, only the pruning bound may be optimistic.)

#ifndef RTSI_CORE_RTSI_INDEX_H_
#define RTSI_CORE_RTSI_INDEX_H_

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
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

/// Corpus-global scoring inputs shared by every shard of a sharded
/// deployment (shard::IndexShardSet). Scores depend on two statistics
/// that span the whole corpus, not one partition: the document-frequency
/// table (idf) and the maximum popularity counter (the PopScore
/// normalizer). Each shard keeps its own authoritative tables — those are
/// what its snapshot persists — and additionally folds every update into
/// this shared aggregate, so any shard's query scores a candidate exactly
/// as a single unsharded index holding all streams would (the
/// scatter-gather bit-identity of DESIGN.md §6i). Thread-safe: the df
/// table uses sharded mutexes, the maximum is a CAS-bumped atomic.
struct SharedScoringState {
  DocumentFrequencyTable df;
  std::atomic<std::uint64_t> max_pop{0};

  void BumpMaxPop(std::uint64_t count) {
    std::uint64_t prev = max_pop.load(std::memory_order_relaxed);
    while (count > prev && !max_pop.compare_exchange_weak(
                               prev, count, std::memory_order_relaxed)) {
    }
  }
};

class RtsiIndex : public SearchIndex {
 public:
  explicit RtsiIndex(const RtsiConfig& config);

  /// Drains the background merge executor (if async_merge is on).
  ~RtsiIndex() override;

  /// Blocks until no merge is pending or running (async mode; no-op in
  /// synchronous mode). Benches call this to sequence phases.
  void WaitForMerges();

  /// Toggles upper-bound pruning (RtsiConfig::use_bound). With pruning off
  /// every sealed component is walked to exhaustion without consulting
  /// any pruning structure (skip headers, summaries, admission screen);
  /// tests and benches compare that full walk against the pruned walk to
  /// certify bound soundness. NOT safe concurrently with queries.
  void SetUseBound(bool use_bound);

  /// Switches the LSM compaction policy; takes effect at the next merge
  /// cascade. Always safe: policies are stateless and re-plan from the
  /// current per-level run lists, so any structure the previous policy
  /// (or a restored snapshot) left behind is valid input.
  void SetMergePolicy(lsm::MergePolicy policy);

  /// Binds the shard-global scoring state: queries then compute idf and
  /// the popularity normalizer from `shared` instead of this index's own
  /// tables, and every insert / popularity update is folded into it (in
  /// addition to the shard-local tables, which stay authoritative for
  /// snapshots). Pass nullptr to unbind. NOT safe concurrently with
  /// operations — bind at shard construction, before traffic.
  void BindSharedScoring(std::shared_ptr<SharedScoringState> shared);

  const SharedScoringState* shared_scoring() const {
    return shared_scoring_.get();
  }

  /// Installs an observer invoked after every published cascade step (the
  /// L0 freeze and each merge swap) with no tree locks held — the tree is
  /// consistent and snapshot-safe at each call. Tests use it to save
  /// snapshots mid-cascade. Pass nullptr to clear. NOT safe concurrently
  /// with running merges (set it before inserting past delta).
  void SetCascadeObserver(std::function<void()> observer);

  // SearchIndex:
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
  /// these inputs: deduplicated terms, idfs from the bound scoring state,
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
                                        exec::ResultSink& sink,
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

 private:
  lsm::MergeHooks MakeMergeHooks();

  /// Re-seeds the live-term table with a resuming stream's sealed totals.
  void SeedLiveTotals(StreamId stream);

  /// Drops a finished stream from the live-term table once all its
  /// postings sit in one sealed component.
  void EvictIfConsolidated(StreamId stream);

  std::mutex& StreamMutex(StreamId stream) {
    return stream_mu_[stream % stream_mu_.size()];
  }

  /// Evicts finished, now-consolidated streams from the live-term table
  /// (queued by FinishStream while their postings were still in L0).
  void DrainPendingFinished();

  /// Phase-3 planning over a pinned view: skip headers are consulted
  /// exactly when the plan prunes.
  std::vector<exec::SelectedComponent> SelectSealed(
      const exec::QueryPlan& plan, const lsm::IndexView& view,
      QueryScratch& scratch, QueryStats& qs, QueryExplanation* explain) const;

  /// The one query walk behind ExecutePlan and ExplainQuery: phases 1-3
  /// into `sink`. `explain` (candidate counts, component fates) and
  /// `recorder` (per-candidate breakdowns) are null on the query path.
  std::vector<ScoredStream> Execute(const exec::QueryPlan& plan,
                                    exec::ResultSink& sink, QueryStats* stats,
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
  // Shard-global scoring aggregate (null outside sharded deployments).
  std::shared_ptr<SharedScoringState> shared_scoring_;
  std::mutex pending_mu_;
  std::unordered_set<StreamId> pending_finished_;
  // Test seam: forwarded into MergeHooks::on_cascade_step at each merge.
  std::function<void()> cascade_observer_;
  std::atomic<bool> merge_scheduled_{false};
  // Striped by stream: serializes a window's table/L0/count updates with
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
  // Declared last: destroyed first, draining queued merges while the
  // members above are still alive.
  std::unique_ptr<ThreadPool> merge_executor_;
};

}  // namespace rtsi::core

#endif  // RTSI_CORE_RTSI_INDEX_H_
