#include "core/rtsi_index.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "exec/accumulator.h"
#include "exec/pipeline.h"
#include "exec/selector.h"

namespace rtsi::core {

using index::Posting;
using index::TermPostings;

RtsiIndex::RtsiIndex(const RtsiConfig& config)
    : config_(config),
      scorer_(config.weights, config.freshness_tau_seconds),
      tree_(config_.lsm),
      live_terms_(tree_.memory_tracker()),
      merge_executor_(std::make_unique<ThreadPool>(1)) {}

RtsiIndex::~RtsiIndex() { WaitForMerges(); }

void RtsiIndex::SetUseBound(bool use_bound) {
  config_.use_bound = use_bound;
}

void RtsiIndex::SetCascadeObserver(std::function<void()> observer) {
  cascade_observer_ = std::move(observer);
}

void RtsiIndex::WaitForMerges() { merge_executor_->Wait(); }

lsm::MergeHooks RtsiIndex::MakeMergeHooks() {
  lsm::MergeHooks hooks;
  hooks.is_deleted = [this](StreamId stream) {
    return streams_.IsDeleted(stream);
  };
  hooks.on_purged = [this](StreamId stream) {
    live_terms_.RemoveStream(stream);
  };
  // A new sealed component (frozen L0 run or merge output) registers a
  // residency (stream -> ceiling cell) for each of its streams before it
  // is query-visible; once it is published the retired inputs'
  // residencies go and the stream's placement is re-decided.
  hooks.on_stream = [this](StreamId stream,
                           const index::InvertedIndex& component) {
    streams_.AddSealedResidency(stream, component.component_id(),
                                component.ceiling_cell());
  };
  hooks.on_settled = [this](StreamId stream,
                            const std::vector<ComponentId>& retired_inputs) {
    if (!retired_inputs.empty()) {
      streams_.DropResidency(stream, retired_inputs);
    }
    EvictIfConsolidated(stream);
  };
  hooks.on_cascade_step = cascade_observer_;
  return hooks;
}

void RtsiIndex::EvictIfConsolidated(StreamId stream) {
  // Under the stream's lock, so a window resuming the stream lands either
  // before the check (and blocks the eviction) or after the removal (and
  // re-seeds the table) — never half-wiped in between. Every input is
  // read together: liveness, the sealed residencies and the L0 stamp.
  std::lock_guard<std::mutex> lock(StreamMutex(stream));
  const index::StreamInfoTable::Placement placement =
      streams_.GetPlacement(stream, tree_.l0_epoch());
  if (!placement.live && placement.sealed <= 1 && !placement.in_l0) {
    live_terms_.RemoveStream(stream);
  }
}

void RtsiIndex::InsertWindow(StreamId stream, Timestamp now,
                             const std::vector<TermCount>& terms, bool live) {
  // Algorithm 1. Lines 1-3: append to I0's lists and update hash tables.
  {
    // The stream's lock orders this window against the stream's eviction
    // from the live-term table (EvictIfConsolidated) and its deletion.
    std::lock_guard<std::mutex> stream_lock(StreamMutex(stream));
    if (streams_.IsDeleted(stream)) return;
    std::uint64_t pop_count = 0;
    const bool new_stream = streams_.OnInsert(stream, now, live, &pop_count);
    if (new_stream) df_.AddDocument();
    const float pop_snapshot = static_cast<float>(pop_count);
    if (!new_stream && !live_terms_.ContainsStream(stream)) {
      SeedLiveTotals(stream);
    }

    const std::vector<TermFreq> totals = live_terms_.AddWindow(stream, terms);
    bool appended = false;
    for (std::size_t i = 0; i < terms.size(); ++i) {
      const TermCount& tc = terms[i];
      if (tc.tf == 0) continue;
      if (totals[i] == tc.tf) df_.AddOccurrence(tc.term);  // First window.
      tree_.AddPosting(tc.term, Posting{stream, pop_snapshot, now, tc.tf});
      appended = true;
    }
    // Stamp after the appends: a freeze racing them moves the epoch before
    // this read, so the stamp can only be too high — which delays an
    // eviction and never allows a wrong one.
    if (appended) streams_.StampL0(stream, tree_.l0_epoch());
  }

  // Lines 4-7: when I0 exceeds delta, freeze it here, so I0 never grows
  // past delta, and hand the merge cascade to the merge thread. At most
  // one cascade is in flight: a freeze first waits for the one already
  // submitted, so with one writer the sealed structure after
  // WaitForMerges() is the one a cascade run inline would build.
  // Epoch-published views keep queries exact while the cascade runs.
  if (tree_.NeedsMerge()) {
    merge_executor_->Wait();
    const lsm::MergeHooks hooks = MakeMergeHooks();
    if (tree_.FreezeL0(hooks)) {
      merge_executor_->Submit([this, hooks] { tree_.RunCascade(hooks); });
    }
  }
}

void RtsiIndex::SeedLiveTotals(StreamId stream) {
  // A stream resuming after its eviction from the live-term table: its
  // postings sit in one sealed component and the table no longer holds
  // its totals. The new window makes it span two components again, so
  // the table must carry the whole history or phase 1 under-scores it.
  std::vector<TermCount> sealed;
  const lsm::IndexViewPtr view = tree_.PinView();
  for (const auto& component : view->components) {
    component->ForEachTerm([&](TermId term, const TermPostings& postings) {
      Posting p;
      if (postings.AggregateForStream(stream, p)) {
        sealed.push_back({term, p.tf});
      }
    });
  }
  if (!sealed.empty()) live_terms_.AddWindow(stream, sealed);
}

void RtsiIndex::FinishStream(StreamId stream) {
  streams_.MarkFinished(stream);
  // A stream still split across components, or with postings in L0, is
  // evicted by the settle pass of the merge or freeze that consolidates it.
  EvictIfConsolidated(stream);
}

void RtsiIndex::DeleteStream(StreamId stream) {
  std::lock_guard<std::mutex> lock(StreamMutex(stream));
  streams_.MarkDeleted(stream);  // Lazy: postings purged at merges.
  live_terms_.RemoveStream(stream);
}

void RtsiIndex::UpdatePopularity(StreamId stream, std::uint64_t delta) {
  // The RTSI update path touches only the small per-stream table; the
  // popularity snapshots inside sealed lists stay as-is (the bound mode
  // decides how to stay conservative).
  streams_.AddPopularity(stream, delta);
}

std::vector<ScoredStream> RtsiIndex::Query(const std::vector<TermId>& terms,
                                           int k, Timestamp now,
                                           QueryStats* stats) {
  return QueryFiltered(terms, k, now, QueryFilter{}, stats);
}

std::vector<ScoredStream> RtsiIndex::QueryFiltered(
    const std::vector<TermId>& terms, int k, Timestamp now,
    const QueryFilter& filter, QueryStats* stats) {
  exec::TopKSink sink(k);
  return ExecutePlan(BuildPlan(terms, k, now, filter), sink, stats);
}

exec::QueryPlan RtsiIndex::BuildPlan(const std::vector<TermId>& terms,
                                     int k, Timestamp now,
                                     const QueryFilter& filter) const {
  exec::QueryPlan plan;
  std::vector<TermId> term_set;
  exec::BuildQueryPlan(terms, df_, k, now, filter, streams_.max_pop_count(),
                       config_.bound_mode, config_.use_bound,
                       /*prune_if_equal=*/false, term_set, plan);
  return plan;
}

void RtsiIndex::AddLifetimeCounters(const QueryStats& qs) {
  cum_visited_.fetch_add(qs.components_visited, std::memory_order_relaxed);
  cum_pruned_.fetch_add(qs.components_pruned, std::memory_order_relaxed);
  cum_skipped_.fetch_add(qs.components_skipped, std::memory_order_relaxed);
  cum_bloom_fp_.fetch_add(qs.bloom_false_positives,
                          std::memory_order_relaxed);
  cum_screened_.fetch_add(qs.candidates_screened, std::memory_order_relaxed);
}

std::vector<ScoredStream> RtsiIndex::ExecutePlan(const exec::QueryPlan& plan,
                                                 exec::TopKSink& sink,
                                                 QueryStats* stats) {
  return Execute(plan, sink, stats, nullptr, nullptr);
}

std::vector<ScoredStream> RtsiIndex::Execute(
    const exec::QueryPlan& plan, exec::TopKSink& sink, QueryStats* stats,
    QueryExplanation* explain, exec::BreakdownRecorder* recorder) {
  // Diagnostics accumulate in a local and are published once on exit, so
  // the per-candidate increments never write through the caller's pointer.
  QueryStats qs;
  if (!plan.empty()) {
    ScratchLease lease(scratch_pool_);
    QueryScratch& scratch = *lease;
    // Streams inserted after this read fall to the sets' overflow path.
    const StreamId max_stream = streams_.max_stream_id();
    scratch.exact_scored.Reserve(max_stream);
    scratch.component_seen.Reserve(max_stream);
    exec::ExactScorer exact(plan, scorer_, streams_, sink, qs, recorder);
    const std::size_t table_candidates =
        exec::RunLiveTablePhase(plan, scorer_, live_terms_, scratch, exact);
    const std::size_t l0_candidates =
        exec::RunL0Phase(plan, scorer_, tree_, scratch, exact, qs);
    if (explain != nullptr) {
      explain->live_table_candidates = table_candidates;
      explain->l0_candidates = l0_candidates;
    }

    // The query pins ONE immutable view here — a single atomic load — and
    // traverses that view: no locks, no structure re-checks, no mirror
    // lookups. Merges publishing mid-query cannot perturb the pinned
    // component set, and pre-merge components stay alive because the pin
    // references them. Skip headers (Bloom filter, summaries, admission
    // screen) are pruning structures, so the selector reads them exactly
    // when the plan prunes: the full walk stays the structure-free
    // reference path.
    const lsm::IndexViewPtr view = tree_.PinView();
    const std::vector<exec::SelectedComponent> selected =
        exec::SelectComponents(
            plan, scorer_, view->components, streams_.max_frsh(),
            {scratch.per_term, scratch.screen_own, scratch.screen_tfidf}, qs,
            explain);
    exec::SealedScorer policy(plan, scorer_, streams_, scratch, sink,
                              recorder);
    exec::RunSealedSequential(plan, scorer_, selected, policy, sink, qs,
                              explain);
    AddLifetimeCounters(qs);
  }
  if (stats != nullptr) *stats = qs;
  return sink.SortedResults();
}

QueryExplanation RtsiIndex::ExplainQuery(const std::vector<TermId>& terms,
                                         int k, Timestamp now,
                                         const QueryFilter& filter) {
  QueryExplanation explain;
  const exec::QueryPlan plan = BuildPlan(terms, k, now, filter);
  explain.terms = plan.terms;
  explain.idfs = plan.idfs;
  explain.k = k;
  explain.now = now;

  // The query's own walk, with the scorers recording breakdowns and the
  // selector and driver filling per-component bookkeeping.
  exec::TopKSink sink(k);
  exec::BreakdownRecorder recorder(plan.num_terms());
  for (const ScoredStream& r :
       Execute(plan, sink, nullptr, &explain, &recorder)) {
    const ScoreBreakdown* breakdown = recorder.Find(r.stream);
    if (breakdown != nullptr) explain.results.push_back(*breakdown);
  }
  return explain;
}

std::size_t RtsiIndex::MemoryBytes() const {
  return tree_.MemoryBytes() + streams_.MemoryBytes() +
         live_terms_.MemoryBytes() + df_.MemoryBytes();
}

}  // namespace rtsi::core
