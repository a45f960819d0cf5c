#include "core/rtsi_index.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <unordered_set>
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
  // Streams a merge consolidated into one residency leave the live-term
  // table only once the merge output is published: until the swap,
  // queries still walk the inputs, where only the table's totals score
  // such a stream whole.
  auto consolidated = std::make_shared<std::vector<StreamId>>();
  hooks.on_stream = [this, consolidated](StreamId stream,
                                         std::uint32_t copies,
                                         const index::InvertedIndex& merged) {
    // Register the stream on the (unpublished) merge output — its live
    // freshness bumps the output's ceiling cell on the way. The input
    // residencies stay until on_retired fires post-swap, so inserts keep
    // bumping the still-query-visible inputs' ceilings. When the merge
    // consolidated several of this stream's residencies into one and the
    // stream stopped broadcasting, the per-component tf is the total and
    // the live-term entries can go.
    const auto [count, live] = streams_.MergeResidency(
        stream, copies, merged.component_id(), merged.ceiling_cell());
    if (copies > 1 && count <= 1 && !live) consolidated->push_back(stream);
  };
  hooks.on_retired = [this](StreamId stream,
                            const std::vector<ComponentId>& from) {
    // The merge inputs left the component list: their ceiling cells can
    // no longer reach a query, so the residency entries go.
    streams_.DropResidency(stream, from);
  };
  hooks.on_cascade_step = [this, consolidated,
                           observer = cascade_observer_] {
    for (const StreamId stream : *consolidated) EvictIfConsolidated(stream);
    consolidated->clear();
    if (observer) observer();
  };
  hooks.on_frozen = [this](const index::InvertedIndex& frozen) {
    // A new sealed component is about to become query-visible: register a
    // residency (stream -> ceiling cell) for every distinct stream it
    // holds, from the frozen postings themselves, so the set is exact
    // whatever racing freezes did to the L0 epochs.
    std::unordered_set<StreamId> streams;
    frozen.ForEachTerm([&](TermId, const TermPostings& postings) {
      for (const Posting& p : postings.entries()) streams.insert(p.stream);
    });
    for (const StreamId stream : streams) {
      streams_.AddSealedResidency(stream, frozen.component_id(),
                                  frozen.ceiling_cell());
    }
  };
  return hooks;
}

void RtsiIndex::DrainPendingFinished() {
  // These streams finished with postings in L0, and the freeze that just
  // published moved those postings into one sealed run. A stream that
  // resumed since is back in L0 and stays queued for the next freeze.
  std::vector<StreamId> pending;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    if (pending_finished_.empty()) return;
    for (auto it = pending_finished_.begin(); it != pending_finished_.end();) {
      if (tree_.StreamInL0(*it)) {
        ++it;
      } else {
        pending.push_back(*it);
        it = pending_finished_.erase(it);
      }
    }
  }
  for (const StreamId stream : pending) EvictIfConsolidated(stream);
}

void RtsiIndex::EvictIfConsolidated(StreamId stream) {
  // Under the stream's lock, so a window resuming the stream lands either
  // before the check (and blocks the eviction) or after the removal (and
  // re-seeds the table) — never half-wiped in between.
  std::lock_guard<std::mutex> lock(StreamMutex(stream));
  if (!streams_.IsLive(stream) && streams_.GetComponentCount(stream) <= 1 &&
      !tree_.StreamInL0(stream)) {
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
    for (std::size_t i = 0; i < terms.size(); ++i) {
      const TermCount& tc = terms[i];
      if (tc.tf == 0) continue;
      if (totals[i] == tc.tf) df_.AddOccurrence(tc.term);  // First window.
      // AddPosting marks the stream's L0-epoch presence atomically with the
      // posting (under the term-shard lock), returning true on the stream's
      // first posting of the epoch. Incrementing per true return means a
      // freeze can never separate a mark from its posting, and a freeze
      // splitting this window's postings across two epochs yields the
      // correct two increments.
      if (tree_.AddPosting(tc.term,
                           Posting{stream, pop_snapshot, now, tc.tf})) {
        streams_.IncrementComponentCount(stream);
      }
    }
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
      DrainPendingFinished();
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
  if (streams_.GetComponentCount(stream) <= 1) {
    bool in_l0 = false;
    {
      // Still has (possibly duplicate) postings in L0: queue the eviction
      // for the next freeze. The check and the queueing share the drain's
      // lock, so a freeze that empties L0 in between drains this stream.
      std::lock_guard<std::mutex> lock(pending_mu_);
      in_l0 = tree_.StreamInL0(stream);
      if (in_l0) pending_finished_.insert(stream);
    }
    if (!in_l0) EvictIfConsolidated(stream);
  }
  // Streams spanning several components are evicted by the merge hook
  // once consolidation brings them down to one residency.
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
