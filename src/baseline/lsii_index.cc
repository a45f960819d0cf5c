#include "baseline/lsii_index.h"

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "exec/pipeline.h"
#include "exec/query_plan.h"
#include "exec/selector.h"
#include "exec/sink.h"
#include "exec/traversal.h"

namespace rtsi::baseline {

using core::QueryStats;
using core::ScoredStream;
using core::TermCount;
using index::Posting;
using index::TermPostings;

LsiiIndex::LsiiIndex(const core::RtsiConfig& config)
    : config_(config),
      scorer_(config.weights, config.freshness_tau_seconds),
      tree_(config.lsm) {}

lsm::MergeHooks LsiiIndex::MakeMergeHooks() {
  lsm::MergeHooks hooks;
  hooks.is_deleted = [this](StreamId stream) {
    return big_.IsDeleted(stream);
  };
  hooks.on_purged = [this](StreamId stream) { big_.PurgeTerms(stream); };
  // No on_stream: LSII keeps no per-stream residency bookkeeping.
  return hooks;
}

void LsiiIndex::InsertWindow(StreamId stream, Timestamp now,
                             const std::vector<TermCount>& terms, bool live) {
  // LSII keeps all audio information in the big hash table; the inverted
  // lists only position the stream in the three sort orders.
  std::vector<TermId> first_seen;
  const bool new_stream =
      big_.OnInsertWindow(stream, now, live, terms, first_seen);
  if (new_stream) df_.AddDocument();
  for (const TermId term : first_seen) df_.AddOccurrence(term);

  std::uint64_t pop_count = 0;
  Timestamp frsh = 0;
  big_.GetMeta(stream, pop_count, frsh);
  const float pop_snapshot = static_cast<float>(pop_count);

  for (const TermCount& tc : terms) {
    if (tc.tf == 0) continue;
    tree_.AddPosting(tc.term, Posting{stream, pop_snapshot, now, tc.tf});
  }
  if (tree_.NeedsMerge()) tree_.MergeCascade(MakeMergeHooks());
}

void LsiiIndex::FinishStream(StreamId stream) { big_.MarkFinished(stream); }

void LsiiIndex::DeleteStream(StreamId stream) { big_.MarkDeleted(stream); }

void LsiiIndex::UpdatePopularity(StreamId stream, std::uint64_t delta) {
  big_.AddPopularity(stream, delta);
}

std::vector<ScoredStream> LsiiIndex::Query(const std::vector<TermId>& terms,
                                           int k, Timestamp now,
                                           QueryStats* stats) {
  QueryStats local_stats;
  QueryStats& qs = stats != nullptr ? *stats : local_stats;
  qs = QueryStats{};

  // The baseline shares RTSI's plan, traversal driver and sink, with its
  // own soundness rules: the >= prune cut, no skip headers, no component
  // freshness ceilings, and the global per-term tf headroom (its streams
  // may span components with no consolidation invariant to tighten that).
  exec::QueryPlan plan;
  std::vector<TermId> term_set;
  exec::BuildQueryPlan(terms, df_, k, now, core::QueryFilter{},
                       big_.max_pop_count(), config_.bound_mode,
                       config_.use_bound, /*prune_if_equal=*/true, term_set,
                       plan);
  if (plan.empty()) return {};
  const std::vector<TermId>& q = plan.terms;
  const std::size_t nq = plan.num_terms();
  const int num_terms = static_cast<int>(nq);

  exec::TopKSink sink(k);
  std::unordered_set<StreamId> scored;

  // All score information comes from the big hash table — the measured
  // difference to RTSI.
  auto score_candidate = [&](StreamId stream) {
    std::uint64_t pop_count = 0;
    Timestamp frsh = 0;
    if (!big_.GetMeta(stream, pop_count, frsh)) return;  // Deleted.
    double tfidf_sum = 0.0;
    for (std::size_t i = 0; i < nq; ++i) {
      tfidf_sum += scorer_.TermTfIdf(big_.GetTf(stream, q[i]), plan.idfs[i]);
    }
    const double score =
        scorer_.Combine(scorer_.PopScore(pop_count, plan.max_pop),
                        scorer_.RelScore(tfidf_sum, num_terms),
                        scorer_.FrshScore(frsh, plan.now));
    sink.Offer(stream, score);
    ++qs.candidates_scored;
  };

  // I0: single freshness-ordered list per term; scan it. (Not the
  // pipeline's L0 phase: LSII totals come from the big table, not from
  // accumulated L0 tfs, and this unordered-set iteration order is part of
  // the baseline's historical behavior.)
  std::unordered_set<StreamId> l0_streams;
  for (const TermId term : q) {
    tree_.WithL0Term(term, [&](const TermPostings* postings) {
      if (postings == nullptr) return;
      qs.postings_scanned += postings->size();
      for (const Posting& p : postings->entries()) {
        l0_streams.insert(p.stream);
      }
    });
  }
  for (const StreamId stream : l0_streams) {
    if (!scored.insert(stream).second) continue;
    score_candidate(stream);
  }

  // Sealed components: LSII's own selection, then the shared driver.
  // Components carry no residency bookkeeping, so the freshness ceiling
  // is `now` (sound because the workload clock is monotone); only proven
  // term-free components are dropped, and the unstable bound-only sort
  // keeps the baseline's historical walk order.
  const auto snapshot = tree_.SealedSnapshot();
  std::vector<exec::PerTermBound> per_term(nq);
  for (std::size_t i = 0; i < nq; ++i) {
    per_term[i].idf = plan.idfs[i];
    per_term[i].tf_correction = big_.GetMaxTotal(q[i]);
  }
  std::vector<exec::SelectedComponent> selected;
  for (std::size_t ci = 0; ci < snapshot.size(); ++ci) {
    bool any_present = false;
    for (std::size_t i = 0; i < nq; ++i) {
      per_term[i].bounds = snapshot[ci]->Bounds(q[i]);
      any_present = any_present || per_term[i].bounds.present;
    }
    if (!any_present) continue;
    const double bound = exec::ComponentBound(
        scorer_, per_term, plan.now, plan.max_pop, now, plan.bound_mode);
    selected.push_back({snapshot[ci].get(), bound, now, 0.0, ci, 0, false});
  }
  std::sort(selected.begin(), selected.end(),
            [](const exec::SelectedComponent& a,
               const exec::SelectedComponent& b) { return a.bound > b.bound; });

  struct Policy {
    std::vector<Posting>& round_buf;
    std::vector<std::uint32_t>& round_terms_buf;
    std::unordered_set<StreamId>& scored;
    decltype(score_candidate)& score;

    std::vector<Posting>& round() { return round_buf; }
    std::vector<std::uint32_t>& round_terms() { return round_terms_buf; }
    void BeginComponent(const exec::SelectedComponent&) {}
    bool Admit(StreamId stream) { return scored.insert(stream).second; }
    void Candidate(const exec::Traversal&, const Posting& yielded,
                   std::size_t, QueryStats&) {
      score(yielded.stream);
    }
  };
  std::vector<Posting> round;
  std::vector<std::uint32_t> round_terms;
  Policy policy{round, round_terms, scored, score_candidate};
  exec::RunSealedSequential(plan, scorer_, selected, policy, sink, qs,
                            nullptr);

  return sink.SortedResults();
}

std::size_t LsiiIndex::MemoryBytes() const {
  return tree_.MemoryBytes() + big_.MemoryBytes() + df_.MemoryBytes();
}

}  // namespace rtsi::baseline
