// Pipeline drivers: the traversal loops of Algorithm 3, templated over a
// candidate policy so the inner loop stays monomorphic: no virtual or
// std::function dispatch per posting or per candidate.
//
// A policy provides:
//   std::vector<index::Posting>& round();          // this thread's buffers
//   std::vector<std::uint32_t>& round_terms();
//   void BeginComponent(const SelectedComponent&);
//   bool Admit(StreamId);                          // dedup / already-exact
//   void Candidate(const Traversal&, const index::Posting& yielded,
//                  std::size_t term_index, core::QueryStats&);
//
// `yielded` is the posting the traversal handed over: a sealed list holds
// one folded posting per stream, so it is the stream's aggregate for the
// discovering term.
//
// RunSealedSequential drives the sealed-component walk (the RTSI and LSII
// policies). RunLiveTablePhase / RunL0Phase are the exact-total phases
// that precede it.

#ifndef RTSI_EXEC_PIPELINE_H_
#define RTSI_EXEC_PIPELINE_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/explain.h"
#include "core/query_scratch.h"
#include "core/scorer.h"
#include "core/search_index.h"
#include "exec/query_plan.h"
#include "exec/selector.h"
#include "exec/sink.h"
#include "exec/traversal.h"
#include "index/live_term_table.h"
#include "lsm/lsm_tree.h"

namespace rtsi::exec {

/// Pruning comparison: RTSI drops strictly below the threshold (a dropped
/// candidate can never re-enter via the stream-id tie-break); the LSII
/// baseline also drops ties. -infinity thresholds (sink not yet full)
/// never prune under either rule.
inline bool Prunes(double threshold, double bound, bool if_equal) {
  return if_equal ? threshold >= bound : threshold > bound;
}

/// Adds `tf` to cell (stream, term i) of the exact phases' slot-major tf
/// matrix, giving the stream a zeroed row on first sight.
inline void AddToSlotMatrix(core::QueryScratch& scratch, std::size_t nq,
                            StreamId stream, std::size_t i, TermFreq tf) {
  const auto [it, inserted] = scratch.slot_of.try_emplace(
      stream, static_cast<std::uint32_t>(scratch.slot_streams.size()));
  if (inserted) {
    scratch.slot_streams.push_back(stream);
    scratch.slot_tf.resize(scratch.slot_tf.size() + nq, 0);
  }
  scratch.slot_tf[static_cast<std::size_t>(it->second) * nq + i] += tf;
}

/// Empties the slot matrix for the next phase (capacity kept).
inline void ClearSlotMatrix(core::QueryScratch& scratch) {
  scratch.slot_of.clear();
  scratch.slot_tf.clear();
  scratch.slot_streams.clear();
}

/// Phase 1: score every live-table stream touching a query term (the
/// table is term-keyed, so only matching streams are visited). Their
/// totals are exact regardless of how many components hold their
/// postings; afterwards, any unscored candidate is single-component. The
/// enumeration hands over each matching stream's total, so the tfs come
/// straight from it into the slot matrix. Returns the number of
/// candidates scored here (explain's live_table_candidates).
template <typename ExactPolicy>
std::size_t RunLiveTablePhase(const QueryPlan& plan,
                              const core::Scorer& scorer,
                              const index::LiveTermTable& live_terms,
                              core::QueryScratch& scratch,
                              ExactPolicy& exact) {
  const std::size_t nq = plan.num_terms();
  core::StampedStreamSet& scored = scratch.exact_scored;
  for (std::size_t i = 0; i < nq; ++i) {
    live_terms.ForEachStreamOfTerm(
        plan.terms[i], [&](StreamId stream, TermFreq total) {
          AddToSlotMatrix(scratch, nq, stream, i, total);
        });
  }
  std::size_t table_candidates = 0;
  for (std::size_t slot = 0; slot < scratch.slot_streams.size(); ++slot) {
    const StreamId stream = scratch.slot_streams[slot];
    // RemoveStream unregisters a stream before erasing its counters, so a
    // stream still registered after the reads was read whole. One being
    // evicted meanwhile may have been read torn; its postings already sit
    // in one published sealed component, so the sealed walk scores it.
    if (!live_terms.ContainsStream(stream)) continue;
    const TermFreq* stream_tfs = scratch.slot_tf.data() + slot * nq;
    double tfidf_sum = 0.0;
    for (std::size_t i = 0; i < nq; ++i) {
      tfidf_sum += scorer.TermTfIdf(stream_tfs[i], plan.idfs[i]);
    }
    scored.Insert(stream);
    ++table_candidates;
    exact.Candidate(stream, tfidf_sum, stream_tfs,
                    core::ScoreBreakdown::Source::kLiveTable);
  }
  ClearSlotMatrix(scratch);
  return table_candidates;
}

/// Phase 2: full scan of I0 (it is small by construction). Accumulates
/// per-stream tf sums into the slot matrix, exact for streams whose
/// postings are L0-only. Postings of streams phase 1 scored are counted
/// as scanned but not accumulated: those streams already have their
/// exact totals. Returns the number of candidates scored here (explain's
/// l0_candidates).
template <typename ExactPolicy>
std::size_t RunL0Phase(const QueryPlan& plan, const core::Scorer& scorer,
                       lsm::LsmTree& tree, core::QueryScratch& scratch,
                       ExactPolicy& exact, core::QueryStats& qs) {
  const std::size_t nq = plan.num_terms();
  core::StampedStreamSet& scored = scratch.exact_scored;
  for (std::size_t i = 0; i < nq; ++i) {
    tree.WithL0Term(plan.terms[i], [&](const index::TermPostings* postings) {
      if (postings == nullptr) return;
      qs.postings_scanned += postings->size();
      for (const index::Posting& p : postings->entries()) {
        if (scored.Contains(p.stream)) continue;
        AddToSlotMatrix(scratch, nq, p.stream, i, p.tf);
      }
    });
  }
  const std::size_t l0_candidates = scratch.slot_streams.size();
  for (std::size_t slot = 0; slot < l0_candidates; ++slot) {
    const StreamId stream = scratch.slot_streams[slot];
    const TermFreq* stream_tfs = scratch.slot_tf.data() + slot * nq;
    double tfidf_sum = 0.0;
    for (std::size_t i = 0; i < nq; ++i) {
      tfidf_sum += scorer.TermTfIdf(stream_tfs[i], plan.idfs[i]);
    }
    scored.Insert(stream);
    exact.Candidate(stream, tfidf_sum, stream_tfs,
                    core::ScoreBreakdown::Source::kL0Scan);
  }
  ClearSlotMatrix(scratch);
  return l0_candidates;
}

/// Phase 3: walk the selected components best bound first (Algorithm 3's
/// sc-top pruning, strengthened by processing in bound order), cut each
/// traversal when the per-round threshold falls below the sink's k-th
/// score.
template <typename Policy>
void RunSealedSequential(const QueryPlan& plan, const core::Scorer& scorer,
                         const std::vector<SelectedComponent>& comps,
                         Policy& policy, TopKSink& sink,
                         core::QueryStats& qs,
                         core::QueryExplanation* explain) {
  std::vector<index::Posting>& round = policy.round();
  std::vector<std::uint32_t>& round_terms = policy.round_terms();
  for (std::size_t c = 0; c < comps.size(); ++c) {
    if (plan.use_bound &&
        Prunes(sink.Threshold(), comps[c].bound, plan.prune_if_equal)) {
      qs.components_pruned += comps.size() - c;
      qs.terminated_early = true;
      break;
    }
    ++qs.components_visited;
    if (explain != nullptr) {
      explain->components[comps[c].explain_slot].visited = true;
    }
    Traversal traversal(*comps[c].component, plan.terms);
    policy.BeginComponent(comps[c]);
    while (traversal.NextRound(round, round_terms)) {
      for (std::size_t ri = 0; ri < round.size(); ++ri) {
        const index::Posting& p = round[ri];
        if (!policy.Admit(p.stream)) continue;
        policy.Candidate(traversal, p, round_terms[ri], qs);
      }
      qs.postings_scanned += round.size();
      round.clear();
      round_terms.clear();
      if (plan.use_bound) {
        const double threshold = sink.Threshold();
        // A -infinity threshold (sink not yet full) can never cut; skip
        // the exp()-heavy Threshold() computation entirely.
        if (std::isfinite(threshold)) {
          const double tau =
              traversal.Threshold(scorer, plan.idfs, plan.now, plan.max_pop,
                                  comps[c].frsh_ceiling, plan.bound_mode);
          if (Prunes(threshold, tau, plan.prune_if_equal)) {
            qs.terminated_early = true;
            if (explain != nullptr) {
              explain->components[comps[c].explain_slot].terminated_early =
                  true;
            }
            break;
          }
        }
      }
    }
    if (explain != nullptr) {
      explain->components[comps[c].explain_slot].postings_yielded =
          traversal.postings_yielded();
    }
  }
}

}  // namespace rtsi::exec

#endif  // RTSI_EXEC_PIPELINE_H_
