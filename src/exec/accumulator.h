// Accumulator: per-candidate score assembly for the pipeline.
//
// ComputeScore() is the pure Equation-1 fold (pop/rel/frsh from the
// stream table + a ready tf-idf sum); SealedScorer is the candidate
// policy for sealed components — admission screen, then the
// discovering-term-first ("ti-first") tf-idf accumulation; ExactScorer
// scores the exact-total phases. Both record per-candidate breakdowns
// into an optional BreakdownRecorder, which is how ExplainQuery explains
// the walk the query itself runs.
//
// Everything here is header-only so the per-posting and per-candidate work
// stays monomorphic; the sink is the concrete TopKSink.

#ifndef RTSI_EXEC_ACCUMULATOR_H_
#define RTSI_EXEC_ACCUMULATOR_H_

#include <unordered_map>
#include <vector>

#include "core/explain.h"
#include "core/query_scratch.h"
#include "core/scorer.h"
#include "core/search_index.h"
#include "exec/query_plan.h"
#include "exec/selector.h"
#include "exec/sink.h"
#include "exec/traversal.h"
#include "index/stream_info_table.h"

namespace rtsi::exec {

/// Slack absorbing the different floating-point summation order of the
/// admission screen's relevance bound vs the exact relevance (see
/// DESIGN.md §6f).
inline constexpr double kScreenSlack = 1e-9;

/// Decomposed Equation-1 score of one candidate.
struct PartScores {
  double pop = 0.0, rel = 0.0, frsh = 0.0, total = 0.0;
};

/// Pure Equation-1 scoring from the tf-idf sum; false when the stream is
/// deleted/unknown or rejected by the plan's filter. Safe to call from
/// any worker (sharded-mutex table reads, const scorer).
inline bool ComputeScore(const QueryPlan& plan, const core::Scorer& scorer,
                         const index::StreamInfoTable& streams,
                         StreamId stream, double tfidf_sum,
                         PartScores& out) {
  index::StreamInfo info;
  if (!streams.Get(stream, info)) return false;  // Deleted or unknown.
  if (plan.filter.live_only && !info.live) return false;
  if (info.frsh < plan.filter.min_frsh) return false;
  out.pop = scorer.PopScore(info.pop_count, plan.max_pop);
  out.rel = scorer.RelScore(tfidf_sum, static_cast<int>(plan.num_terms()));
  out.frsh = scorer.FrshScore(info.frsh, plan.now);
  out.total = scorer.Combine(out.pop, out.rel, out.frsh);
  return true;
}

/// Explain's per-candidate record. A stream scored in several components
/// keeps the breakdown of its best-ranked scoring under the sink's total
/// order, so the breakdown kept for a result is the one whose score the
/// result carries.
class BreakdownRecorder {
 public:
  explicit BreakdownRecorder(std::size_t num_terms) : nq_(num_terms) {}

  void Record(StreamId stream, const PartScores& parts, const TermFreq* tfs,
              core::ScoreBreakdown::Source source) {
    const auto it = best_.find(stream);
    if (it != best_.end() &&
        !RanksAbove({stream, parts.total}, {stream, it->second.total})) {
      return;
    }
    core::ScoreBreakdown& b = best_[stream];
    b.stream = stream;
    b.pop_score = parts.pop;
    b.rel_score = parts.rel;
    b.frsh_score = parts.frsh;
    b.total = parts.total;
    b.source = source;
    b.term_tfs.assign(tfs, tfs + nq_);
  }

  /// The recorded breakdown of `stream`; null if it was never scored.
  const core::ScoreBreakdown* Find(StreamId stream) const {
    const auto it = best_.find(stream);
    return it == best_.end() ? nullptr : &it->second;
  }

 private:
  std::size_t nq_;
  std::unordered_map<StreamId, core::ScoreBreakdown> best_;
};

/// Sealed-component candidate policy: filter, admission screen against
/// the sink's threshold, ti-first accumulation, offer. With a recorder it
/// also captures each scored candidate's per-term tfs and breakdown; a
/// screened candidate scores strictly below the k-th score, so it is
/// never a result and explain loses nothing by skipping it.
class SealedScorer {
 public:
  SealedScorer(const QueryPlan& plan, const core::Scorer& scorer,
               const index::StreamInfoTable& streams,
               core::QueryScratch& scratch, TopKSink& sink,
               BreakdownRecorder* recorder = nullptr)
      : plan_(&plan),
        scorer_(&scorer),
        streams_(&streams),
        scratch_(&scratch),
        sink_(&sink),
        recorder_(recorder),
        nq_(plan.num_terms()),
        num_terms_(static_cast<int>(plan.num_terms())) {}

  std::vector<index::Posting>& round() { return scratch_->round; }
  std::vector<std::uint32_t>& round_terms() { return scratch_->round_terms; }

  void BeginComponent(const SelectedComponent& sc) {
    scratch_->component_seen.Clear();
    screen_ = sc.screen;
    rel_total_ = sc.rel_total;
    other_tfidf_ = scratch_->screen_tfidf.data() + sc.order * nq_;
  }

  /// True the first time `stream` shows up in the current component,
  /// unless phase 1 or 2 already scored its exact total.
  bool Admit(StreamId stream) {
    return scratch_->component_seen.Insert(stream) &&
           !scratch_->exact_scored.Contains(stream);
  }

  void Candidate(const Traversal& traversal, const index::Posting& yielded,
                 std::size_t ti, core::QueryStats& qs) {
    const StreamId stream = yielded.stream;
    index::StreamInfo info;
    if (!streams_->Get(stream, info)) return;  // Deleted.
    if (plan_->filter.live_only && !info.live) return;
    if (info.frsh < plan_->filter.min_frsh) return;
    const double pop_score = scorer_->PopScore(info.pop_count, plan_->max_pop);
    const double frsh_score = scorer_->FrshScore(info.frsh, plan_->now);
    // The screen prunes against the sink's threshold, which only ever
    // rises; a screened candidate is strictly below a lower bound of the
    // final k-th score, so neither traversal order nor worker timing can
    // change the result set (same argument as the bound pruning).
    if (screen_ &&
        sink_->Threshold() >
            scorer_->Combine(pop_score, rel_total_, frsh_score) +
                kScreenSlack) {
      ++qs.candidates_screened;  // No term lookup was paid.
      return;
    }
    // The discovering term's tf first — the yielded posting is the
    // stream's folded aggregate in that list, so it costs no lookup —
    // then a tighter screen with it before paying for the other terms.
    double tfidf_sum = scorer_->TermTfIdf(yielded.tf, plan_->idfs[ti]);
    if (screen_ && nq_ > 1 &&
        sink_->Threshold() >
            scorer_->Combine(
                pop_score,
                scorer_->RelScore(tfidf_sum + other_tfidf_[ti], num_terms_),
                frsh_score) +
                kScreenSlack) {
      ++qs.candidates_screened;
      return;
    }
    for (std::size_t i = 0; i < nq_; ++i) {
      if (i == ti) continue;
      index::Posting found;
      if (traversal.Find(i, stream, found)) {
        tfidf_sum += scorer_->TermTfIdf(found.tf, plan_->idfs[i]);
      }
    }
    const double rel_score = scorer_->RelScore(tfidf_sum, num_terms_);
    const double total = scorer_->Combine(pop_score, rel_score, frsh_score);
    sink_->Offer(stream, total);
    ++qs.candidates_scored;
    if (recorder_ != nullptr) {
      Record(traversal, stream, {pop_score, rel_score, frsh_score, total});
    }
  }

 private:
  // Explain only: the candidate's per-term tfs are looked up again here,
  // so the scoring loop above carries no recording work.
  void Record(const Traversal& traversal, StreamId stream,
              const PartScores& parts) {
    std::vector<TermFreq>& tfs = scratch_->tfs;
    tfs.assign(nq_, 0);
    for (std::size_t i = 0; i < nq_; ++i) {
      index::Posting found;
      if (traversal.Find(i, stream, found)) tfs[i] = found.tf;
    }
    recorder_->Record(stream, parts, tfs.data(),
                      core::ScoreBreakdown::Source::kSealedComponent);
  }

  const QueryPlan* plan_;
  const core::Scorer* scorer_;
  const index::StreamInfoTable* streams_;
  core::QueryScratch* scratch_;
  TopKSink* sink_;
  BreakdownRecorder* recorder_;
  std::size_t nq_;
  int num_terms_;
  // Per-component state (BeginComponent).
  bool screen_ = false;
  double rel_total_ = 0.0;
  const double* other_tfidf_ = nullptr;
};

/// Exact-phase candidate policy (live table + L0): score from the already
/// exact tf-idf sum and offer; with a recorder, also record the
/// breakdown.
class ExactScorer {
 public:
  ExactScorer(const QueryPlan& plan, const core::Scorer& scorer,
              const index::StreamInfoTable& streams, TopKSink& sink,
              core::QueryStats& qs, BreakdownRecorder* recorder = nullptr)
      : plan_(&plan),
        scorer_(&scorer),
        streams_(&streams),
        sink_(&sink),
        qs_(&qs),
        recorder_(recorder) {}

  void Candidate(StreamId stream, double tfidf_sum, const TermFreq* tfs,
                 core::ScoreBreakdown::Source source) {
    PartScores parts;
    if (!ComputeScore(*plan_, *scorer_, *streams_, stream, tfidf_sum,
                      parts)) {
      return;
    }
    sink_->Offer(stream, parts.total);
    ++qs_->candidates_scored;
    if (recorder_ != nullptr) recorder_->Record(stream, parts, tfs, source);
  }

 private:
  const QueryPlan* plan_;
  const core::Scorer* scorer_;
  const index::StreamInfoTable* streams_;
  TopKSink* sink_;
  core::QueryStats* qs_;
  BreakdownRecorder* recorder_;
};

}  // namespace rtsi::exec

#endif  // RTSI_EXEC_ACCUMULATOR_H_
