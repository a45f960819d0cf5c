#include "exec/traversal.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>
#include <string>

#include "common/rng.h"
#include "lsm/lsm_tree.h"

namespace rtsi::exec {

using core::BoundMode;
using core::Scorer;
using core::ScoreWeights;
namespace {

using index::InvertedIndex;
using index::Posting;

Posting P(StreamId s, float pop, Timestamp frsh, TermFreq tf) {
  return Posting{s, pop, frsh, tf};
}

Scorer DefaultScorer() { return Scorer(ScoreWeights{}, 3600.0); }

TEST(ComponentBoundTest, ZeroWhenNoTermPresent) {
  const Scorer scorer = DefaultScorer();
  std::vector<PerTermBound> terms(2);  // present = false.
  EXPECT_DOUBLE_EQ(
      ComponentBound(scorer, terms, 1000, 100, 0, BoundMode::kSnapshot),
      0.0);
}

TEST(ComponentBoundTest, DominatesAnyContainedPosting) {
  const Scorer scorer = DefaultScorer();
  InvertedIndex idx(1);
  idx.Add(1, P(10, 50.0f, 500, 3));
  idx.Add(1, P(11, 80.0f, 900, 7));
  idx.SealAll();

  std::vector<PerTermBound> terms(1);
  terms[0].bounds = idx.Bounds(1);
  terms[0].idf = 2.0;
  const Timestamp now = 1000;
  const std::uint64_t max_pop = 100;
  const double bound =
      ComponentBound(scorer, terms, now, max_pop, 0, BoundMode::kSnapshot);

  // Score each posting as if its snapshot were its true info.
  for (const Posting& p : idx.GetPlain(1)->entries()) {
    const double score = scorer.Combine(
        scorer.PopScore(static_cast<std::uint64_t>(p.pop), max_pop),
        scorer.RelScore(scorer.TermTfIdf(p.tf, 2.0), 1),
        scorer.FrshScore(p.frsh, now));
    EXPECT_LE(score, bound + 1e-12);
  }
}

TEST(ComponentBoundTest, GlobalPopModeIsLooser) {
  const Scorer scorer = DefaultScorer();
  InvertedIndex idx(1);
  idx.Add(1, P(10, 10.0f, 500, 3));
  idx.SealAll();
  std::vector<PerTermBound> terms(1);
  terms[0].bounds = idx.Bounds(1);
  terms[0].idf = 1.0;
  const double snapshot =
      ComponentBound(scorer, terms, 1000, 1000, 0, BoundMode::kSnapshot);
  const double global =
      ComponentBound(scorer, terms, 1000, 1000, 1000, BoundMode::kGlobalPop);
  EXPECT_GE(global, snapshot);
}

TEST(ComponentBoundTest, GlobalModeCeilsLiveFreshness) {
  const Scorer scorer = DefaultScorer();
  InvertedIndex idx(1);
  idx.Add(1, P(10, 10.0f, 500, 3));  // Sealed with stale frsh = 500.
  idx.SealAll();
  std::vector<PerTermBound> terms(1);
  terms[0].bounds = idx.Bounds(1);
  terms[0].idf = 1.0;
  const Timestamp now = 10000;
  const std::uint64_t max_pop = 1000;
  // The stream posted again after sealing: its live freshness is `now`,
  // far ahead of the component's stored maximum. The global-ceiling bound
  // must still dominate the live score; the snapshot bound does not.
  const double live_score = scorer.Combine(
      scorer.PopScore(10, max_pop), scorer.RelScore(scorer.TermTfIdf(3, 1.0), 1),
      scorer.FrshScore(now, now));
  const double global = ComponentBound(scorer, terms, now, max_pop, now,
                                       BoundMode::kGlobalPop);
  EXPECT_GE(global, live_score);
}

TEST(ComponentBoundTest, TfCorrectionRaisesBound) {
  const Scorer scorer = DefaultScorer();
  InvertedIndex idx(1);
  idx.Add(1, P(10, 10.0f, 500, 3));
  idx.SealAll();
  std::vector<PerTermBound> terms(1);
  terms[0].bounds = idx.Bounds(1);
  terms[0].idf = 1.0;
  const double base =
      ComponentBound(scorer, terms, 1000, 100, 0, BoundMode::kSnapshot);
  terms[0].tf_correction = 50;
  const double corrected =
      ComponentBound(scorer, terms, 1000, 100, 0, BoundMode::kSnapshot);
  EXPECT_GT(corrected, base);
}

TEST(TraversalTest, YieldsEveryStreamAtLeastOnce) {
  InvertedIndex idx(1);
  for (int i = 0; i < 20; ++i) {
    idx.Add(1, P(i, static_cast<float>(i * 7 % 20), 100 + i, 1 + i % 5));
  }
  idx.SealAll();

  Traversal traversal(idx, {1});
  std::set<StreamId> seen;
  std::vector<Posting> round;
  while (traversal.NextRound(round)) {
    for (const Posting& p : round) seen.insert(p.stream);
    round.clear();
  }
  EXPECT_EQ(seen.size(), 20u);
}

TEST(TraversalTest, AbsentTermYieldsNothing) {
  InvertedIndex idx(1);
  idx.Add(1, P(1, 1.0f, 1, 1));
  idx.SealAll();
  Traversal traversal(idx, {99});
  std::vector<Posting> round;
  EXPECT_FALSE(traversal.NextRound(round));
  EXPECT_TRUE(round.empty());
}

TEST(TraversalTest, ThresholdDecreasesMonotonically) {
  const Scorer scorer = DefaultScorer();
  InvertedIndex idx(1);
  for (int i = 0; i < 30; ++i) {
    idx.Add(1, P(i, static_cast<float>(i), 100 + i,
                 1 + static_cast<TermFreq>(i)));
  }
  idx.SealAll();

  Traversal traversal(idx, {1});
  const std::vector<double> idfs = {1.0};
  std::vector<Posting> round;
  double prev = 1e300;
  while (traversal.NextRound(round)) {
    round.clear();
    const double tau =
        traversal.Threshold(scorer, idfs, 200, 100, 0, BoundMode::kSnapshot);
    EXPECT_LE(tau, prev + 1e-12);
    prev = tau;
  }
}

TEST(TraversalTest, ThresholdBoundsUnseenPostings) {
  const Scorer scorer = DefaultScorer();
  InvertedIndex idx(1);
  for (int i = 0; i < 40; ++i) {
    idx.Add(1, P(i, static_cast<float>((i * 13) % 37), 100 + i,
                 1 + static_cast<TermFreq>((i * 7) % 11)));
  }
  idx.SealAll();

  const Timestamp now = 200;
  const std::uint64_t max_pop = 40;
  const std::vector<double> idfs = {1.5};

  Traversal traversal(idx, {1});
  std::set<StreamId> seen;
  std::vector<Posting> round;
  while (traversal.NextRound(round)) {
    for (const Posting& p : round) seen.insert(p.stream);
    round.clear();
    const double tau =
        traversal.Threshold(scorer, idfs, now, max_pop, 0,
                            BoundMode::kSnapshot);
    // Every unseen posting's (snapshot) score must be below tau.
    for (const Posting& p : idx.GetPlain(1)->entries()) {
      if (seen.count(p.stream) > 0) continue;
      const double score = scorer.Combine(
          scorer.PopScore(static_cast<std::uint64_t>(p.pop), max_pop),
          scorer.RelScore(scorer.TermTfIdf(p.tf, idfs[0]), 1),
          scorer.FrshScore(p.frsh, now));
      ASSERT_LE(score, tau + 1e-12);
    }
  }
}

TEST(TraversalTest, FindAggregates) {
  InvertedIndex idx(1);
  idx.Add(1, P(5, 1.0f, 10, 2));
  idx.Add(2, P(5, 1.0f, 10, 9));
  idx.SealAll();
  Traversal traversal(idx, {1, 2});
  Posting out;
  ASSERT_TRUE(traversal.Find(0, 5, out));
  EXPECT_EQ(out.tf, 2u);
  ASSERT_TRUE(traversal.Find(1, 5, out));
  EXPECT_EQ(out.tf, 9u);
  EXPECT_FALSE(traversal.Find(0, 6, out));
}

TEST(TraversalTest, CountsPostingsYielded) {
  InvertedIndex idx(1);
  for (int i = 0; i < 4; ++i) idx.Add(1, P(i, 0, 10 + i, 1));
  idx.SealAll();
  Traversal traversal(idx, {1});
  std::vector<Posting> round;
  while (traversal.NextRound(round)) round.clear();
  // Round-based sorted access yields 3 postings per round until a list is
  // drained; with 4 postings that is at least 4 and at most 12.
  EXPECT_GE(traversal.postings_yielded(), 4u);
  EXPECT_LE(traversal.postings_yielded(), 12u);
}

// Every posting a traversal yields is its stream's folded aggregate in
// that list, bit for bit what Find() returns for the yielding term: a
// sealed list holds one posting per stream. The sealed candidate scorer
// takes the discovering term's tf from the yielded posting instead of
// looking it up again, so it relies on exactly this.
void ExpectYieldedEqualsFind(const index::InvertedIndex& component,
                             const std::vector<TermId>& terms,
                             const std::string& context) {
  Traversal traversal(component, terms);
  std::vector<Posting> round;
  std::vector<std::uint32_t> term_of;
  std::size_t checked = 0;
  while (traversal.NextRound(round, term_of)) {
    ASSERT_EQ(round.size(), term_of.size()) << context;
    for (std::size_t r = 0; r < round.size(); ++r) {
      const Posting& yielded = round[r];
      Posting found;
      ASSERT_TRUE(traversal.Find(term_of[r], yielded.stream, found))
          << context << " stream " << yielded.stream;
      EXPECT_EQ(found.stream, yielded.stream) << context;
      EXPECT_EQ(std::bit_cast<std::uint32_t>(found.pop),
                std::bit_cast<std::uint32_t>(yielded.pop))
          << context << " stream " << yielded.stream;
      EXPECT_EQ(found.frsh, yielded.frsh) << context;
      EXPECT_EQ(found.tf, yielded.tf) << context;
      ++checked;
    }
    round.clear();
    term_of.clear();
  }
  EXPECT_GT(checked, 0u) << context;
}

TEST(TraversalTest, YieldedPostingIsTheStreamAggregate) {
  for (const bool compress : {false, true}) {
    const std::string context = compress ? "compressed" : "plain";
    // One component built directly, every stream posting each of its
    // terms several times (a live stream's windows inside one epoch).
    InvertedIndex idx(1);
    Rng rng(17);
    for (int window = 0; window < 6; ++window) {
      for (StreamId stream = 0; stream < 40; ++stream) {
        for (TermId term = 1; term <= 3; ++term) {
          if (rng.NextBool(0.3)) continue;
          idx.Add(term,
                  P(stream, static_cast<float>(rng.NextUint64(50)),
                    100 + window * 40 + static_cast<Timestamp>(stream),
                    1 + static_cast<TermFreq>(rng.NextUint64(5))));
        }
      }
    }
    idx.SealAll();
    if (compress) idx.CompressAll();
    ExpectYieldedEqualsFind(idx, {1, 2, 3, 99}, context + " direct");

    // Components the LSM tree froze and merged, from windows that repeat
    // streams within and across freezes; each cascade's output is checked.
    lsm::LsmTree::Config config;
    config.delta = 64;
    config.rho = 2.0;
    config.compress = compress;
    lsm::LsmTree tree(config);
    Timestamp t = 1000;
    int level2_checked = 0;
    for (int step = 0; step < 2000; ++step) {
      const auto stream = static_cast<StreamId>(rng.NextUint64(200));
      const auto term = static_cast<TermId>(1 + rng.NextUint64(4));
      tree.AddPosting(term, P(stream, static_cast<float>(rng.NextUint64(9)),
                              ++t, 1 + static_cast<TermFreq>(
                                           rng.NextUint64(3))));
      if (!tree.NeedsMerge()) continue;
      tree.MergeCascade(lsm::MergeHooks{});
      for (const auto& component : tree.PinView()->components) {
        ExpectYieldedEqualsFind(*component, {1, 2, 3, 4},
                                context + " step " + std::to_string(step) +
                                    " level " +
                                    std::to_string(component->level()));
        if (component->level() >= 2) ++level2_checked;
      }
    }
    EXPECT_GT(level2_checked, 0) << context;
  }
}

}  // namespace
}  // namespace rtsi::exec
