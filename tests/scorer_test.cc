#include "core/scorer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <vector>

#include "common/rng.h"
#include "core/doc_freq.h"
#include "exec/sink.h"

namespace rtsi::core {
namespace {

Scorer DefaultScorer() { return Scorer(ScoreWeights{}, 6.0 * 3600.0); }

TEST(ScorerTest, PopScoreNormalized) {
  const Scorer scorer = DefaultScorer();
  EXPECT_DOUBLE_EQ(scorer.PopScore(0, 100), 0.0);
  EXPECT_DOUBLE_EQ(scorer.PopScore(100, 100), 1.0);
  const double mid = scorer.PopScore(10, 100);
  EXPECT_GT(mid, 0.0);
  EXPECT_LT(mid, 1.0);
}

TEST(ScorerTest, PopScoreZeroMaxIsZero) {
  const Scorer scorer = DefaultScorer();
  EXPECT_DOUBLE_EQ(scorer.PopScore(0, 0), 0.0);
}

TEST(ScorerTest, PopScoreMonotoneInCount) {
  const Scorer scorer = DefaultScorer();
  double prev = -1.0;
  for (std::uint64_t count : {0ULL, 1ULL, 10ULL, 100ULL, 1000ULL}) {
    const double s = scorer.PopScore(count, 1000);
    EXPECT_GT(s, prev);
    prev = s;
  }
}

TEST(ScorerTest, FreshnessDecaysWithAge) {
  const Scorer scorer = DefaultScorer();
  const Timestamp now = 100 * kMicrosPerHour;
  const double fresh = scorer.FrshScore(now, now);
  const double hour_old = scorer.FrshScore(now - kMicrosPerHour, now);
  const double day_old = scorer.FrshScore(now - 24 * kMicrosPerHour, now);
  EXPECT_DOUBLE_EQ(fresh, 1.0);
  EXPECT_GT(fresh, hour_old);
  EXPECT_GT(hour_old, day_old);
  EXPECT_GT(day_old, 0.0);
}

TEST(ScorerTest, FutureTimestampClampsToOne) {
  const Scorer scorer = DefaultScorer();
  EXPECT_DOUBLE_EQ(scorer.FrshScore(200, 100), 1.0);
}

TEST(ScorerTest, TfIdfZeroForAbsentTerm) {
  const Scorer scorer = DefaultScorer();
  EXPECT_DOUBLE_EQ(scorer.TermTfIdf(0, 3.0), 0.0);
  EXPECT_GT(scorer.TermTfIdf(1, 3.0), 0.0);
}

TEST(ScorerTest, TfIdfSublinearInTf) {
  const Scorer scorer = DefaultScorer();
  const double tf1 = scorer.TermTfIdf(1, 1.0);
  const double tf10 = scorer.TermTfIdf(10, 1.0);
  const double tf100 = scorer.TermTfIdf(100, 1.0);
  EXPECT_LT(tf10 - tf1, 10.0 * tf1);
  EXPECT_LT(tf100 - tf10, tf10 - tf1 + 1e-9 + (tf10 - tf1));
}

TEST(ScorerTest, RelScoreBoundedAndMonotone) {
  const Scorer scorer = DefaultScorer();
  double prev = -1.0;
  for (double sum : {0.0, 0.5, 1.0, 5.0, 100.0}) {
    const double rel = scorer.RelScore(sum, 2);
    EXPECT_GE(rel, 0.0);
    EXPECT_LT(rel, 1.0);
    EXPECT_GT(rel, prev - 1e-12);
    prev = rel;
  }
}

TEST(ScorerTest, CombineAppliesWeights) {
  ScoreWeights weights;
  weights.pop = 1.0;
  weights.rel = 0.0;
  weights.frsh = 0.0;
  const Scorer scorer(weights, 3600.0);
  EXPECT_DOUBLE_EQ(scorer.Combine(0.7, 0.9, 0.1), 0.7);
}

// The Equation-1 pieces are inline and TermTfIdf reads 1 + ln tf from a
// table for small tf; results must stay bit-identical to the plain
// expressions, or pruned and full-walk scores could drift apart.
bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(ScorerTest, TermTfIdfBitIdenticalToLogExpression) {
  const Scorer scorer = DefaultScorer();
  EXPECT_TRUE(SameBits(scorer.TermTfIdf(0, 2.5), 0.0));
  for (const double idf : {0.1, 1.0, 2.5, 7.25, 13.9, 1e-3}) {
    // Runs past the table's edge into the computed range.
    for (TermFreq tf = 1; tf <= 4096; ++tf) {
      const double want = (1.0 + std::log(static_cast<double>(tf))) * idf;
      ASSERT_TRUE(SameBits(scorer.TermTfIdf(tf, idf), want))
          << "tf " << tf << " idf " << idf;
    }
  }
}

TEST(ScorerTest, InlinePiecesBitIdenticalToReference) {
  ScoreWeights weights;
  weights.pop = 0.35;
  weights.rel = 0.45;
  weights.frsh = 0.2;
  const double tau = 5400.0;
  const Scorer scorer(weights, tau);
  for (const std::uint64_t max_pop : {0ULL, 1ULL, 77ULL, 100000ULL}) {
    for (const std::uint64_t count : {0ULL, 1ULL, 13ULL, 77ULL, 99999ULL}) {
      const double want =
          max_pop == 0 ? 0.0
                       : std::log1p(static_cast<double>(count)) /
                             std::log1p(static_cast<double>(max_pop));
      EXPECT_TRUE(SameBits(scorer.PopScore(count, max_pop), want))
          << count << "/" << max_pop;
    }
  }
  const Timestamp now = 500 * kMicrosPerHour;
  for (const Timestamp age : {Timestamp{0}, Timestamp{1}, kMicrosPerSecond,
                              7 * kMicrosPerHour + 3, 400 * kMicrosPerHour,
                              -kMicrosPerMinute}) {
    const Timestamp frsh = now - age;
    const double age_seconds =
        std::max<double>(0.0, static_cast<double>(now - frsh)) /
        static_cast<double>(kMicrosPerSecond);
    EXPECT_TRUE(SameBits(scorer.FrshScore(frsh, now),
                         std::exp(-age_seconds / tau)))
        << "age " << age;
  }
  for (const int n : {0, 1, 2, 7}) {
    for (const double sum : {-1.0, 0.0, 0.3, 2.75, 41.0}) {
      double want = 0.0;
      if (n > 0 && sum > 0.0) {
        const double mean = sum / n;
        want = mean / (1.0 + mean);
      }
      EXPECT_TRUE(SameBits(scorer.RelScore(sum, n), want))
          << sum << "/" << n;
    }
  }
  for (const double pop : {0.0, 0.31, 1.0}) {
    for (const double rel : {0.0, 0.62}) {
      for (const double frsh : {0.05, 0.9}) {
        const double want =
            weights.pop * pop + weights.rel * rel + weights.frsh * frsh;
        EXPECT_TRUE(SameBits(scorer.Combine(pop, rel, frsh), want));
      }
    }
  }
}

TEST(DocFreqTest, IdfOrdersRareAboveCommon) {
  DocumentFrequencyTable df;
  for (int i = 0; i < 1000; ++i) {
    df.AddDocument();
    df.AddOccurrence(1);  // Term 1 in every doc.
  }
  df.AddOccurrence(2);  // Term 2 in one doc.
  EXPECT_GT(df.Idf(2), df.Idf(1));
  EXPECT_GT(df.Idf(1), 0.0);
  EXPECT_EQ(df.DocumentFrequency(1), 1000u);
  EXPECT_EQ(df.num_documents(), 1000u);
}

TEST(DocFreqTest, UnknownTermHasHighestIdf) {
  DocumentFrequencyTable df;
  for (int i = 0; i < 100; ++i) df.AddDocument();
  df.AddOccurrence(1);
  EXPECT_GE(df.Idf(999), df.Idf(1));
}

// Brute-force top-k: the best score per stream, ranked, cut to k.
std::vector<ScoredStream> ReferenceTopK(
    const std::map<StreamId, double>& best, std::size_t k) {
  std::vector<ScoredStream> ranked;
  for (const auto& [stream, score] : best) ranked.push_back({stream, score});
  std::sort(ranked.begin(), ranked.end(), exec::RanksAbove);
  if (ranked.size() > k) ranked.resize(k);
  return ranked;
}

bool SameResults(const std::vector<ScoredStream>& a,
                 const std::vector<ScoredStream>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(),
                    [](const ScoredStream& x, const ScoredStream& y) {
                      return x.stream == y.stream && x.score == y.score;
                    });
}

// Offers `offers` to a TopKSink(k) and checks it against the brute-force
// reference after every offer: Threshold() never decreases, is -infinity
// until k distinct streams were offered and then the reference k-th
// score; SortedResults() equals the reference at the end, which it
// returns. k <= 0 is checked as k = 1.
std::vector<ScoredStream> CheckSinkAgainstReference(
    const std::vector<ScoredStream>& offers, int k) {
  const std::size_t kk = k < 1 ? 1 : static_cast<std::size_t>(k);
  exec::TopKSink sink(k);
  std::map<StreamId, double> best;
  double last_threshold = -std::numeric_limits<double>::infinity();
  for (std::size_t n = 0; n < offers.size(); ++n) {
    const ScoredStream& o = offers[n];
    sink.Offer(o.stream, o.score);
    const auto [it, inserted] = best.try_emplace(o.stream, o.score);
    if (!inserted && exec::RanksAbove(o, {o.stream, it->second})) {
      it->second = o.score;
    }
    const double threshold = sink.Threshold();
    EXPECT_GE(threshold, last_threshold) << "k=" << k << " offer " << n;
    last_threshold = threshold;
    if (best.size() < kk) {
      EXPECT_EQ(threshold, -std::numeric_limits<double>::infinity())
          << "k=" << k << " offer " << n;
    } else {
      EXPECT_EQ(threshold, ReferenceTopK(best, kk).back().score)
          << "k=" << k << " offer " << n;
    }
  }
  const std::vector<ScoredStream> results = sink.SortedResults();
  EXPECT_TRUE(SameResults(results, ReferenceTopK(best, kk))) << "k=" << k;
  return results;
}

TEST(TopKSinkTest, MatchesBruteForceReference) {
  // Fixed inputs.
  std::vector<ScoredStream> rising;
  for (StreamId i = 0; i < 10; ++i) {
    rising.push_back({i, static_cast<double>(i)});
  }
  auto results = CheckSinkAgainstReference(rising, 3);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].stream, 9u);
  EXPECT_EQ(results[1].stream, 8u);
  EXPECT_EQ(results[2].stream, 7u);
  EXPECT_EQ(CheckSinkAgainstReference({{1, 10.0}}, 5).size(), 1u);
  results = CheckSinkAgainstReference({{1, 10.0}, {2, 20.0}, {3, 5.0}}, 2);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].stream, 2u);
  EXPECT_EQ(results[1].stream, 1u);
  EXPECT_EQ(CheckSinkAgainstReference({{1, 1.0}, {2, 2.0}}, 0).size(), 1u);

  // Seeded random sequences: few distinct streams so they repeat, scores
  // on a coarse grid so exact ties are common, and pools both smaller and
  // larger than k.
  const int ks[] = {1, 2, 10, 100};
  Rng rng(2024);
  for (int seq = 0; seq < 2000; ++seq) {
    const int k = ks[seq % 4];
    const std::uint64_t pool = 1 + rng.NextUint64(150);
    std::vector<ScoredStream> offers(rng.NextUint64(300));
    for (ScoredStream& o : offers) {
      o.stream = rng.NextUint64(pool);
      o.score = static_cast<double>(rng.NextUint64(24)) * 0.25 - 1.0;
    }
    results = CheckSinkAgainstReference(offers, k);
    if (k == 1) {
      // k <= 0 behaves as k = 1.
      EXPECT_TRUE(SameResults(CheckSinkAgainstReference(offers, 0), results));
      EXPECT_TRUE(SameResults(CheckSinkAgainstReference(offers, -3), results));
    }
    if (HasFailure()) {
      ADD_FAILURE() << "sequence " << seq;
      return;
    }
  }
}

}  // namespace
}  // namespace rtsi::core
