// Brute-force oracle comparison for the extended-LSII baseline on full
// multi-window live workloads. With the global-pop bound mode LSII's
// pruning is provably safe (its per-term tf correction covers streams
// spanning components), so its top-k must be exact — evidence that the
// baseline is implemented faithfully, not handicapped.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "baseline/lsii_index.h"
#include "common/rng.h"
#include "core/scorer.h"

namespace rtsi::baseline {
namespace {

using core::RtsiConfig;
using core::ScoredStream;
using core::TermCount;

class LsiiOracle {
 public:
  void Insert(StreamId stream, Timestamp now,
              const std::vector<TermCount>& terms) {
    auto& s = streams_[stream];
    s.frsh = std::max(s.frsh, now);
    for (const auto& tc : terms) s.tf[tc.term] += tc.tf;
  }
  void UpdatePop(StreamId stream, std::uint64_t delta) {
    streams_[stream].pop += delta;
  }
  void Delete(StreamId stream) { streams_[stream].deleted = true; }

  std::vector<ScoredStream> TopK(const LsiiIndex& index,
                                 const core::Scorer& scorer,
                                 const std::vector<TermId>& q, int k,
                                 Timestamp now,
                                 const core::DocumentFrequencyTable& df)
      const {
    const std::uint64_t max_pop = index.big_table().max_pop_count();
    std::vector<ScoredStream> all;
    for (const auto& [id, s] : streams_) {
      if (s.deleted) continue;
      double tfidf = 0.0;
      bool relevant = false;
      for (const TermId term : q) {
        auto it = s.tf.find(term);
        if (it != s.tf.end()) {
          relevant = true;
          tfidf += scorer.TermTfIdf(it->second, df.Idf(term));
        }
      }
      if (!relevant) continue;
      all.push_back(
          {id, scorer.Combine(scorer.PopScore(s.pop, max_pop),
                              scorer.RelScore(tfidf,
                                              static_cast<int>(q.size())),
                              scorer.FrshScore(s.frsh, now))});
    }
    std::sort(all.begin(), all.end(),
              [](const ScoredStream& a, const ScoredStream& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.stream < b.stream;
              });
    if (all.size() > static_cast<std::size_t>(k)) all.resize(k);
    return all;
  }

 private:
  struct StreamState {
    std::uint64_t pop = 0;
    Timestamp frsh = 0;
    std::map<TermId, TermFreq> tf;
    bool deleted = false;
  };
  std::map<StreamId, StreamState> streams_;
};

class LsiiOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(LsiiOracleTest, TopKMatchesBruteForce) {
  RtsiConfig config;
  config.lsm.delta = 150;
  config.bound_mode = core::BoundMode::kGlobalPop;
  LsiiIndex index(config);
  const core::Scorer scorer(config.weights, config.freshness_tau_seconds);
  LsiiOracle oracle;
  // Mirror of LSII's internal df accounting for idf parity.
  core::DocumentFrequencyTable df;
  std::set<StreamId> known_streams;
  std::set<std::pair<StreamId, TermId>> known_pairs;

  Rng rng(GetParam() * 71);
  Timestamp t = 1000;
  constexpr int kNumStreams = 50;
  constexpr int kVocab = 35;
  std::vector<int> windows_left(kNumStreams);
  for (auto& w : windows_left) w = 1 + static_cast<int>(rng.NextUint64(5));

  for (int step = 0; step < 350; ++step) {
    t += 30 * kMicrosPerSecond;
    const auto stream = static_cast<StreamId>(rng.NextUint64(kNumStreams));
    const double action = rng.NextDouble();
    if (action < 0.65) {
      if (windows_left[stream] <= 0) continue;
      --windows_left[stream];
      std::vector<TermCount> terms;
      std::set<TermId> used;
      for (int i = 0; i < 5; ++i) {
        const auto term = static_cast<TermId>(rng.NextUint64(kVocab));
        if (used.insert(term).second) {
          terms.push_back(
              {term, 1 + static_cast<TermFreq>(rng.NextUint64(4))});
        }
      }
      const bool live = windows_left[stream] > 0;
      index.InsertWindow(stream, t, terms, live);
      if (!live) index.FinishStream(stream);
      oracle.Insert(stream, t, terms);
      if (known_streams.insert(stream).second) df.AddDocument();
      for (const auto& tc : terms) {
        if (known_pairs.insert({stream, tc.term}).second) {
          df.AddOccurrence(tc.term);
        }
      }
    } else if (action < 0.80) {
      const std::uint64_t delta = 1 + rng.NextUint64(60);
      index.UpdatePopularity(stream, delta);
      oracle.UpdatePop(stream, delta);
    } else if (action < 0.84) {
      index.DeleteStream(stream);
      oracle.Delete(stream);
      windows_left[stream] = 0;
    } else {
      std::vector<TermId> q = {static_cast<TermId>(rng.NextUint64(kVocab))};
      if (rng.NextBool(0.6)) {
        q.push_back(static_cast<TermId>(rng.NextUint64(kVocab)));
      }
      const int k = 1 + static_cast<int>(rng.NextUint64(8));
      const auto got = index.Query(q, k, t);
      const auto expected = oracle.TopK(index, scorer, q, k, t, df);
      ASSERT_EQ(got.size(), expected.size()) << "step " << step;
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_NEAR(got[i].score, expected[i].score, 1e-9)
            << "step " << step << " rank " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LsiiOracleTest, ::testing::Range(1, 6));

}  // namespace
}  // namespace rtsi::baseline
