// RTSI end-to-end behaviour: Algorithms 1-3, updates, lazy deletion, the
// consolidation invariant, and exact top-k agreement with a brute-force
// oracle under randomized live workloads.

#include "core/rtsi_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>

#include "common/rng.h"

namespace rtsi::core {
namespace {

RtsiConfig SmallConfig() {
  RtsiConfig config;
  config.lsm.delta = 200;
  config.lsm.rho = 2.0;
  return config;
}

std::vector<TermCount> Terms(
    std::initializer_list<std::pair<TermId, TermFreq>> list) {
  std::vector<TermCount> out;
  for (const auto& [term, tf] : list) out.push_back({term, tf});
  return out;
}

// Ground-truth mirror of the index content, scored with the same formula.
class Oracle {
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

  std::vector<ScoredStream> TopK(const RtsiIndex& index,
                                 const std::vector<TermId>& q, int k,
                                 Timestamp now) const {
    const Scorer scorer(index.config().weights,
                        index.config().freshness_tau_seconds);
    const std::uint64_t max_pop = index.stream_table().max_pop_count();
    std::vector<ScoredStream> all;
    for (const auto& [id, s] : streams_) {
      if (s.deleted) continue;
      double tfidf = 0.0;
      bool relevant = false;
      for (const TermId term : q) {
        auto it = s.tf.find(term);
        if (it != s.tf.end()) {
          relevant = true;
          tfidf += scorer.TermTfIdf(it->second, index.doc_freq().Idf(term));
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

void ExpectSameTopK(const std::vector<ScoredStream>& got,
                    const std::vector<ScoredStream>& expected,
                    const std::string& context) {
  ASSERT_EQ(got.size(), expected.size()) << context;
  for (std::size_t i = 0; i < got.size(); ++i) {
    // Scores must match position by position (stream ids may swap on ties).
    ASSERT_NEAR(got[i].score, expected[i].score, 1e-9)
        << context << " position " << i;
  }
  // And the multiset of (score-rounded) streams must coincide except ties:
  // verify each returned stream's score equals the oracle score at the
  // same rank.
}

TEST(RtsiIndexTest, InsertedStreamIsImmediatelySearchable) {
  RtsiIndex index(SmallConfig());
  index.InsertWindow(1, 1000, Terms({{10, 3}, {11, 1}}), true);
  const auto results = index.Query({10}, 5, 2000);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].stream, 1u);
  EXPECT_GT(results[0].score, 0.0);
}

TEST(RtsiIndexTest, EmptyAndUnknownQueries) {
  RtsiIndex index(SmallConfig());
  index.InsertWindow(1, 1000, Terms({{10, 3}}), true);
  EXPECT_TRUE(index.Query({}, 5, 2000).empty());
  EXPECT_TRUE(index.Query({999}, 5, 2000).empty());
  EXPECT_TRUE(index.Query({10}, 0, 2000).empty());
}

TEST(RtsiIndexTest, DuplicateQueryTermsCollapse) {
  RtsiIndex index(SmallConfig());
  index.InsertWindow(1, 1000, Terms({{10, 3}}), true);
  const auto once = index.Query({10}, 5, 2000);
  const auto twice = index.Query({10, 10}, 5, 2000);
  ASSERT_EQ(once.size(), twice.size());
  EXPECT_NEAR(once[0].score, twice[0].score, 1e-12);
}

TEST(RtsiIndexTest, MultiWindowTermFrequenciesAccumulate) {
  RtsiIndex index(SmallConfig());
  // Stream 1: term 10 five times across two windows. Stream 2: twice.
  index.InsertWindow(1, 1000, Terms({{10, 3}}), true);
  index.InsertWindow(1, 2000, Terms({{10, 2}}), true);
  index.InsertWindow(2, 2000, Terms({{10, 2}}), true);
  const auto results = index.Query({10}, 5, 3000);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].stream, 1u);  // Higher total tf wins (same frsh/pop).
}

TEST(RtsiIndexTest, RelevanceUsesIdf) {
  RtsiIndex index(SmallConfig());
  // Term 20 appears in every stream (low idf); term 30 only in stream 5.
  for (StreamId s = 1; s <= 10; ++s) {
    index.InsertWindow(s, 1000, Terms({{20, 2}}), false);
  }
  index.InsertWindow(5, 1000, Terms({{30, 2}}), false);
  const auto results = index.Query({20, 30}, 3, 2000);
  ASSERT_GE(results.size(), 3u);
  EXPECT_EQ(results[0].stream, 5u);  // Matches the rare term too.
}

TEST(RtsiIndexTest, FreshnessBreaksTies) {
  RtsiIndex index(SmallConfig());
  index.InsertWindow(1, 1000, Terms({{10, 2}}), false);
  index.InsertWindow(2, 1000 + 2 * kMicrosPerHour, Terms({{10, 2}}), false);
  const auto results = index.Query({10}, 2, 1000 + 3 * kMicrosPerHour);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].stream, 2u);
}

TEST(RtsiIndexTest, PopularityUpdateChangesRanking) {
  RtsiIndex index(SmallConfig());
  index.InsertWindow(1, 1000, Terms({{10, 2}}), false);
  index.InsertWindow(2, 1000, Terms({{10, 2}}), false);
  index.UpdatePopularity(2, 5000);
  const auto results = index.Query({10}, 2, 2000);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].stream, 2u);
}

TEST(RtsiIndexTest, DeletedStreamDisappearsImmediately) {
  RtsiIndex index(SmallConfig());
  index.InsertWindow(1, 1000, Terms({{10, 2}}), true);
  index.InsertWindow(2, 1000, Terms({{10, 2}}), true);
  index.DeleteStream(1);
  const auto results = index.Query({10}, 5, 2000);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].stream, 2u);
}

// Deletion is monotone, so a window for a deleted stream is dropped: it
// must move neither the df table (idf of every other stream's terms) nor
// any result. Stream 3 is deleted before any content, which must not let
// its window count as a new document either.
TEST(RtsiIndexTest, WindowForDeletedStreamChangesNothing) {
  const auto build = [](bool late_windows) {
    auto index = std::make_unique<RtsiIndex>(SmallConfig());
    index->InsertWindow(1, 1000, Terms({{10, 2}, {11, 1}}), true);
    index->InsertWindow(2, 1000, Terms({{10, 1}, {12, 3}}), true);
    index->DeleteStream(1);
    index->DeleteStream(3);
    if (late_windows) {
      index->InsertWindow(1, 2000, Terms({{10, 4}, {12, 1}}), true);
      index->InsertWindow(3, 2000, Terms({{12, 2}}), true);
    }
    return index;
  };
  const auto dropped = build(/*late_windows=*/true);
  const auto reference = build(/*late_windows=*/false);
  EXPECT_EQ(dropped->doc_freq().num_documents(),
            reference->doc_freq().num_documents());
  for (const TermId term : {10, 11, 12}) {
    EXPECT_EQ(dropped->doc_freq().DocumentFrequency(term),
              reference->doc_freq().DocumentFrequency(term))
        << "term " << term;
  }
  const auto got = dropped->Query({10, 12}, 5, 3000);
  const auto want = reference->Query({10, 12}, 5, 3000);
  ASSERT_EQ(got.size(), 1u);
  ASSERT_EQ(want.size(), 1u);
  EXPECT_EQ(got[0].stream, 2u);
  EXPECT_EQ(got[0].score, want[0].score);
  EXPECT_FALSE(dropped->live_table().ContainsStream(1));
}

TEST(RtsiIndexTest, LazyDeletionPurgesAtMerge) {
  auto config = SmallConfig();
  config.lsm.delta = 50;
  RtsiIndex index(config);
  Timestamp t = 0;
  // Insert enough to force merges, delete half the streams.
  for (StreamId s = 0; s < 40; ++s) {
    for (int w = 0; w < 3; ++w) {
      index.InsertWindow(s, t += 1000, Terms({{10, 1}, {11, 1}}), false);
    }
  }
  for (StreamId s = 0; s < 20; ++s) index.DeleteStream(s);
  // Trigger more merges; purged postings must be reported.
  for (StreamId s = 100; s < 140; ++s) {
    index.InsertWindow(s, t += 1000, Terms({{10, 1}, {11, 1}}), false);
  }
  index.WaitForMerges();
  const auto stats = index.GetMergeStats();
  EXPECT_GT(stats.purged_postings, 0u);
  // Deleted streams never come back.
  for (const auto& r : index.Query({10}, 100, t)) {
    EXPECT_GE(r.stream, 20u);
  }
}

TEST(RtsiIndexTest, LiveTableShrinksAfterFinishAndMerge) {
  auto config = SmallConfig();
  config.lsm.delta = 60;
  RtsiIndex index(config);
  Timestamp t = 0;
  for (StreamId s = 0; s < 30; ++s) {
    for (int w = 0; w < 4; ++w) {
      index.InsertWindow(s, t += 1000, Terms({{10, 1}, {11, 1}, {12, 1}}),
                         true);
    }
    index.FinishStream(s);
  }
  // Force consolidation with more (finished) traffic.
  for (StreamId s = 100; s < 160; ++s) {
    index.InsertWindow(s, t += 1000, Terms({{10, 1}}), false);
    index.FinishStream(s);
  }
  // After merges, finished consolidated streams leave the live table.
  index.WaitForMerges();
  EXPECT_LT(index.live_table().num_streams(), 30u + 60u);
}

// A finished stream that resumes after a merge evicted it from the
// live-term table must score its whole history, exactly as a stream that
// never paused: the table has to carry its sealed totals again (and its
// terms must not count twice toward df).
TEST(RtsiIndexTest, ResumedStreamScoresItsWholeHistory) {
  auto config = SmallConfig();
  config.lsm.delta = 16;
  const auto build = [&](bool pause) {
    auto index = std::make_unique<RtsiIndex>(config);
    index->InsertWindow(1, 1000, Terms({{7, 3}, {8, 1}}), true);
    if (pause) index->FinishStream(1);
    // Filler past delta: the cascade consolidates stream 1 into one
    // sealed component, which evicts it from the table when it paused.
    for (StreamId s = 100; s < 120; ++s) {
      index->InsertWindow(s, 2000, Terms({{9, 1}}), false);
      index->FinishStream(s);
    }
    index->WaitForMerges();
    EXPECT_EQ(index->live_table().ContainsStream(1), !pause);
    index->InsertWindow(1, 3000, Terms({{7, 2}}), true);
    return index;
  };
  const auto resumed = build(/*pause=*/true);
  const auto continuous = build(/*pause=*/false);
  const auto got = resumed->Query({7, 8}, 5, 4000);
  const auto want = continuous->Query({7, 8}, 5, 4000);
  ASSERT_EQ(got.size(), 1u);
  ASSERT_EQ(want.size(), 1u);
  EXPECT_EQ(got[0].stream, 1u);
  EXPECT_EQ(got[0].score, want[0].score);
  EXPECT_EQ(resumed->live_table().GetTotal(1, 7), 5u);
}

TEST(RtsiIndexTest, QueryStatsArePopulated) {
  auto config = SmallConfig();
  config.lsm.delta = 50;
  RtsiIndex index(config);
  Timestamp t = 0;
  for (StreamId s = 0; s < 100; ++s) {
    index.InsertWindow(s, t += 1000, Terms({{10, 1}, {11, 2}}), false);
    index.FinishStream(s);
  }
  QueryStats stats;
  const auto results = index.Query({10, 11}, 5, t, &stats);
  EXPECT_EQ(results.size(), 5u);
  EXPECT_GT(stats.candidates_scored, 0u);
  EXPECT_GT(stats.postings_scanned, 0u);
}

TEST(RtsiIndexTest, MemoryBytesGrowsWithContent) {
  RtsiIndex index(SmallConfig());
  const std::size_t empty_bytes = index.MemoryBytes();
  Timestamp t = 0;
  for (StreamId s = 0; s < 50; ++s) {
    index.InsertWindow(s, t += 1000, Terms({{10, 1}, {11, 1}, {12, 1}}),
                       false);
  }
  EXPECT_GT(index.MemoryBytes(), empty_bytes);
}

// ---------------------------------------------------------------------------
// Randomized oracle comparison. Exercises merges, finishes, deletions and
// multi-window accumulation; configurations where exact top-k is
// guaranteed (see core/config.h): no popularity updates with kSnapshot,
// or kGlobalPop with updates, or bound disabled.

struct OracleCase {
  int seed;
  bool with_updates;
  bool use_bound;
  BoundMode mode;
};

class RtsiOracleTest : public ::testing::TestWithParam<OracleCase> {};

TEST_P(RtsiOracleTest, TopKMatchesBruteForce) {
  const OracleCase param = GetParam();
  auto config = SmallConfig();
  config.lsm.delta = 150;
  config.use_bound = param.use_bound;
  config.bound_mode = param.mode;
  RtsiIndex index(config);
  Oracle oracle;
  Rng rng(param.seed);

  constexpr int kNumStreams = 60;
  constexpr int kVocab = 40;
  std::vector<int> windows_left(kNumStreams);
  for (auto& w : windows_left) w = 1 + static_cast<int>(rng.NextUint64(6));

  Timestamp t = 1000;
  for (int step = 0; step < 400; ++step) {
    t += 30 * kMicrosPerSecond;
    const auto stream = static_cast<StreamId>(rng.NextUint64(kNumStreams));
    const double action = rng.NextDouble();
    if (action < 0.70) {
      if (windows_left[stream] <= 0) continue;
      --windows_left[stream];
      std::vector<TermCount> terms;
      const int num_terms = 1 + static_cast<int>(rng.NextUint64(6));
      std::set<TermId> used;
      for (int i = 0; i < num_terms; ++i) {
        const auto term = static_cast<TermId>(rng.NextUint64(kVocab));
        if (!used.insert(term).second) continue;
        terms.push_back(
            {term, 1 + static_cast<TermFreq>(rng.NextUint64(4))});
      }
      const bool live = windows_left[stream] > 0;
      index.InsertWindow(stream, t, terms, live);
      if (!live) index.FinishStream(stream);
      oracle.Insert(stream, t, terms);
    } else if (action < 0.80 && param.with_updates) {
      const std::uint64_t delta = 1 + rng.NextUint64(100);
      index.UpdatePopularity(stream, delta);
      oracle.UpdatePop(stream, delta);
    } else if (action < 0.83) {
      index.DeleteStream(stream);
      oracle.Delete(stream);
      windows_left[stream] = 0;
    } else {
      // Query.
      std::vector<TermId> q;
      q.push_back(static_cast<TermId>(rng.NextUint64(kVocab)));
      if (rng.NextBool(0.7)) {
        q.push_back(static_cast<TermId>(rng.NextUint64(kVocab)));
      }
      const int k = 1 + static_cast<int>(rng.NextUint64(10));
      const auto got = index.Query(q, k, t);
      const auto expected = oracle.TopK(index, q, k, t);
      ExpectSameTopK(got, expected,
                     "step " + std::to_string(step) + " seed " +
                         std::to_string(param.seed));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, RtsiOracleTest,
    ::testing::Values(
        OracleCase{1, false, true, BoundMode::kSnapshot},
        OracleCase{2, false, true, BoundMode::kSnapshot},
        OracleCase{3, false, true, BoundMode::kSnapshot},
        OracleCase{4, true, true, BoundMode::kGlobalPop},
        OracleCase{5, true, true, BoundMode::kGlobalPop},
        OracleCase{6, true, false, BoundMode::kSnapshot},
        OracleCase{7, true, false, BoundMode::kSnapshot},
        OracleCase{8, false, false, BoundMode::kSnapshot}));

TEST(RtsiIndexTest, BoundOnAndOffAgree) {
  auto config_on = SmallConfig();
  config_on.lsm.delta = 100;
  config_on.use_bound = true;
  auto config_off = config_on;
  config_off.use_bound = false;

  RtsiIndex with_bound(config_on);
  RtsiIndex without_bound(config_off);
  Rng rng(77);
  Timestamp t = 0;
  for (StreamId s = 0; s < 200; ++s) {
    std::vector<TermCount> terms;
    std::set<TermId> used;
    for (int i = 0; i < 5; ++i) {
      const auto term = static_cast<TermId>(rng.NextUint64(30));
      if (used.insert(term).second) {
        terms.push_back({term, 1 + static_cast<TermFreq>(rng.NextUint64(3))});
      }
    }
    t += kMicrosPerSecond;
    with_bound.InsertWindow(s, t, terms, false);
    without_bound.InsertWindow(s, t, terms, false);
    with_bound.FinishStream(s);
    without_bound.FinishStream(s);
  }
  for (TermId a = 0; a < 30; ++a) {
    const auto r1 = with_bound.Query({a, (a + 7) % 30}, 10, t);
    const auto r2 = without_bound.Query({a, (a + 7) % 30}, 10, t);
    ASSERT_EQ(r1.size(), r2.size()) << a;
    for (std::size_t i = 0; i < r1.size(); ++i) {
      ASSERT_NEAR(r1[i].score, r2[i].score, 1e-9) << a << " rank " << i;
    }
  }
}

// Whatever merge interleaving a delta produces, top-k results match a
// never-merged full walk (no pruning, no skip headers) over the same
// inserts: different deltas force different freeze points and cascade
// depths of the same posting stream.
TEST(RtsiIndexTest, MergedMatchesNeverMergedAcrossDeltas) {
  const auto insert_workload = [](RtsiIndex& index) {
    Rng rng(17);
    Timestamp t = 0;
    for (StreamId s = 0; s < 600; ++s) {
      std::vector<TermCount> terms;
      std::set<TermId> used;
      for (int i = 0; i < 4; ++i) {
        const auto term = static_cast<TermId>(rng.NextUint64(40));
        if (used.insert(term).second) {
          terms.push_back(
              {term, 1 + static_cast<TermFreq>(rng.NextUint64(3))});
        }
      }
      t += kMicrosPerSecond;
      index.InsertWindow(s, t, terms, false);
      index.FinishStream(s);
    }
    index.WaitForMerges();
  };
  // Oracle: delta so large nothing ever leaves L0, walked exhaustively.
  RtsiConfig oracle_config;
  oracle_config.lsm.delta = 1u << 20;
  RtsiIndex oracle(oracle_config);
  oracle.SetUseBound(false);
  insert_workload(oracle);

  for (const std::size_t delta : {80u, 150u, 400u}) {
    RtsiConfig config;
    config.lsm.delta = delta;
    RtsiIndex index(config);
    insert_workload(index);
    ASSERT_GT(index.GetMergeStats().merges, 0u) << "delta " << delta;
    for (TermId q = 0; q < 40; q += 3) {
      const Timestamp now = 600 * kMicrosPerSecond;
      const auto expect = oracle.Query({q, (q + 7) % 40}, 10, now);
      const auto got = index.Query({q, (q + 7) % 40}, 10, now);
      ASSERT_EQ(got.size(), expect.size()) << "delta " << delta << " term "
                                           << q;
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].stream, expect[i].stream)
            << "delta " << delta << " term " << q << " rank " << i;
        ASSERT_NEAR(got[i].score, expect[i].score, 1e-9)
            << "delta " << delta << " term " << q << " rank " << i;
      }
    }
  }
}

}  // namespace
}  // namespace rtsi::core
