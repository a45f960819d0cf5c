// Query explanation: decompositions sum to the score, sources are
// attributed correctly, and prune decisions are visible.

#include <gtest/gtest.h>

#include "core/rtsi_index.h"

namespace rtsi::core {
namespace {

RtsiConfig SmallConfig() {
  RtsiConfig config;
  config.lsm.delta = 100;
  return config;
}

TEST(ExplainTest, BreakdownSumsToScore) {
  RtsiIndex index(SmallConfig());
  index.InsertWindow(1, 1000, {{10, 3}, {11, 1}}, true);
  index.InsertWindow(2, 2000, {{10, 1}}, true);
  index.UpdatePopularity(1, 100);

  const auto explanation = index.ExplainQuery({10, 11}, 5, 3000);
  ASSERT_EQ(explanation.results.size(), 2u);
  const auto& weights = index.config().weights;
  for (const auto& r : explanation.results) {
    const double reconstructed = weights.pop * r.pop_score +
                                 weights.rel * r.rel_score +
                                 weights.frsh * r.frsh_score;
    EXPECT_NEAR(reconstructed, r.total, 1e-12);
  }
  // Results must match the plain query.
  const auto results = index.Query({10, 11}, 5, 3000);
  ASSERT_EQ(results.size(), explanation.results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].stream, explanation.results[i].stream);
    EXPECT_NEAR(results[i].score, explanation.results[i].total, 1e-12);
  }
}

TEST(ExplainTest, RecordsTermFrequencies) {
  RtsiIndex index(SmallConfig());
  index.InsertWindow(1, 1000, {{10, 3}}, true);
  index.InsertWindow(1, 2000, {{10, 4}, {11, 2}}, true);

  const auto explanation = index.ExplainQuery({10, 11}, 5, 3000);
  ASSERT_EQ(explanation.results.size(), 1u);
  ASSERT_EQ(explanation.results[0].term_tfs.size(), 2u);
  EXPECT_EQ(explanation.results[0].term_tfs[0], 7u);  // 3 + 4.
  EXPECT_EQ(explanation.results[0].term_tfs[1], 2u);
}

TEST(ExplainTest, AttributesSourcesCorrectly) {
  RtsiIndex index(SmallConfig());
  // Live stream: found via the live table.
  index.InsertWindow(1, 1000, {{10, 2}}, true);
  const auto live_explanation = index.ExplainQuery({10}, 5, 2000);
  ASSERT_EQ(live_explanation.results.size(), 1u);
  EXPECT_EQ(live_explanation.results[0].source,
            ScoreBreakdown::Source::kLiveTable);
  EXPECT_GE(live_explanation.live_table_candidates, 1u);

  // Finished, unmerged stream: still covered by the live-term table (the
  // consolidation invariant keeps it there until a merge seals it), so it
  // is found in phase 1 as well.
  RtsiIndex index2(SmallConfig());
  index2.InsertWindow(2, 1000, {{10, 2}}, false);
  index2.FinishStream(2);
  const auto l0_explanation = index2.ExplainQuery({10}, 5, 2000);
  ASSERT_EQ(l0_explanation.results.size(), 1u);
  EXPECT_EQ(l0_explanation.results[0].source,
            ScoreBreakdown::Source::kLiveTable);
}

TEST(ExplainTest, SealedComponentsAndPruningVisible) {
  auto config = SmallConfig();
  config.lsm.delta = 60;
  RtsiIndex index(config);
  Timestamp t = 0;
  for (StreamId s = 0; s < 300; ++s) {
    index.InsertWindow(s, t += kMicrosPerSecond,
                       {{static_cast<TermId>(s % 10), 2}}, false);
    index.FinishStream(s);
  }
  // Large k: the heap cannot fill early, so every component is visited
  // and sealed candidates appear in the results.
  const auto full_explanation = index.ExplainQuery({3}, 100, t);
  EXPECT_FALSE(full_explanation.components.empty());
  bool any_visited = false;
  for (const auto& component : full_explanation.components) {
    EXPECT_GT(component.upper_bound, 0.0);
    EXPECT_GT(component.num_postings, 0u);
    any_visited = any_visited || component.visited;
  }
  EXPECT_TRUE(any_visited);
  bool any_sealed = false;
  for (const auto& r : full_explanation.results) {
    any_sealed = any_sealed ||
                 r.source == ScoreBreakdown::Source::kSealedComponent;
  }
  EXPECT_TRUE(any_sealed);

  // Small k: the freshest (L0 / live-table) candidates dominate and the
  // bound prunes sealed components — visible as visited=false entries.
  const auto pruned_explanation = index.ExplainQuery({3}, 2, t);
  bool any_pruned = false;
  for (const auto& component : pruned_explanation.components) {
    any_pruned = any_pruned || !component.visited;
  }
  EXPECT_TRUE(any_pruned);
}

TEST(ExplainTest, ToStringMentionsKeyFacts) {
  RtsiIndex index(SmallConfig());
  index.InsertWindow(1, 1000, {{10, 2}}, true);
  const auto explanation = index.ExplainQuery({10}, 3, 2000);
  const std::string text = explanation.ToString();
  EXPECT_NE(text.find("query terms"), std::string::npos);
  EXPECT_NE(text.find("stream 1"), std::string::npos);
  EXPECT_NE(text.find("live-table"), std::string::npos);
}

TEST(ExplainTest, ToStringRendersEachComponentDecision) {
  QueryExplanation explanation;
  explanation.terms = {10};
  explanation.idfs = {1.5};
  explanation.k = 3;
  ComponentExplanation visited;
  visited.level = 1;
  visited.num_postings = 40;
  visited.upper_bound = 0.75;
  visited.visited = true;
  visited.terminated_early = true;
  visited.postings_yielded = 12;
  ComponentExplanation pruned;
  pruned.level = 2;
  pruned.num_postings = 80;
  pruned.upper_bound = 0.25;
  ComponentExplanation skipped;
  skipped.level = 3;
  skipped.num_postings = 160;
  skipped.upper_bound = 0.5;
  skipped.skipped = true;
  explanation.components = {visited, pruned, skipped};

  const std::string text = explanation.ToString();
  EXPECT_NE(text.find("component L1 (40 postings): bound=0.7500 visited "
                      "(early termination)\n  postings yielded: 12\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("component L2 (80 postings): bound=0.2500 PRUNED\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("component L3 (160 postings): bound=0.5000 SKIPPED "
                      "(no query term)\n"),
            std::string::npos)
      << text;
  // Only a visited component reports what it yielded.
  EXPECT_EQ(text.find("postings yielded"), text.rfind("postings yielded"));
}

TEST(ExplainTest, EmptyQueryExplains) {
  RtsiIndex index(SmallConfig());
  const auto explanation = index.ExplainQuery({}, 5, 100);
  EXPECT_TRUE(explanation.results.empty());
  EXPECT_FALSE(explanation.ToString().empty());
}

}  // namespace
}  // namespace rtsi::core
