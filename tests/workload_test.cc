// Corpus generator, query generator and workload driver tests.

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "core/rtsi_index.h"
#include "workload/corpus.h"
#include "workload/driver.h"
#include "workload/query_gen.h"
#include "workload/report.h"

namespace rtsi::workload {
namespace {

CorpusConfig SmallCorpusConfig() {
  CorpusConfig config;
  config.num_streams = 100;
  config.vocab_size = 2000;
  config.avg_windows_per_stream = 6;
  config.min_windows_per_stream = 2;
  config.words_per_window = 50;
  return config;
}

core::RtsiConfig SmallIndexConfig() {
  core::RtsiConfig config;
  config.lsm.delta = 2000;
  return config;
}

TEST(CorpusTest, WindowsAreDeterministic) {
  const SyntheticCorpus corpus(SmallCorpusConfig());
  const auto a = corpus.WindowTerms(5, 2);
  const auto b = corpus.WindowTerms(5, 2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].term, b[i].term);
    EXPECT_EQ(a[i].tf, b[i].tf);
  }
}

TEST(CorpusTest, DifferentWindowsDiffer) {
  const SyntheticCorpus corpus(SmallCorpusConfig());
  const auto a = corpus.WindowTerms(5, 0);
  const auto b = corpus.WindowTerms(5, 1);
  std::set<TermId> terms_a, terms_b;
  for (const auto& tc : a) terms_a.insert(tc.term);
  for (const auto& tc : b) terms_b.insert(tc.term);
  EXPECT_NE(terms_a, terms_b);
}

TEST(CorpusTest, WindowCountsInConfiguredRange) {
  const auto config = SmallCorpusConfig();
  const SyntheticCorpus corpus(config);
  for (StreamId s = 0; s < 100; ++s) {
    const int w = corpus.NumWindows(s);
    EXPECT_GE(w, config.min_windows_per_stream);
    EXPECT_LE(w, 2 * config.avg_windows_per_stream -
                     config.min_windows_per_stream);
  }
}

TEST(CorpusTest, TermFrequenciesSumToWordsPerWindow) {
  const auto config = SmallCorpusConfig();
  const SyntheticCorpus corpus(config);
  const auto terms = corpus.WindowTerms(1, 0);
  TermFreq total = 0;
  for (const auto& tc : terms) total += tc.tf;
  EXPECT_EQ(total, static_cast<TermFreq>(config.words_per_window));
}

TEST(CorpusTest, VocabularyIsZipfSkewed) {
  const auto config = SmallCorpusConfig();
  const SyntheticCorpus corpus(config);
  std::size_t head_hits = 0, total = 0;
  for (StreamId s = 0; s < 50; ++s) {
    for (const auto& tc : corpus.WindowTerms(s, 0)) {
      total += tc.tf;
      if (tc.term < 20) head_hits += tc.tf;
    }
  }
  // Top-20 of 2000 words must hold far more than 1% of the mass.
  EXPECT_GT(static_cast<double>(head_hits) / total, 0.1);
}

TEST(CorpusTest, WordsMatchTermIds) {
  const SyntheticCorpus corpus(SmallCorpusConfig());
  const auto words = corpus.WindowWords(3, 1);
  const auto terms = corpus.WindowTerms(3, 1);
  TermFreq total = 0;
  for (const auto& tc : terms) total += tc.tf;
  EXPECT_EQ(words.size(), static_cast<std::size_t>(total));
  // Every word corresponds to a drawn term id.
  std::set<TermId> ids;
  for (const auto& tc : terms) ids.insert(tc.term);
  for (const auto& word : words) {
    ASSERT_EQ(word[0], 'w');
    EXPECT_TRUE(ids.count(static_cast<TermId>(std::stoul(word.substr(1)))))
        << word;
  }
}

TEST(QueryGenTest, RespectsTermCountRange) {
  QueryGenConfig config;
  config.vocab_size = 1000;
  config.min_terms = 1;
  config.max_terms = 3;
  QueryGenerator gen(config);
  for (int i = 0; i < 500; ++i) {
    const auto q = gen.Next();
    EXPECT_GE(q.size(), 1u);
    EXPECT_LE(q.size(), 3u);
    std::unordered_set<TermId> distinct(q.begin(), q.end());
    EXPECT_EQ(distinct.size(), q.size());
  }
}

TEST(QueryGenTest, BiasedTowardHeadTerms) {
  QueryGenConfig config;
  config.vocab_size = 10000;
  QueryGenerator gen(config);
  std::size_t head = 0, total = 0;
  for (int i = 0; i < 2000; ++i) {
    for (const TermId term : gen.Next()) {
      ++total;
      if (term < 100) ++head;
    }
  }
  EXPECT_GT(static_cast<double>(head) / total, 0.2);
}

TEST(DriverTest, InitializeIndexInsertsEveryWindow) {
  const SyntheticCorpus corpus(SmallCorpusConfig());
  core::RtsiIndex index(SmallIndexConfig());
  SimulatedClock clock;
  const InitResult result = InitializeIndex(index, corpus, 0, 50, clock);

  std::size_t expected_windows = 0;
  for (StreamId s = 0; s < 50; ++s) expected_windows += corpus.NumWindows(s);
  EXPECT_EQ(result.windows_inserted, expected_windows);
  EXPECT_GT(result.index_bytes, 0u);
  EXPECT_GT(result.elapsed_micros, 0.0);
  // All streams finished.
  EXPECT_EQ(index.stream_table().size(), 50u);
}

TEST(DriverTest, MeasureQueriesReturnsLatencies) {
  const SyntheticCorpus corpus(SmallCorpusConfig());
  core::RtsiIndex index(SmallIndexConfig());
  SimulatedClock clock;
  InitializeIndex(index, corpus, 0, 50, clock);

  QueryGenConfig qconfig;
  qconfig.vocab_size = 2000;
  QueryGenerator gen(qconfig);
  const LatencyStats stats = MeasureQueries(index, gen, 100, 10, clock);
  EXPECT_EQ(stats.count(), 100u);
  EXPECT_GT(stats.mean_micros(), 0.0);
}

TEST(DriverTest, MeasureUpdatesAndInsertions) {
  const SyntheticCorpus corpus(SmallCorpusConfig());
  core::RtsiIndex index(SmallIndexConfig());
  SimulatedClock clock;
  InitializeIndex(index, corpus, 0, 20, clock);

  const LatencyStats inserts =
      MeasureInsertions(index, corpus, 20, 10, clock);
  EXPECT_GT(inserts.count(), 0u);
  const LatencyStats updates = MeasureUpdates(index, 500, 30, clock);
  EXPECT_EQ(updates.count(), 500u);
}

TEST(DriverTest, MixedWorkloadSplitsOps) {
  const SyntheticCorpus corpus(SmallCorpusConfig());
  core::RtsiIndex index(SmallIndexConfig());
  SimulatedClock clock;
  InitializeIndex(index, corpus, 0, 30, clock);

  QueryGenConfig qconfig;
  qconfig.vocab_size = 2000;
  QueryGenerator gen(qconfig);
  const MixedResult result =
      RunMixedWorkload(index, corpus, gen, 1000, 30, 10, 30, clock);
  EXPECT_EQ(result.queries.count() + result.insertions.count(), 1000u);
  // 30% +- noise should be queries.
  EXPECT_NEAR(static_cast<double>(result.queries.count()), 300.0, 60.0);
}

TEST(ReportTest, FormatsValues) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatBytes(512), "512B");
  EXPECT_EQ(FormatBytes(2048), "2.00KB");
  EXPECT_NE(FormatBytes(5 * 1024 * 1024).find("MB"), std::string::npos);
  EXPECT_NE(FormatMicros(1500.0).find("ms"), std::string::npos);
  EXPECT_NE(FormatMicros(2.5e6).find("s"), std::string::npos);
}

TEST(ReportTest, TablePrintsWithoutCrashing) {
  ReportTable table("Demo", {"col1", "col2"});
  table.AddRow({"a", "b"});
  table.AddRow({"longer-cell", "x"});
  table.Print();
  SUCCEED();
}

}  // namespace
}  // namespace rtsi::workload
