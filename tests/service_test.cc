// End-to-end multi-modal service tests: ingestion (both acoustic paths),
// keyword search, voice search, and query processing.

#include "service/search_service.h"

#include <gtest/gtest.h>

#include "common/clock.h"
#include "service/ingestion.h"
#include "service/query_processor.h"

namespace rtsi::service {
namespace {

SearchServiceConfig SmallServiceConfig(AcousticPath path) {
  SearchServiceConfig config;
  config.index.lsm.delta = 500;
  config.ingestion.acoustic_path = path;
  config.ingestion.transcriber.word_error_rate = 0.0;  // Deterministic.
  return config;
}

TEST(IngestionTest, CountTermsAggregatesInTermIdOrder) {
  const auto counts = CountTerms({7, 2, 7, 3, 7, 2});
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0].term, 2u);
  EXPECT_EQ(counts[0].tf, 2u);
  EXPECT_EQ(counts[1].term, 3u);
  EXPECT_EQ(counts[1].tf, 1u);
  EXPECT_EQ(counts[2].term, 7u);
  EXPECT_EQ(counts[2].tf, 3u);
  EXPECT_TRUE(CountTerms({}).empty());
}

TEST(IngestionTest, ProcessWindowProducesBothModalities) {
  text::TermDictionary text_dict, sound_dict;
  IngestionConfig config;
  config.transcriber.word_error_rate = 0.0;
  IngestionPipeline pipeline(config, &text_dict, &sound_dict);
  Rng rng(1);
  const auto artifacts = pipeline.ProcessWindow(
      {"morning", "news", "about", "technology"}, rng);
  EXPECT_FALSE(artifacts.text_terms.empty());
  EXPECT_FALSE(artifacts.sound_terms.empty());
  EXPECT_EQ(artifacts.transcript.size(), 4u);
  EXPECT_GT(text_dict.size(), 0u);
  EXPECT_GT(sound_dict.size(), 0u);
}

TEST(IngestionTest, ErrorModelChangesTranscript) {
  text::TermDictionary text_dict, sound_dict;
  IngestionConfig config;
  config.transcriber.word_error_rate = 0.9;
  IngestionPipeline pipeline(config, &text_dict, &sound_dict);
  // Warm the dictionary so substitutions have material.
  Rng rng(2);
  pipeline.ProcessWindow({"alpha", "beta", "gamma", "delta"}, rng);
  int unchanged = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const auto artifacts =
        pipeline.ProcessWindow({"alpha", "beta", "gamma", "delta"}, rng);
    if (artifacts.transcript ==
        std::vector<std::string>({"alpha", "beta", "gamma", "delta"})) {
      ++unchanged;
    }
  }
  EXPECT_LT(unchanged, 5);  // 90% WER: transcripts rarely survive intact.
}

TEST(IngestionTest, FullAcousticPathProducesLattices) {
  text::TermDictionary text_dict, sound_dict;
  IngestionConfig config;
  config.acoustic_path = AcousticPath::kFull;
  config.transcriber.word_error_rate = 0.0;
  IngestionPipeline pipeline(config, &text_dict, &sound_dict);
  Rng rng(3);
  const auto lattice = pipeline.BuildLattice({"hello"}, rng);
  EXPECT_FALSE(lattice.empty());
  const auto artifacts = pipeline.ProcessWindow({"hello", "world"}, rng);
  EXPECT_FALSE(artifacts.sound_terms.empty());
}

TEST(SearchServiceTest, KeywordSearchFindsIngestedStream) {
  SimulatedClock clock;
  SearchService service(SmallServiceConfig(AcousticPath::kDirect), &clock);
  service.IngestWindow(1, {"jazz", "music", "evening", "radio"});
  service.IngestWindow(2, {"sports", "football", "league", "results"});
  clock.Advance(kMicrosPerMinute);

  const auto results = service.SearchKeywords("football results", 5);
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results[0].stream, 2u);
  EXPECT_GT(results[0].score, 0.0);
}

TEST(SearchServiceTest, MultiModalFusionCombinesScores) {
  SimulatedClock clock;
  auto config = SmallServiceConfig(AcousticPath::kDirect);
  SearchService service(config, &clock);
  service.IngestWindow(1, {"quantum", "physics", "lecture"});
  clock.Advance(kMicrosPerMinute);

  const auto results = service.SearchKeywords("quantum physics", 5);
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results[0].stream, 1u);
  // Both modalities should contribute for an exact keyword match.
  EXPECT_GT(results[0].text_score, 0.0);
  EXPECT_GT(results[0].sound_score, 0.0);
}

TEST(SearchServiceTest, VoiceSearchRoundTrips) {
  SimulatedClock clock;
  // Full acoustic path end to end: synthesize the query audio, decode it,
  // search both trees.
  auto config = SmallServiceConfig(AcousticPath::kFull);
  SearchService service(config, &clock);
  service.IngestWindow(1, {"weather", "forecast", "sunny"});
  service.IngestWindow(2, {"cooking", "recipes", "pasta"});
  clock.Advance(kMicrosPerMinute);

  const audio::PcmBuffer query =
      service.SynthesizeQuery({"weather", "forecast"});
  ASSERT_FALSE(query.samples.empty());
  const auto results = service.SearchVoice(query, 5);
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results[0].stream, 1u);
}

TEST(SearchServiceTest, LiveStreamSearchableBeforeFinish) {
  SimulatedClock clock;
  SearchService service(SmallServiceConfig(AcousticPath::kDirect), &clock);
  service.IngestWindow(7, {"breaking", "news", "earthquake"},
                       /*live=*/true);
  const auto results = service.SearchKeywords("earthquake", 3);
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results[0].stream, 7u);
  service.FinishStream(7);
  EXPECT_FALSE(service.SearchKeywords("earthquake", 3).empty());
}

TEST(SearchServiceTest, DeleteRemovesFromResults) {
  SimulatedClock clock;
  SearchService service(SmallServiceConfig(AcousticPath::kDirect), &clock);
  service.IngestWindow(1, {"gardening", "tips"});
  service.DeleteStream(1);
  EXPECT_TRUE(service.SearchKeywords("gardening", 3).empty());
}

TEST(SearchServiceTest, PopularityBoostsFusedRanking) {
  SimulatedClock clock;
  SearchService service(SmallServiceConfig(AcousticPath::kDirect), &clock);
  service.IngestWindow(1, {"movie", "review", "cinema"});
  service.IngestWindow(2, {"movie", "review", "cinema"});
  service.UpdatePopularity(2, 10000);
  const auto results = service.SearchKeywords("movie review", 2);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].stream, 2u);
}

TEST(QueryProcessorTest, PhonesToKeywordsRecoversWords) {
  text::TermDictionary text_dict, sound_dict;
  IngestionConfig config;
  IngestionPipeline pipeline(config, &text_dict, &sound_dict);
  QueryProcessor processor(&pipeline, &text_dict, &sound_dict, 3, 0.2);

  // Prime the lexicon with the vocabulary.
  std::vector<asr::PhonemeId> sequence;
  pipeline.lexicon().Pronounce("hello", sequence);
  pipeline.lexicon().Pronounce("world", sequence);

  const auto words = processor.PhonesToKeywords(sequence);
  ASSERT_EQ(words.size(), 2u);
  EXPECT_EQ(words[0], "hello");
  EXPECT_EQ(words[1], "world");
}

TEST(QueryProcessorTest, UnknownKeywordsYieldNoTextTerms) {
  text::TermDictionary text_dict, sound_dict;
  IngestionConfig config;
  IngestionPipeline pipeline(config, &text_dict, &sound_dict);
  QueryProcessor processor(&pipeline, &text_dict, &sound_dict, 3, 0.2);
  Rng rng(5);
  const auto processed = processor.ProcessKeywords("neverindexed", rng);
  EXPECT_TRUE(processed.text_terms.empty());
  EXPECT_EQ(processed.keywords.size(), 1u);
}

}  // namespace
}  // namespace rtsi::service
