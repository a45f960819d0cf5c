// Reproducibility: the whole service pipeline is deterministic given the
// seed — identical ingests produce identical dictionaries, index contents
// and search results across independently constructed services.

#include <gtest/gtest.h>

#include "common/clock.h"
#include "service/search_service.h"
#include "workload/corpus.h"

namespace rtsi::service {
namespace {

SearchServiceConfig Config(std::uint64_t seed) {
  SearchServiceConfig config;
  config.index.lsm.delta = 4000;
  config.ingestion.acoustic_path = AcousticPath::kDirect;
  config.ingestion.transcriber.word_error_rate = 0.1;  // Uses the RNG.
  config.seed = seed;
  return config;
}

void IngestCorpus(SearchService& service, SimulatedClock& clock) {
  workload::CorpusConfig corpus_config;
  corpus_config.num_streams = 40;
  corpus_config.vocab_size = 800;
  corpus_config.words_per_window = 30;
  corpus_config.avg_windows_per_stream = 3;
  corpus_config.min_windows_per_stream = 2;
  const workload::SyntheticCorpus corpus(corpus_config);
  for (StreamId s = 0; s < 40; ++s) {
    const int n = corpus.NumWindows(s);
    for (int w = 0; w < n; ++w) {
      service.IngestWindow(s, corpus.WindowWords(s, w), w + 1 < n);
    }
    service.FinishStream(s);
    clock.Advance(kMicrosPerSecond);
  }
  service.text_index().WaitForMerges();
  service.sound_index().WaitForMerges();
}

TEST(ServiceDeterminismTest, SameSeedSameResults) {
  SimulatedClock clock_a, clock_b;
  SearchService a(Config(123), &clock_a);
  SearchService b(Config(123), &clock_b);
  IngestCorpus(a, clock_a);
  IngestCorpus(b, clock_b);

  EXPECT_EQ(a.text_dictionary().size(), b.text_dictionary().size());
  EXPECT_EQ(a.sound_dictionary().size(), b.sound_dictionary().size());
  EXPECT_EQ(a.text_index().tree().total_postings(),
            b.text_index().tree().total_postings());
  EXPECT_EQ(a.sound_index().tree().total_postings(),
            b.sound_index().tree().total_postings());

  for (const char* query : {"w3 w17", "w100", "w5 w250"}) {
    const auto ra = a.SearchKeywords(query, 10);
    const auto rb = b.SearchKeywords(query, 10);
    ASSERT_EQ(ra.size(), rb.size()) << query;
    for (std::size_t i = 0; i < ra.size(); ++i) {
      ASSERT_EQ(ra[i].stream, rb[i].stream) << query;
      ASSERT_NEAR(ra[i].score, rb[i].score, 1e-12) << query;
    }
  }
}

TEST(ServiceDeterminismTest, DifferentSeedsDifferentErrorPatterns) {
  SimulatedClock clock_a, clock_b;
  SearchService a(Config(1), &clock_a);
  SearchService b(Config(2), &clock_b);
  IngestCorpus(a, clock_a);
  IngestCorpus(b, clock_b);
  // 10% WER with different RNG seeds: the substituted words differ, so
  // the text dictionaries almost surely diverge.
  EXPECT_NE(a.text_index().tree().total_postings(),
            b.text_index().tree().total_postings());
}

}  // namespace
}  // namespace rtsi::service
