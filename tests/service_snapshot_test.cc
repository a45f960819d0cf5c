// Whole-service snapshots: dictionaries + both modality trees.

#include "service/service_snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/clock.h"

namespace rtsi::service {
namespace {

SearchServiceConfig SmallServiceConfig() {
  SearchServiceConfig config;
  config.index.lsm.delta = 2000;
  config.ingestion.acoustic_path = AcousticPath::kDirect;
  config.ingestion.transcriber.word_error_rate = 0.0;
  return config;
}

void RemoveSnapshotFiles(const std::string& prefix) {
  std::remove((prefix + ".text").c_str());
  std::remove((prefix + ".sound").c_str());
  std::remove((prefix + ".dicts").c_str());
}

TEST(ServiceSnapshotTest, RoundTripPreservesSearchResults) {
  const std::string prefix = "/tmp/rtsi_service_snap_roundtrip";
  SimulatedClock clock;
  SearchService original(SmallServiceConfig(), &clock);
  original.IngestWindow(1, {"quantum", "physics", "lecture", "series"});
  original.IngestWindow(2, {"football", "league", "highlights"});
  original.IngestWindow(3, {"cooking", "pasta", "recipes"});
  original.UpdatePopularity(2, 5000);
  original.FinishStream(3);
  clock.Advance(kMicrosPerMinute);

  ASSERT_TRUE(SaveServiceSnapshot(original, prefix).ok());

  SimulatedClock clock2;
  clock2.SetTime(clock.Now());
  SearchService restored(SmallServiceConfig(), &clock2);
  const Status status = LoadServiceSnapshot(restored, prefix);
  ASSERT_TRUE(status.ok()) << status.ToString();

  EXPECT_EQ(restored.text_dictionary().size(),
            original.text_dictionary().size());
  EXPECT_EQ(restored.sound_dictionary().size(),
            original.sound_dictionary().size());

  for (const char* query : {"quantum physics", "football", "pasta"}) {
    const auto r1 = original.SearchKeywords(query, 5);
    const auto r2 = restored.SearchKeywords(query, 5);
    ASSERT_EQ(r1.size(), r2.size()) << query;
    for (std::size_t i = 0; i < r1.size(); ++i) {
      EXPECT_EQ(r1[i].stream, r2[i].stream) << query;
      EXPECT_NEAR(r1[i].score, r2[i].score, 1e-9) << query;
    }
  }
  RemoveSnapshotFiles(prefix);
}

// A save right after an ingest that froze L0 starts from the layout the
// cascade settles on: the restored service has every stream in as many
// components as the original and answers alike.
TEST(ServiceSnapshotTest, SaveRightAfterAFreezeCapturesTheSettledLayout) {
  const std::string prefix = "/tmp/rtsi_service_snap_freeze";
  SearchServiceConfig config = SmallServiceConfig();
  config.index.lsm.delta = 40;
  config.index.lsm.rho = 2.0;
  SimulatedClock clock;
  SearchService original(config, &clock);
  const std::vector<std::string> vocab = {
      "quantum", "physics", "lecture", "football", "league", "pasta",
      "recipes", "history", "episode", "tonight", "weather", "market"};
  StreamId streams = 0;
  int freezes = 0;
  for (int i = 0; freezes < 6; ++i) {
    ASSERT_LT(i, 2000) << "no freeze";
    const StreamId stream = static_cast<StreamId>(i % 25);
    streams = std::max<StreamId>(streams, stream + 1);
    std::vector<std::string> words;
    for (int w = 0; w < 4; ++w) {
      words.push_back(vocab[(i * 7 + w * 5) % vocab.size()]);
    }
    const std::size_t l0_before = original.text_index().tree().l0_postings();
    ASSERT_TRUE(original.IngestWindow(stream, words, i % 3 != 0).ok());
    if (i % 3 == 0) original.FinishStream(stream);
    clock.Advance(kMicrosPerSecond);
    // L0 shrank: this ingest froze it and started a cascade.
    if (original.text_index().tree().l0_postings() < l0_before) ++freezes;
  }
  ASSERT_TRUE(SaveServiceSnapshot(original, prefix).ok());

  SimulatedClock clock2;
  clock2.SetTime(clock.Now());
  SearchService restored(config, &clock2);
  const Status status = LoadServiceSnapshot(restored, prefix);
  ASSERT_TRUE(status.ok()) << status.ToString();
  // Each stream sits in as many sealed components, is in L0 alike and
  // is in the live-term table alike.
  const auto expect_same_placement = [&](const core::RtsiIndex& a,
                                         const core::RtsiIndex& b,
                                         const char* modality) {
    for (StreamId s = 0; s < streams; ++s) {
      const auto pa = a.stream_table().GetPlacement(s, a.tree().l0_epoch());
      const auto pb = b.stream_table().GetPlacement(s, b.tree().l0_epoch());
      EXPECT_EQ(pa.sealed, pb.sealed) << modality << " stream " << s;
      EXPECT_EQ(pa.in_l0, pb.in_l0) << modality << " stream " << s;
      EXPECT_EQ(a.live_table().ContainsStream(s),
                b.live_table().ContainsStream(s))
          << modality << " stream " << s;
    }
  };
  expect_same_placement(restored.text_index(), original.text_index(), "text");
  expect_same_placement(restored.sound_index(), original.sound_index(),
                        "sound");
  EXPECT_EQ(restored.text_index().tree().RunsPerLevel(),
            original.text_index().tree().RunsPerLevel());
  for (const std::string& word : vocab) {
    const auto r1 = original.SearchKeywords(word + " " + vocab[0], 10);
    const auto r2 = restored.SearchKeywords(word + " " + vocab[0], 10);
    ASSERT_EQ(r1.size(), r2.size()) << word;
    for (std::size_t i = 0; i < r1.size(); ++i) {
      EXPECT_EQ(r1[i].stream, r2[i].stream) << word;
      EXPECT_EQ(r1[i].score, r2[i].score) << word;
    }
  }
  RemoveSnapshotFiles(prefix);
}

TEST(ServiceSnapshotTest, RestoredServiceAcceptsNewContent) {
  const std::string prefix = "/tmp/rtsi_service_snap_continue";
  SimulatedClock clock;
  SearchService original(SmallServiceConfig(), &clock);
  original.IngestWindow(1, {"archive", "episode", "history"});
  ASSERT_TRUE(SaveServiceSnapshot(original, prefix).ok());

  SimulatedClock clock2;
  SearchService restored(SmallServiceConfig(), &clock2);
  ASSERT_TRUE(LoadServiceSnapshot(restored, prefix).ok());
  restored.IngestWindow(9, {"fresh", "broadcast", "tonight"});
  clock2.Advance(kMicrosPerMinute);

  EXPECT_FALSE(restored.SearchKeywords("history", 3).empty());
  const auto fresh = restored.SearchKeywords("broadcast", 3);
  ASSERT_FALSE(fresh.empty());
  EXPECT_EQ(fresh[0].stream, 9u);
  RemoveSnapshotFiles(prefix);
}

TEST(ServiceSnapshotTest, LoadIntoNonEmptyServiceFails) {
  const std::string prefix = "/tmp/rtsi_service_snap_nonempty";
  SimulatedClock clock;
  SearchService original(SmallServiceConfig(), &clock);
  original.IngestWindow(1, {"content"});
  ASSERT_TRUE(SaveServiceSnapshot(original, prefix).ok());

  SimulatedClock clock2;
  SearchService busy(SmallServiceConfig(), &clock2);
  busy.IngestWindow(5, {"already", "here"});
  const Status status = LoadServiceSnapshot(busy, prefix);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  RemoveSnapshotFiles(prefix);
}

TEST(ServiceSnapshotTest, MissingFilesReported) {
  SimulatedClock clock;
  SearchService service(SmallServiceConfig(), &clock);
  EXPECT_FALSE(
      LoadServiceSnapshot(service, "/tmp/rtsi_no_such_prefix_xyz").ok());
}

}  // namespace
}  // namespace rtsi::service
