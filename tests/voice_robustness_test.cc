// Robustness of the voice path: decoding noisy audio, degenerate query
// audio, and the interplay of snapshots with background merges.

#include <gtest/gtest.h>

#include <cstdio>

#include "asr/acoustic_model.h"
#include "asr/decoder.h"
#include "audio/mfcc.h"
#include "audio/synthesizer.h"
#include "common/clock.h"
#include "common/rng.h"
#include "service/search_service.h"
#include "storage/snapshot.h"

namespace rtsi {
namespace {

class VoiceRobustness : public ::testing::Test {
 protected:
  VoiceRobustness()
      : extractor_(audio::MfccConfig{}),
        model_(extractor_),
        decoder_(&extractor_, &model_, asr::DecoderConfig{}) {}

  audio::MfccExtractor extractor_;
  asr::AcousticModel model_;
  asr::LatticeDecoder decoder_;
};

TEST_F(VoiceRobustness, DecodesPureNoiseWithoutCrashing) {
  Rng rng(3);
  audio::PcmBuffer pcm;
  pcm.sample_rate_hz = 16000;
  pcm.samples.resize(16000);
  for (auto& s : pcm.samples) {
    s = static_cast<float>(rng.NextDouble() - 0.5);
  }
  const asr::PhoneticLattice lattice = decoder_.Decode(pcm);
  // Noise decodes to *something*; every segment must be well-formed.
  for (std::size_t i = 0; i < lattice.size(); ++i) {
    ASSERT_FALSE(lattice.hypotheses(i).empty());
    double total = 0.0;
    for (const auto& h : lattice.hypotheses(i)) {
      ASSERT_GE(h.posterior, 0.0);
      total += h.posterior;
    }
    ASSERT_LE(total, 1.0 + 1e-6);
  }
}

TEST_F(VoiceRobustness, DecodesSilence) {
  audio::PcmBuffer silence;
  silence.sample_rate_hz = 16000;
  silence.samples.assign(8000, 0.0f);
  const asr::PhoneticLattice lattice = decoder_.Decode(silence);
  (void)lattice;  // Must simply not crash; content is unspecified.
  SUCCEED();
}

TEST_F(VoiceRobustness, EmptyAudioYieldsEmptyLattice) {
  audio::PcmBuffer empty;
  EXPECT_TRUE(decoder_.Decode(empty).empty());
}

TEST_F(VoiceRobustness, NoisyVowelsStillDecodable) {
  // Vowels with heavy background noise: the best path should still
  // contain the true phones more often than chance.
  audio::SynthesizerConfig synth_config;
  synth_config.noise_floor = 0.04;  // ~24 dB SNR against the formants.
  const audio::Synthesizer synth(synth_config);
  Rng rng(17);

  int hits = 0, trials = 0;
  for (const char* name : {"iy", "aa", "uw", "ao", "eh"}) {
    const asr::PhonemeId phone = asr::PhonemeByName(name);
    audio::PhoneSpec spec = asr::PhonemeSpec(phone);
    spec.duration_seconds = 0.2;
    const auto lattice = decoder_.Decode(synth.Render({spec}, rng));
    ++trials;
    for (const asr::PhonemeId p : lattice.BestPath()) {
      if (p == phone) {
        ++hits;
        break;
      }
    }
  }
  EXPECT_GE(hits, trials - 1);  // At most one vowel lost to noise.
}

TEST(VoiceServiceRobustness, VoiceSearchOnShortAudio) {
  SimulatedClock clock;
  service::SearchServiceConfig config;
  config.ingestion.acoustic_path = service::AcousticPath::kDirect;
  service::SearchService search_service(config, &clock);
  search_service.IngestWindow(1, {"news", "update"});

  audio::PcmBuffer tiny;
  tiny.sample_rate_hz = 16000;
  tiny.samples.assign(100, 0.1f);  // Shorter than one MFCC frame.
  const auto results = search_service.SearchVoice(tiny, 5);
  EXPECT_TRUE(results.empty());  // Nothing decodable; no crash.
}

TEST(SnapshotWithBackgroundMerge, SaveAfterWaitIsConsistent) {
  core::RtsiConfig config;
  config.lsm.delta = 150;
  core::RtsiIndex index(config);
  Timestamp t = 0;
  for (StreamId s = 0; s < 300; ++s) {
    index.InsertWindow(s, t += kMicrosPerSecond, {{static_cast<TermId>(s % 20), 2}}, false);
    index.FinishStream(s);
  }
  index.WaitForMerges();

  const std::string path = "/tmp/rtsi_background_snap_test.snap";
  ASSERT_TRUE(storage::SaveIndexSnapshot(index, path).ok());
  auto loaded = storage::LoadIndexSnapshot(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value()->tree().total_postings(),
            index.tree().total_postings());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rtsi
