// Phone-bigram model and Viterbi decoding.

#include "asr/phone_lm.h"

#include <gtest/gtest.h>

#include <cmath>

#include "asr/acoustic_model.h"
#include "asr/decoder.h"
#include "asr/lexicon.h"
#include "audio/mfcc.h"
#include "audio/synthesizer.h"
#include "common/rng.h"

namespace rtsi::asr {
namespace {

TEST(PhoneBigramTest, UniformBeforeTraining) {
  PhoneBigramModel lm;
  const double uniform = -std::log(static_cast<double>(PhonemeCount()));
  EXPECT_NEAR(lm.LogTransition(0, 1), uniform, 1e-9);
  EXPECT_NEAR(lm.LogInitial(5), uniform, 1e-9);
}

TEST(PhoneBigramTest, TrainingShiftsProbabilityMass) {
  PhoneBigramModel lm;
  const PhonemeId a = PhonemeByName("s");
  const PhonemeId b = PhonemeByName("iy");
  const PhonemeId c = PhonemeByName("k");
  for (int i = 0; i < 100; ++i) lm.AddSequence({a, b});
  lm.Finalize();
  EXPECT_GT(lm.LogTransition(a, b), lm.LogTransition(a, c));
  EXPECT_GT(lm.LogInitial(a), lm.LogInitial(c));
}

TEST(PhoneBigramTest, RowsAreDistributions) {
  PhoneBigramModel lm;
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    std::vector<PhonemeId> seq;
    for (int j = 0; j < 10; ++j) {
      seq.push_back(static_cast<PhonemeId>(rng.NextUint64(PhonemeCount())));
    }
    lm.AddSequence(seq);
  }
  lm.Finalize();
  for (int from = 0; from < PhonemeCount(); ++from) {
    double total = 0.0;
    for (int to = 0; to < PhonemeCount(); ++to) {
      total += std::exp(lm.LogTransition(static_cast<PhonemeId>(from),
                                         static_cast<PhonemeId>(to)));
    }
    EXPECT_NEAR(total, 1.0, 1e-9) << from;
  }
}

class ViterbiFixture : public ::testing::Test {
 protected:
  ViterbiFixture()
      : extractor_(audio::MfccConfig{}), model_(extractor_) {
    // Train the LM from the lexicon pronunciations of a small vocabulary.
    Lexicon lexicon;
    for (const char* word :
         {"stream", "audio", "search", "music", "news", "live", "radio"}) {
      std::vector<PhonemeId> phones;
      lexicon.Pronounce(word, phones);
      lm_.AddSequence(phones);
    }
    lm_.Finalize();
  }

  audio::MfccExtractor extractor_;
  AcousticModel model_;
  PhoneBigramModel lm_;
};

TEST_F(ViterbiFixture, ViterbiMatchesArgmaxOnCleanAudio) {
  audio::SynthesizerConfig synth_config;
  synth_config.noise_floor = 0.0;
  const audio::Synthesizer synth(synth_config);
  Rng rng(7);

  std::vector<audio::PhoneSpec> specs;
  std::vector<PhonemeId> truth;
  for (const char* name : {"iy", "aa", "uw"}) {
    const PhonemeId phone = PhonemeByName(name);
    audio::PhoneSpec spec = PhonemeSpec(phone);
    spec.duration_seconds = 0.15;
    specs.push_back(spec);
    truth.push_back(phone);
  }
  const audio::PcmBuffer pcm = synth.Render(specs, rng);

  DecoderConfig plain_config;
  const LatticeDecoder plain(&extractor_, &model_, plain_config);
  DecoderConfig viterbi_config;
  viterbi_config.use_viterbi = true;
  viterbi_config.phone_lm = &lm_;
  const LatticeDecoder viterbi(&extractor_, &model_, viterbi_config);

  for (const LatticeDecoder* decoder : {&plain, &viterbi}) {
    const auto path = decoder->Decode(pcm).BestPath();
    std::size_t truth_pos = 0;
    for (const PhonemeId phone : path) {
      if (truth_pos < truth.size() && phone == truth[truth_pos]) {
        ++truth_pos;
      }
    }
    EXPECT_EQ(truth_pos, truth.size());
  }
}

TEST_F(ViterbiFixture, ViterbiProducesFewerSpuriousSegments) {
  // Under noise, framewise argmax flickers between phones, producing
  // spurious short runs; the Viterbi self-loop suppresses them.
  audio::SynthesizerConfig synth_config;
  synth_config.noise_floor = 0.06;
  const audio::Synthesizer synth(synth_config);
  Rng rng(23);

  std::vector<audio::PhoneSpec> specs;
  for (const char* name : {"iy", "ao", "ae"}) {
    audio::PhoneSpec spec = PhonemeSpec(PhonemeByName(name));
    spec.duration_seconds = 0.18;
    specs.push_back(spec);
  }
  const audio::PcmBuffer pcm = synth.Render(specs, rng);

  DecoderConfig plain_config;
  plain_config.min_run_frames = 1;  // Expose raw flicker.
  const LatticeDecoder plain(&extractor_, &model_, plain_config);
  DecoderConfig viterbi_config = plain_config;
  viterbi_config.use_viterbi = true;
  viterbi_config.phone_lm = &lm_;
  const LatticeDecoder viterbi(&extractor_, &model_, viterbi_config);

  const std::size_t plain_segments = plain.Decode(pcm).size();
  const std::size_t viterbi_segments = viterbi.Decode(pcm).size();
  EXPECT_LE(viterbi_segments, plain_segments);
}

}  // namespace
}  // namespace rtsi::asr
