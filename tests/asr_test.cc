// Tests of the simulated speech pipeline: phoneme inventory, lexicon/G2P,
// acoustic model, lattice decoder and the noisy transcriber.

#include <gtest/gtest.h>

#include <set>

#include "asr/acoustic_model.h"
#include "asr/decoder.h"
#include "asr/lattice.h"
#include "asr/lexicon.h"
#include "asr/phoneme.h"
#include "asr/transcriber.h"
#include "audio/mfcc.h"
#include "audio/synthesizer.h"
#include "common/rng.h"

namespace rtsi::asr {
namespace {

std::vector<PhonemeId> Phones(const Lexicon& lexicon, std::string_view word) {
  std::vector<PhonemeId> phones;
  lexicon.Pronounce(word, phones);
  return phones;
}

TEST(PhonemeTest, InventoryHasDistinctNames) {
  std::set<std::string> names;
  for (int p = 0; p < PhonemeCount(); ++p) {
    names.insert(std::string(PhonemeName(static_cast<PhonemeId>(p))));
  }
  EXPECT_EQ(static_cast<int>(names.size()), PhonemeCount());
}

TEST(PhonemeTest, ReverseLookupRoundTrips) {
  for (int p = 0; p < PhonemeCount(); ++p) {
    const auto id = static_cast<PhonemeId>(p);
    EXPECT_EQ(PhonemeByName(PhonemeName(id)), id);
  }
  EXPECT_EQ(PhonemeByName("zz"), PhonemeCount());
}

TEST(PhonemeTest, SpecsHavePositiveDurations) {
  for (int p = 0; p < PhonemeCount(); ++p) {
    const auto& spec = PhonemeSpec(static_cast<PhonemeId>(p));
    EXPECT_GT(spec.duration_seconds, 0.0);
    EXPECT_GT(spec.formant1_hz, 0.0);
    EXPECT_LT(spec.formant2_hz, 8000.0);  // Below Nyquist at 16 kHz.
  }
}

TEST(LexiconTest, PronunciationIsDeterministic) {
  Lexicon lexicon;
  const auto a = Phones(lexicon, "hello");
  const auto b = Phones(lexicon, "hello");
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

TEST(LexiconTest, DifferentWordsUsuallyDiffer) {
  Lexicon lexicon;
  EXPECT_NE(Phones(lexicon, "cat"), Phones(lexicon, "dog"));
  EXPECT_NE(Phones(lexicon, "stream"), Phones(lexicon, "audio"));
}

TEST(LexiconTest, DigraphsAreSinglePhones) {
  Lexicon lexicon;
  // "sh" maps to one phone, not s + h.
  EXPECT_EQ(Phones(lexicon, "sh").size(), 1u);
  EXPECT_EQ(Phones(lexicon, "ng").size(), 1u);
}

TEST(LexiconTest, EmptyOrUnknownWordStillPronounceable) {
  Lexicon lexicon;
  EXPECT_FALSE(Phones(lexicon, "").empty());
  EXPECT_FALSE(Phones(lexicon, "!!!").empty());
}

TEST(LexiconTest, ExplicitPronunciationOverridesG2p) {
  Lexicon lexicon;
  std::vector<PhonemeId> custom = {PhonemeByName("iy")};
  lexicon.AddPronunciation("xyz", custom);
  EXPECT_EQ(Phones(lexicon, "xyz"), custom);
}

TEST(LexiconTest, EntriesSnapshotGrowsWithCache) {
  Lexicon lexicon;
  Phones(lexicon, "one");
  Phones(lexicon, "two");
  EXPECT_EQ(lexicon.Entries().size(), 2u);
}

TEST(LexiconTest, PronounceAppendsToTheBuffer) {
  Lexicon lexicon;
  std::vector<PhonemeId> phones;
  lexicon.Pronounce("sh", phones);
  lexicon.Pronounce("ng", phones);
  EXPECT_EQ(phones, (std::vector<PhonemeId>{PhonemeByName("sh"),
                                            PhonemeByName("ng")}));
}

TEST(LatticeTest, BestPathFollowsTopHypotheses) {
  PhoneticLattice lattice;
  for (int i = 0; i < 3; ++i) {
    const PhoneHypothesis hyps[] = {{static_cast<PhonemeId>(i), 0.8},
                                    {static_cast<PhonemeId>(i + 5), 0.2}};
    lattice.AddSegment(hyps);
  }
  const auto path = lattice.BestPath();
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0], 0);
  EXPECT_EQ(path[1], 1);
  EXPECT_EQ(path[2], 2);
}

TEST(LatticeTest, UnitNamesJoinWithUnderscore) {
  const std::vector<PhonemeId> phones = {PhonemeByName("s"),
                                         PhonemeByName("iy")};
  std::string name = "x:";
  AppendUnitName(phones, name);
  EXPECT_EQ(name, "x:s_iy");
}

TEST(LatticeTest, SegmentsIndexOneFlatHypothesisArray) {
  PhoneticLattice lattice;
  const PhoneHypothesis one[] = {{3, 1.0}};
  const PhoneHypothesis three[] = {{4, 0.5}, {5, 0.3}, {6, 0.2}};
  lattice.AddSegment(one);
  lattice.AddSegment({});  // No hypotheses: not a segment.
  lattice.AddSegment(three);
  ASSERT_EQ(lattice.size(), 2u);
  EXPECT_EQ(lattice.segments()[1].first, 1u);
  EXPECT_EQ(lattice.segments()[1].count, 3u);
  ASSERT_EQ(lattice.hypotheses(1).size(), 3u);
  EXPECT_EQ(lattice.hypotheses(1)[2].phone, 6);
  EXPECT_EQ(lattice.hypotheses(0)[0].phone, 3);
}

std::vector<std::string> Units(const PhoneticLattice& lattice, int n,
                               double alt_threshold) {
  std::vector<std::string> units;
  lattice.ExtractUnits(n, alt_threshold, [&](std::string_view unit) {
    units.emplace_back(unit);
  });
  return units;
}

TEST(LatticeTest, ExtractUnitsGeneratesNgramsAndAlternatives) {
  PhoneticLattice lattice;
  for (int i = 0; i < 4; ++i) {
    const PhoneHypothesis hyps[] = {{static_cast<PhonemeId>(i), 0.6},
                                    {static_cast<PhonemeId>(i + 10), 0.4}};
    lattice.AddSegment(hyps);
  }
  const auto bigrams = Units(lattice, 2, 0.3);
  // 3 best-path bigrams + 2 alternatives each = 9 units.
  EXPECT_EQ(bigrams.size(), 9u);

  // High alternative threshold removes the substituted variants.
  const auto strict = Units(lattice, 2, 0.9);
  EXPECT_EQ(strict.size(), 3u);
}

TEST(LatticeTest, TooShortLatticeYieldsNoUnits) {
  PhoneticLattice lattice;
  const PhoneHypothesis hyps[] = {{0, 1.0}};
  lattice.AddSegment(hyps);
  EXPECT_TRUE(Units(lattice, 3, 0.2).empty());
}

// The unit extraction the flat lattice replaced: segments as vectors of
// hypotheses, every unit a fresh string. The flat lattice must visit the
// same units in the same order.
std::vector<std::string> ReferenceUnits(
    const std::vector<std::vector<PhoneHypothesis>>& segments, int n,
    double alt_threshold) {
  auto name = [](const std::vector<PhonemeId>& phones) {
    std::string out;
    for (std::size_t i = 0; i < phones.size(); ++i) {
      if (i > 0) out += '_';
      out += PhonemeName(phones[i]);
    }
    return out;
  };
  std::vector<std::string> units;
  std::vector<PhonemeId> best;
  for (const auto& hyps : segments) {
    if (!hyps.empty()) best.push_back(hyps.front().phone);
  }
  if (n <= 0 || best.size() < static_cast<std::size_t>(n)) return units;
  std::vector<PhonemeId> gram(static_cast<std::size_t>(n));
  for (std::size_t start = 0; start + n <= best.size(); ++start) {
    for (int i = 0; i < n; ++i) gram[i] = best[start + i];
    units.push_back(name(gram));
    for (int i = 0; i < n; ++i) {
      const auto& hyps = segments[start + i];
      if (hyps.size() >= 2 && hyps[1].posterior >= alt_threshold) {
        const PhonemeId saved = gram[i];
        gram[i] = hyps[1].phone;
        units.push_back(name(gram));
        gram[i] = saved;
      }
    }
  }
  return units;
}

PhoneticLattice Flatten(
    const std::vector<std::vector<PhoneHypothesis>>& segments) {
  PhoneticLattice lattice;
  for (const auto& hyps : segments) lattice.AddSegment(hyps);
  return lattice;
}

TEST(LatticeTest, FlatUnitsEqualReferenceOnFixedLattices) {
  // Runner-up posteriors straddle each threshold below: some segments
  // have one hypothesis, some a runner-up just under or just over it, some
  // a third hypothesis that must never be substituted.
  Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::vector<PhoneHypothesis>> segments(
        1 + rng.NextUint64(12));
    for (auto& hyps : segments) {
      const std::size_t count = 1 + rng.NextUint64(3);
      const double second = 0.05 * static_cast<double>(rng.NextUint64(9));
      for (std::size_t h = 0; h < count; ++h) {
        hyps.push_back({static_cast<PhonemeId>(rng.NextUint64(PhonemeCount())),
                        h == 0 ? 0.5 : (h == 1 ? second : 0.05)});
      }
    }
    const PhoneticLattice lattice = Flatten(segments);
    for (const int n : {1, 2, 3, 4}) {
      for (const double threshold : {0.0, 0.15, 0.2, 0.25, 1.0}) {
        ASSERT_EQ(Units(lattice, n, threshold),
                  ReferenceUnits(segments, n, threshold))
            << "trial " << trial << " n " << n << " threshold " << threshold;
      }
    }
  }
}

class AcousticFixture : public ::testing::Test {
 protected:
  AcousticFixture()
      : extractor_(audio::MfccConfig{}), model_(extractor_) {}

  audio::MfccExtractor extractor_;
  AcousticModel model_;
};

TEST_F(AcousticFixture, PrototypesExistForEveryPhone) {
  EXPECT_EQ(model_.prototypes().size(),
            static_cast<std::size_t>(PhonemeCount()));
}

TEST_F(AcousticFixture, ClassifiesCleanVowelsCorrectly) {
  audio::SynthesizerConfig synth_config;
  synth_config.noise_floor = 0.0;
  const audio::Synthesizer synth(synth_config);
  Rng rng(11);

  // Pure vowels have deterministic spectra; the model must recover them.
  for (const char* name : {"iy", "aa", "uw", "eh"}) {
    const PhonemeId phone = PhonemeByName(name);
    audio::PhoneSpec spec = PhonemeSpec(phone);
    spec.duration_seconds = 0.2;
    const auto frames = extractor_.Extract(synth.Render({spec}, rng));
    ASSERT_GT(frames.size(), 4u);
    const auto& mid = frames[frames.size() / 2];
    EXPECT_EQ(model_.BestPhone(mid), phone) << name;
  }
}

TEST_F(AcousticFixture, PosteriorsAreNormalized) {
  audio::MfccFrame frame(13, 0.5);
  const auto scored = model_.Classify(frame);
  ASSERT_EQ(scored.size(), static_cast<std::size_t>(PhonemeCount()));
  double total = 0.0;
  for (const auto& s : scored) total += s.posterior;
  EXPECT_NEAR(total, 1.0, 1e-9);
  for (std::size_t i = 1; i < scored.size(); ++i) {
    EXPECT_LE(scored[i].posterior, scored[i - 1].posterior);
  }
}

TEST_F(AcousticFixture, DecoderRecoversVowelSequence) {
  audio::SynthesizerConfig synth_config;
  synth_config.noise_floor = 0.0;
  const audio::Synthesizer synth(synth_config);
  Rng rng(13);

  const std::vector<const char*> names = {"iy", "aa", "uw"};
  std::vector<audio::PhoneSpec> specs;
  std::vector<PhonemeId> truth;
  for (const char* name : names) {
    const PhonemeId phone = PhonemeByName(name);
    audio::PhoneSpec spec = PhonemeSpec(phone);
    spec.duration_seconds = 0.15;
    specs.push_back(spec);
    truth.push_back(phone);
  }
  const audio::PcmBuffer pcm = synth.Render(specs, rng);

  DecoderConfig decoder_config;
  const LatticeDecoder decoder(&extractor_, &model_, decoder_config);
  const PhoneticLattice lattice = decoder.Decode(pcm);
  const auto path = lattice.BestPath();

  // The decoded path must contain the true phones in order (transition
  // segments may insert extras).
  std::size_t truth_pos = 0;
  for (const PhonemeId phone : path) {
    if (truth_pos < truth.size() && phone == truth[truth_pos]) ++truth_pos;
  }
  EXPECT_EQ(truth_pos, truth.size())
      << "decoded path missed phones of the true sequence";
}

TEST_F(AcousticFixture, DecodedLatticeUnitsEqualReference) {
  // A noisy kFull rendering of real words: decoded segments carry up to
  // three hypotheses with runner-up posteriors spread on both sides of
  // the thresholds below.
  const audio::Synthesizer synth(audio::SynthesizerConfig{});
  Rng rng(19);
  Lexicon lexicon;
  std::vector<PhonemeId> phones;
  for (const char* word : {"morning", "stream", "search", "radio", "jazz"}) {
    lexicon.Pronounce(word, phones);
  }
  std::vector<audio::PhoneSpec> specs;
  for (const PhonemeId phone : phones) specs.push_back(PhonemeSpec(phone));
  const LatticeDecoder decoder(&extractor_, &model_, DecoderConfig{});
  const PhoneticLattice lattice = decoder.Decode(synth.Render(specs, rng));
  ASSERT_GE(lattice.size(), 4u);

  std::vector<std::vector<PhoneHypothesis>> segments;
  bool has_runner_up = false;
  for (std::size_t i = 0; i < lattice.size(); ++i) {
    const auto hyps = lattice.hypotheses(i);
    segments.emplace_back(hyps.begin(), hyps.end());
    has_runner_up |= hyps.size() >= 2;
  }
  ASSERT_TRUE(has_runner_up);
  for (const int n : {2, 3}) {
    for (const double threshold : {0.0, 0.05, 0.2, 1.0}) {
      EXPECT_EQ(Units(lattice, n, threshold),
                ReferenceUnits(segments, n, threshold))
          << "n " << n << " threshold " << threshold;
    }
  }
}

TEST(TranscriberTest, ZeroErrorRateIsIdentity) {
  TranscriberConfig config;
  config.word_error_rate = 0.0;
  Transcriber transcriber(config, [](Rng&) { return std::string("x"); });
  Rng rng(1);
  const std::vector<std::string> truth = {"live", "audio", "search"};
  EXPECT_EQ(transcriber.Transcribe(truth, rng), truth);
}

TEST(TranscriberTest, ErrorRateRoughlyHonored) {
  TranscriberConfig config;
  config.word_error_rate = 0.2;
  config.substitution_share = 1.0;  // Only substitutions: length preserved.
  config.deletion_share = 0.0;
  Transcriber transcriber(config,
                          [](Rng&) { return std::string("<sub>"); });
  Rng rng(2);
  std::vector<std::string> truth(10000, "word");
  const auto out = transcriber.Transcribe(truth, rng);
  ASSERT_EQ(out.size(), truth.size());
  int errors = 0;
  for (const auto& w : out) {
    if (w == "<sub>") ++errors;
  }
  EXPECT_NEAR(errors / 10000.0, 0.2, 0.02);
}

TEST(TranscriberTest, DeletionsShortenOutput) {
  TranscriberConfig config;
  config.word_error_rate = 0.5;
  config.substitution_share = 0.0;
  config.deletion_share = 1.0;
  Transcriber transcriber(config, [](Rng&) { return std::string("x"); });
  Rng rng(3);
  std::vector<std::string> truth(1000, "w");
  const auto out = transcriber.Transcribe(truth, rng);
  EXPECT_LT(out.size(), truth.size());
  EXPECT_NEAR(out.size(), 500.0, 60.0);
}

TEST(TranscriberTest, InsertionsLengthenOutput) {
  TranscriberConfig config;
  config.word_error_rate = 0.5;
  config.substitution_share = 0.0;
  config.deletion_share = 0.0;  // All errors are insertions.
  Transcriber transcriber(config, [](Rng&) { return std::string("x"); });
  Rng rng(4);
  std::vector<std::string> truth(1000, "w");
  const auto out = transcriber.Transcribe(truth, rng);
  EXPECT_GT(out.size(), truth.size());
}

}  // namespace
}  // namespace rtsi::asr
