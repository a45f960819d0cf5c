#include "service/ingestion.h"

#include <unordered_map>
#include <utility>

namespace rtsi::service {
namespace {

audio::MfccConfig DefaultMfccConfig() {
  audio::MfccConfig config;
  return config;
}

audio::SynthesizerConfig DefaultSynthConfig() {
  audio::SynthesizerConfig config;
  return config;
}

}  // namespace

std::vector<core::TermCount> CountTerms(const std::vector<TermId>& ids) {
  std::unordered_map<TermId, TermFreq> counts;
  for (const TermId id : ids) ++counts[id];
  std::vector<core::TermCount> out;
  out.reserve(counts.size());
  for (const auto& [term, tf] : counts) out.push_back({term, tf});
  return out;
}

IngestionPipeline::IngestionPipeline(const IngestionConfig& config,
                                     text::TermDictionary* text_dict,
                                     text::TermDictionary* sound_dict)
    : config_(config),
      text_dict_(text_dict),
      sound_dict_(sound_dict),
      mfcc_(DefaultMfccConfig()),
      synthesizer_(DefaultSynthConfig()) {
  model_ = std::make_unique<asr::AcousticModel>(mfcc_);
  asr::DecoderConfig decoder_config;
  decoder_ = std::make_unique<asr::LatticeDecoder>(&mfcc_, model_.get(),
                                                   decoder_config);
  // Substitutions draw a random word from the already-interned text
  // vocabulary (a plausible confusion set).
  transcriber_ = std::make_unique<asr::Transcriber>(
      config.transcriber, [this](Rng& rng) -> std::string {
        const std::size_t n = text_dict_->size();
        if (n == 0) return "uh";
        return std::string(
            text_dict_->TermString(static_cast<TermId>(rng.NextUint64(n))));
      });
}

asr::PhoneticLattice IngestionPipeline::BuildLattice(
    const std::vector<std::string>& words, Rng& rng) const {
  if (config_.acoustic_path == AcousticPath::kFull) {
    // Words -> phones -> waveform -> MFCC -> lattice.
    std::vector<audio::PhoneSpec> specs;
    for (const std::string& word : words) {
      for (const asr::PhonemeId phone : lexicon_.Pronounce(word)) {
        specs.push_back(asr::PhonemeSpec(phone));
      }
    }
    const audio::PcmBuffer pcm = synthesizer_.Render(specs, rng);
    return decoder_->Decode(pcm);
  }

  // Direct path: phones become best hypotheses outright.
  asr::PhoneticLattice lattice;
  double t = 0.0;
  for (const std::string& word : words) {
    for (const asr::PhonemeId phone : lexicon_.Pronounce(word)) {
      asr::LatticeSegment segment;
      segment.start_seconds = t;
      segment.duration_seconds = asr::PhonemeSpec(phone).duration_seconds;
      t += segment.duration_seconds;
      segment.hypotheses.push_back({phone, 0.9});
      // A weak runner-up keeps the alternative-unit machinery exercised.
      const auto alt = static_cast<asr::PhonemeId>(
          rng.NextUint64(asr::PhonemeCount()));
      if (alt != phone) segment.hypotheses.push_back({alt, 0.1});
      lattice.AddSegment(std::move(segment));
    }
  }
  return lattice;
}

WindowArtifacts IngestionPipeline::ProcessWindow(
    const std::vector<std::string>& words, Rng& rng) {
  WindowArtifacts artifacts;

  // Text side: error model -> tokenize -> stop words -> intern.
  artifacts.transcript = transcriber_->Transcribe(words, rng);
  std::vector<TermId> text_ids;
  for (const std::string& word : artifacts.transcript) {
    for (const std::string& token : tokenizer_.Tokenize(word)) {
      if (stopwords_.IsStopword(token)) continue;
      if (config_.stem_text) {
        text_ids.push_back(text_dict_->Intern(stemmer_.Stem(token)));
      } else {
        text_ids.push_back(text_dict_->Intern(token));
      }
    }
  }
  artifacts.text_terms = CountTerms(text_ids);

  // Sound side: lattice -> units -> intern.
  const asr::PhoneticLattice lattice = BuildLattice(words, rng);
  std::vector<TermId> sound_ids;
  for (const std::string& unit : lattice.ExtractUnits(
           config_.lattice_ngram, config_.lattice_alt_threshold)) {
    sound_ids.push_back(sound_dict_->Intern(unit));
  }
  artifacts.sound_terms = CountTerms(sound_ids);
  return artifacts;
}

}  // namespace rtsi::service
