#include "service/ingestion.h"

#include <algorithm>
#include <span>
#include <string_view>

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

std::vector<core::TermCount> CountTerms(std::vector<TermId> ids) {
  std::sort(ids.begin(), ids.end());
  std::vector<core::TermCount> out;
  for (std::size_t i = 0; i < ids.size();) {
    std::size_t j = i + 1;
    while (j < ids.size() && ids[j] == ids[i]) ++j;
    out.push_back({ids[i], static_cast<TermFreq>(j - i)});
    i = j;
  }
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
  std::vector<asr::PhonemeId> phones;
  for (const std::string& word : words) lexicon_.Pronounce(word, phones);

  if (config_.acoustic_path == AcousticPath::kFull) {
    // Words -> phones -> waveform -> MFCC -> lattice.
    std::vector<audio::PhoneSpec> specs;
    specs.reserve(phones.size());
    for (const asr::PhonemeId phone : phones) {
      specs.push_back(asr::PhonemeSpec(phone));
    }
    const audio::PcmBuffer pcm = synthesizer_.Render(specs, rng);
    return decoder_->Decode(pcm);
  }

  // Direct path: phones become best hypotheses outright.
  asr::PhoneticLattice lattice;
  lattice.Reserve(phones.size(), 2 * phones.size());
  for (const asr::PhonemeId phone : phones) {
    // A weak runner-up keeps the alternative-unit machinery exercised.
    const auto alt = static_cast<asr::PhonemeId>(
        rng.NextUint64(asr::PhonemeCount()));
    const asr::PhoneHypothesis hyps[] = {{phone, 0.9}, {alt, 0.1}};
    lattice.AddSegment(std::span(hyps, alt != phone ? 2 : 1));
  }
  return lattice;
}

std::vector<std::string> IngestionPipeline::Transcribe(
    const std::vector<std::string>& words, Rng& rng) const {
  return transcriber_->Transcribe(words, rng);
}

std::vector<TermId> IngestionPipeline::InternText(
    const std::vector<std::string>& transcript) const {
  std::vector<TermId> ids;
  ids.reserve(transcript.size());
  std::string buffer;
  for (const std::string& word : transcript) {
    tokenizer_.ForEachToken(word, buffer, [&](std::string_view token) {
      if (stopwords_.IsStopword(token)) return;
      ids.push_back(config_.stem_text ? text_dict_->Intern(stemmer_.Stem(token))
                                      : text_dict_->Intern(token));
    });
  }
  return ids;
}

std::vector<TermId> IngestionPipeline::InternSound(
    const std::vector<std::string>& words, Rng& rng) const {
  const asr::PhoneticLattice lattice = BuildLattice(words, rng);
  std::vector<TermId> ids;
  // Each n-gram window yields its best-path unit and at most n
  // alternatives.
  ids.reserve(lattice.size() * (1 + std::max(config_.lattice_ngram, 0)));
  lattice.ExtractUnits(config_.lattice_ngram, config_.lattice_alt_threshold,
                       [&](std::string_view unit) {
                         ids.push_back(sound_dict_->Intern(unit));
                       });
  return ids;
}

WindowArtifacts IngestionPipeline::ProcessWindow(
    const std::vector<std::string>& words, Rng& rng) const {
  WindowArtifacts artifacts;
  artifacts.transcript = Transcribe(words, rng);
  artifacts.text_terms = CountTerms(InternText(artifacts.transcript));
  artifacts.sound_terms = CountTerms(InternSound(words, rng));
  return artifacts;
}

}  // namespace rtsi::service
