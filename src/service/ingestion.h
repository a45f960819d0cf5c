// Ingestion pipeline: one 60-second audio window in, two term-count bags
// out (text terms for the text LSM-tree, phonetic lattice units for the
// sound LSM-tree). Mirrors the top half of the paper's Figure 4.
//
// Two acoustic paths are supported:
//  - kFull: synthesize a waveform from the window's phones, extract MFCCs,
//    and decode a lattice through the acoustic model (the complete code
//    path; used in tests and examples);
//  - kDirect: build the lattice directly from the G2P phones with the
//    transcriber's word-error model only (identical downstream artefacts,
//    ~1000x faster; used for corpus-scale benches).

#ifndef RTSI_SERVICE_INGESTION_H_
#define RTSI_SERVICE_INGESTION_H_

#include <memory>
#include <string>
#include <vector>

#include "asr/acoustic_model.h"
#include "asr/decoder.h"
#include "asr/lattice.h"
#include "asr/lexicon.h"
#include "asr/transcriber.h"
#include "audio/mfcc.h"
#include "audio/synthesizer.h"
#include "common/rng.h"
#include "core/search_index.h"
#include "text/stemmer.h"
#include "text/stopwords.h"
#include "text/term_dictionary.h"
#include "text/tokenizer.h"

namespace rtsi::service {

enum class AcousticPath {
  kFull,
  kDirect,
};

struct IngestionConfig {
  AcousticPath acoustic_path = AcousticPath::kDirect;
  int lattice_ngram = 3;            // Lattice-unit n-gram order.
  double lattice_alt_threshold = 0.2;
  bool stem_text = false;           // Fold inflections (English corpora).
  asr::TranscriberConfig transcriber;
};

/// Output of processing one window.
struct WindowArtifacts {
  std::vector<core::TermCount> text_terms;
  std::vector<core::TermCount> sound_terms;
  std::vector<std::string> transcript;  // Post-error-model words.
};

class IngestionPipeline {
 public:
  /// `text_dict` and `sound_dict` intern text words and lattice units
  /// respectively; both must outlive the pipeline.
  IngestionPipeline(const IngestionConfig& config,
                    text::TermDictionary* text_dict,
                    text::TermDictionary* sound_dict);

  /// Processes the ground-truth words of one window: Transcribe, then
  /// InternText, then InternSound, then CountTerms on each modality.
  /// SearchService runs the same steps with the text half on its helper
  /// thread (DESIGN.md §6); this is their sequential form.
  WindowArtifacts ProcessWindow(const std::vector<std::string>& words,
                                Rng& rng) const;

  /// The window's first draws: the word-error model applied to `words`.
  /// Confusion words come from the text dictionary, so every earlier
  /// window's InternText must have completed.
  std::vector<std::string> Transcribe(const std::vector<std::string>& words,
                                      Rng& rng) const;

  /// Text half: tokenizes the transcript, drops stop words, stems if
  /// configured and interns each token; one id per token, in order. Draws
  /// nothing.
  std::vector<TermId> InternText(
      const std::vector<std::string>& transcript) const;

  /// Sound half: builds the lattice of `words` (drawing its alternate
  /// phones) and interns its units; one id per unit, in order.
  std::vector<TermId> InternSound(const std::vector<std::string>& words,
                                  Rng& rng) const;

  /// Lattice for a word sequence (shared with voice-query processing).
  asr::PhoneticLattice BuildLattice(const std::vector<std::string>& words,
                                    Rng& rng) const;

  asr::Lexicon& lexicon() { return lexicon_; }
  const audio::MfccExtractor& mfcc() const { return mfcc_; }
  const asr::AcousticModel& acoustic_model() const { return *model_; }
  const asr::LatticeDecoder& decoder() const { return *decoder_; }

 private:
  IngestionConfig config_;
  text::TermDictionary* text_dict_;   // Not owned.
  text::TermDictionary* sound_dict_;  // Not owned.
  text::Tokenizer tokenizer_;
  text::StopwordFilter stopwords_;
  text::Stemmer stemmer_;
  asr::Lexicon lexicon_;
  audio::MfccExtractor mfcc_;
  audio::Synthesizer synthesizer_;
  std::unique_ptr<asr::AcousticModel> model_;
  std::unique_ptr<asr::LatticeDecoder> decoder_;
  std::unique_ptr<asr::Transcriber> transcriber_;
};

/// Aggregates duplicate terms into TermCounts, ordered by term id: sorts
/// `ids` and counts each run.
std::vector<core::TermCount> CountTerms(std::vector<TermId> ids);

}  // namespace rtsi::service

#endif  // RTSI_SERVICE_INGESTION_H_
