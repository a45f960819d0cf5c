// Lexicon with rule-based grapheme-to-phoneme (G2P) fallback.
//
// Maps words to phone sequences deterministically. Real systems ship large
// pronunciation dictionaries; here every word is derived from spelling by
// digraph-aware letter rules, which is sufficient because the synthetic
// corpus's words are arbitrary identifiers whose only requirement is a
// *stable, distinct* pronunciation (keyword -> voice conversion for
// multi-modal queries must agree between indexing and querying).

#ifndef RTSI_ASR_LEXICON_H_
#define RTSI_ASR_LEXICON_H_

#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "asr/phoneme.h"
#include "common/string_hash.h"

namespace rtsi::asr {

class Lexicon {
 public:
  Lexicon() = default;

  /// Appends the phone sequence of `word` (lowercased ASCII expected) to
  /// `out`. Deterministic; cached (hence logically const). Unknown
  /// characters are skipped; an empty derivation yields a single
  /// schwa-like phone so every word is pronounceable.
  void Pronounce(std::string_view word, std::vector<PhonemeId>& out) const;

  /// Registers an explicit pronunciation, overriding the G2P rules.
  void AddPronunciation(std::string word, std::vector<PhonemeId> phones);

  /// Snapshot of all cached (word, phones) pairs.
  std::vector<std::pair<std::string, std::vector<PhonemeId>>> Entries() const;

  std::size_t cache_size() const;

 private:
  static std::vector<PhonemeId> GraphemeToPhoneme(std::string_view word);

  mutable std::mutex mu_;
  mutable StringMap<std::vector<PhonemeId>> cache_;
};

}  // namespace rtsi::asr

#endif  // RTSI_ASR_LEXICON_H_
