#include "asr/lexicon.h"

#include <array>

namespace rtsi::asr {
namespace {

// Letter -> phone name. Digraphs are matched first.
struct DigraphRule {
  std::string_view graph;
  std::string_view phone;
};

constexpr std::array<DigraphRule, 8> kDigraphs = {{
    {"sh", "sh"},
    {"ch", "sh"},
    {"th", "t"},
    {"ng", "ng"},
    {"oo", "uw"},
    {"ee", "iy"},
    {"ou", "ow"},
    {"er", "er"},
}};

std::string_view LetterPhone(char c) {
  switch (c) {
    case 'a': return "ae";
    case 'b': return "p";
    case 'c': return "k";
    case 'd': return "d";
    case 'e': return "eh";
    case 'f': return "f";
    case 'g': return "k";
    case 'h': return "hh";
    case 'i': return "ih";
    case 'j': return "sh";
    case 'k': return "k";
    case 'l': return "l";
    case 'm': return "m";
    case 'n': return "n";
    case 'o': return "ow";
    case 'p': return "p";
    case 'q': return "k";
    case 'r': return "r";
    case 's': return "s";
    case 't': return "t";
    case 'u': return "uh";
    case 'v': return "v";
    case 'w': return "w";
    case 'x': return "z";
    case 'y': return "y";
    case 'z': return "z";
    case '0': return "ow";
    case '1': return "w";
    case '2': return "uw";
    case '3': return "iy";
    case '4': return "ao";
    case '5': return "f";
    case '6': return "s";
    case '7': return "eh";
    case '8': return "ae";
    case '9': return "n";
    default: return {};
  }
}

}  // namespace

std::vector<PhonemeId> Lexicon::GraphemeToPhoneme(std::string_view word) {
  std::vector<PhonemeId> phones;
  phones.reserve(word.size());
  std::size_t i = 0;
  while (i < word.size()) {
    bool matched = false;
    for (const auto& rule : kDigraphs) {
      if (word.substr(i, rule.graph.size()) == rule.graph) {
        phones.push_back(PhonemeByName(rule.phone));
        i += rule.graph.size();
        matched = true;
        break;
      }
    }
    if (matched) continue;
    const std::string_view phone = LetterPhone(word[i]);
    if (!phone.empty()) phones.push_back(PhonemeByName(phone));
    ++i;
  }
  if (phones.empty()) phones.push_back(PhonemeByName("ah"));
  return phones;
}

void Lexicon::Pronounce(std::string_view word,
                        std::vector<PhonemeId>& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(word);
  if (it == cache_.end()) {
    it = cache_.emplace(std::string(word), GraphemeToPhoneme(word)).first;
  }
  out.insert(out.end(), it->second.begin(), it->second.end());
}

void Lexicon::AddPronunciation(std::string word,
                               std::vector<PhonemeId> phones) {
  std::lock_guard<std::mutex> lock(mu_);
  cache_[std::move(word)] = std::move(phones);
}

std::vector<std::pair<std::string, std::vector<PhonemeId>>>
Lexicon::Entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, std::vector<PhonemeId>>> entries;
  entries.reserve(cache_.size());
  for (const auto& [word, phones] : cache_) {
    entries.emplace_back(word, phones);
  }
  return entries;
}

std::size_t Lexicon::cache_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.size();
}

}  // namespace rtsi::asr
