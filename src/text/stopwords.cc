#include "text/stopwords.h"

#include <algorithm>

namespace rtsi::text {
namespace {

const char* const kDefaultStopwords[] = {
    "a",    "an",   "and",  "are",  "as",   "at",   "be",    "but",
    "by",   "for",  "from", "had",  "has",  "have", "he",    "her",
    "his",  "i",    "if",   "in",   "is",   "it",   "its",   "me",
    "my",   "no",   "not",  "of",   "on",   "or",   "our",   "she",
    "so",   "that", "the",  "their", "them", "then", "there", "they",
    "this", "to",   "up",   "us",   "was",  "we",   "were",  "what",
    "when", "who",  "will", "with", "you",  "your",
};

}  // namespace

StopwordFilter::StopwordFilter() {
  for (const char* word : kDefaultStopwords) words_.insert(word);
}

StopwordFilter::StopwordFilter(std::vector<std::string> words) {
  for (auto& word : words) words_.insert(std::move(word));
}

bool StopwordFilter::IsStopword(std::string_view token) const {
  return words_.contains(token);
}

std::vector<std::string> StopwordFilter::Filter(
    std::vector<std::string> tokens) const {
  tokens.erase(std::remove_if(tokens.begin(), tokens.end(),
                              [this](const std::string& t) {
                                return IsStopword(t);
                              }),
               tokens.end());
  return tokens;
}

}  // namespace rtsi::text
