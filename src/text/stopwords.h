// Stop-word filtering (the paper's 32M-word corpus excludes stop words).

#ifndef RTSI_TEXT_STOPWORDS_H_
#define RTSI_TEXT_STOPWORDS_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/string_hash.h"

namespace rtsi::text {

class StopwordFilter {
 public:
  /// Built-in English list.
  StopwordFilter();

  /// Custom list.
  explicit StopwordFilter(std::vector<std::string> words);

  bool IsStopword(std::string_view token) const;

  /// Removes stop words in place; returns the filtered vector for chaining.
  std::vector<std::string> Filter(std::vector<std::string> tokens) const;

  std::size_t size() const { return words_.size(); }

 private:
  StringSet words_;
};

}  // namespace rtsi::text

#endif  // RTSI_TEXT_STOPWORDS_H_
