#include "text/tokenizer.h"

namespace rtsi::text {

Tokenizer::Tokenizer(const TokenizerConfig& config) : config_(config) {}

std::vector<std::string> Tokenizer::Tokenize(std::string_view text) const {
  std::vector<std::string> tokens;
  std::string buffer;
  ForEachToken(text, buffer, [&tokens](std::string_view token) {
    tokens.emplace_back(token);
  });
  return tokens;
}

}  // namespace rtsi::text
