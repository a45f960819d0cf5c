// Tokenization of transcribed text into index terms.
//
// Splits on non-alphanumeric bytes, lowercases ASCII, and passes multi-byte
// UTF-8 sequences through untouched (so CJK transcripts segmented upstream
// survive). Tokens shorter than `min_token_length` are dropped.

#ifndef RTSI_TEXT_TOKENIZER_H_
#define RTSI_TEXT_TOKENIZER_H_

#include <cctype>
#include <string>
#include <string_view>
#include <vector>

namespace rtsi::text {

struct TokenizerConfig {
  std::size_t min_token_length = 2;
  std::size_t max_token_length = 64;
};

class Tokenizer {
 public:
  explicit Tokenizer(const TokenizerConfig& config = {});

  /// Calls fn(std::string_view token) for each lowercase token of `text`,
  /// in order. Each token is built in `buffer`, which the call reuses; the
  /// view is valid until `fn` returns.
  template <typename Fn>
  void ForEachToken(std::string_view text, std::string& buffer,
                    Fn&& fn) const;

  /// Splits `text` into lowercase tokens.
  std::vector<std::string> Tokenize(std::string_view text) const;

 private:
  TokenizerConfig config_;
};

template <typename Fn>
void Tokenizer::ForEachToken(std::string_view text, std::string& buffer,
                             Fn&& fn) const {
  buffer.clear();
  auto flush = [&] {
    if (buffer.size() >= config_.min_token_length &&
        buffer.size() <= config_.max_token_length) {
      fn(std::string_view(buffer));
    }
    buffer.clear();
  };

  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte >= 0x80) {
      buffer.push_back(c);  // UTF-8 continuation/lead byte: keep verbatim.
    } else if (std::isalnum(byte) != 0) {
      buffer.push_back(static_cast<char>(std::tolower(byte)));
    } else {
      flush();
    }
  }
  flush();
}

}  // namespace rtsi::text

#endif  // RTSI_TEXT_TOKENIZER_H_
