// Hash containers keyed by std::string that a std::string_view can probe
// without building a temporary string (heterogeneous lookup).

#ifndef RTSI_COMMON_STRING_HASH_H_
#define RTSI_COMMON_STRING_HASH_H_

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

namespace rtsi {

struct StringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

template <typename V>
using StringMap =
    std::unordered_map<std::string, V, StringHash, std::equal_to<>>;

using StringSet = std::unordered_set<std::string, StringHash, std::equal_to<>>;

}  // namespace rtsi

#endif  // RTSI_COMMON_STRING_HASH_H_
