// The posting record stored in RTSI inverted lists.
//
// RTSI's key idea (Section IV-B): score ingredients live *inside* the
// posting, so computing an audio stream's score never needs to consult a
// big per-term hash table (LSII) or visit other LSM components. Each
// posting carries a popularity snapshot, the freshness timestamp of the
// window that produced it, and the term frequency contributed by that
// window.

#ifndef RTSI_INDEX_POSTING_H_
#define RTSI_INDEX_POSTING_H_

#include <cstdint>

#include "common/types.h"

namespace rtsi::index {

struct Posting {
  // The two 8-byte fields lead so the two 4-byte fields pack behind them:
  // 24 bytes, no padding. The constructor keeps the historical argument
  // order (stream, pop, frsh, tf); braces still reject narrowing.
  StreamId stream = 0;
  Timestamp frsh = 0;   // Timestamp of the inserted audio window.
  float pop = 0.0f;     // Popularity snapshot at insertion time.
  TermFreq tf = 0;      // Term frequency contributed by the window.

  constexpr Posting() = default;
  constexpr Posting(StreamId stream_id, float pop_snapshot, Timestamp fresh,
                    TermFreq freq)
      : stream(stream_id), frsh(fresh), pop(pop_snapshot), tf(freq) {}

  friend bool operator==(const Posting& a, const Posting& b) {
    return a.stream == b.stream && a.pop == b.pop && a.frsh == b.frsh &&
           a.tf == b.tf;
  }
};

static_assert(sizeof(Posting) == 24, "Posting must stay unpadded");

/// Which of the three sorted inverted lists to traverse.
enum class SortKey {
  kPopularity = 0,
  kFreshness = 1,
  kTermFrequency = 2,
};

inline constexpr int kNumSortKeys = 3;

}  // namespace rtsi::index

#endif  // RTSI_INDEX_POSTING_H_
