// Scoring (Equation 1): f(q,p) = wp*pop(p) + wr*rel(q,p) + wf*frsh(p).
//
// - pop:  log-scaled play counter, normalized by the global maximum.
// - frsh: exponential decay of the stream's age, newest = 1.
// - rel:  per-term (1 + ln tf) * idf, averaged over query terms and
//         squashed to [0, 1) with x / (1 + x). The squash is monotone, so
//         upper bounds computed from per-list maxima stay valid.
//
// The pieces are inline: the query path's header-only templates call
// them once per candidate and term.

#ifndef RTSI_CORE_SCORER_H_
#define RTSI_CORE_SCORER_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>

#include "common/types.h"
#include "core/config.h"

namespace rtsi::core {

/// 1 + ln(tf) for tf in [1, kOnePlusLnTableSize), computed with std::log
/// at startup, so a table read is bit-identical to computing it inline.
/// Entry 0 is unused.
inline constexpr std::size_t kOnePlusLnTableSize = 256;
extern const std::array<double, kOnePlusLnTableSize> kOnePlusLnTable;

class Scorer {
 public:
  Scorer(const ScoreWeights& weights, double freshness_tau_seconds)
      : weights_(weights),
        tau_seconds_(std::max(freshness_tau_seconds, 1.0)) {}

  /// Popularity in [0, 1]: log1p(count) / log1p(max_count).
  double PopScore(std::uint64_t pop_count,
                  std::uint64_t max_pop_count) const {
    if (max_pop_count == 0) return 0.0;
    return std::log1p(static_cast<double>(pop_count)) /
           std::log1p(static_cast<double>(max_pop_count));
  }

  /// Freshness in (0, 1]: exp(-(now - frsh) / tau).
  double FrshScore(Timestamp frsh, Timestamp now) const {
    const double age_seconds =
        std::max<double>(0.0, static_cast<double>(now - frsh)) /
        static_cast<double>(kMicrosPerSecond);
    return std::exp(-age_seconds / tau_seconds_);
  }

  /// Contribution of one query term: (1 + ln tf) * idf; 0 when tf == 0.
  double TermTfIdf(TermFreq tf, double idf) const {
    if (tf == 0) return 0.0;
    if (tf < kOnePlusLnTableSize) return kOnePlusLnTable[tf] * idf;
    return (1.0 + std::log(static_cast<double>(tf))) * idf;
  }

  /// Relevance in [0, 1): squash(sum_tfidf / num_query_terms).
  double RelScore(double tfidf_sum, int num_query_terms) const {
    if (num_query_terms <= 0 || tfidf_sum <= 0.0) return 0.0;
    const double mean = tfidf_sum / num_query_terms;
    return mean / (1.0 + mean);
  }

  /// Equation 1.
  double Combine(double pop_score, double rel_score,
                 double frsh_score) const {
    return weights_.pop * pop_score + weights_.rel * rel_score +
           weights_.frsh * frsh_score;
  }

  const ScoreWeights& weights() const { return weights_; }
  double tau_seconds() const { return tau_seconds_; }

 private:
  ScoreWeights weights_;
  double tau_seconds_;
};

}  // namespace rtsi::core

#endif  // RTSI_CORE_SCORER_H_
