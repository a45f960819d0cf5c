// Phonetic lattices: the sound-based representation indexed by RTSI.
//
// A lattice is a sequence of time segments; each segment carries a ranked
// set of phone hypotheses with posteriors. Indexable "lattice units" are
// phone n-grams drawn from the hypotheses (the paper indexes lattice units
// as the terms of the sound LSM-tree).
//
// Every segment's hypotheses live in one flat array; a segment is an
// offset and a count into it, so building a lattice costs no allocation
// per segment.

#ifndef RTSI_ASR_LATTICE_H_
#define RTSI_ASR_LATTICE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "asr/phoneme.h"

namespace rtsi::asr {

struct PhoneHypothesis {
  PhonemeId phone = 0;
  double posterior = 0.0;  // In (0, 1]; hypotheses in a segment sum <= 1.
};

struct LatticeSegment {
  std::uint32_t first = 0;  // Offset of the segment's hypotheses.
  std::uint32_t count = 0;  // Never 0 (see AddSegment).
};

/// Appends the unit name of a phone n-gram, "p1_p2_...", to `out`.
void AppendUnitName(std::span<const PhonemeId> phones, std::string& out);

class PhoneticLattice {
 public:
  /// Appends a segment whose hypotheses are ranked best-first. A segment
  /// without hypotheses is not added, so every segment has a best phone.
  void AddSegment(std::span<const PhoneHypothesis> hypotheses);

  void Reserve(std::size_t segments, std::size_t hypotheses) {
    segments_.reserve(segments);
    hypotheses_.reserve(hypotheses);
  }

  const std::vector<LatticeSegment>& segments() const { return segments_; }
  bool empty() const { return segments_.empty(); }
  std::size_t size() const { return segments_.size(); }

  /// Hypotheses of segment `i`, best first.
  std::span<const PhoneHypothesis> hypotheses(std::size_t i) const {
    return {hypotheses_.data() + segments_[i].first, segments_[i].count};
  }

  /// Best (rank-0) phone sequence.
  std::vector<PhonemeId> BestPath() const;

  /// Visits the indexable lattice units: phone n-grams of order `n` over
  /// the best path, each followed by the n-grams that substitute one
  /// slot's second hypothesis when its posterior is >= `alt_threshold`.
  /// Each unit is rendered like "s_ih_ng" into one buffer the call
  /// reuses and passed to `fn` as a std::string_view, valid until `fn`
  /// returns.
  template <typename Fn>
  void ExtractUnits(int n, double alt_threshold, Fn&& fn) const;

 private:
  std::vector<LatticeSegment> segments_;
  std::vector<PhoneHypothesis> hypotheses_;
};

template <typename Fn>
void PhoneticLattice::ExtractUnits(int n, double alt_threshold,
                                   Fn&& fn) const {
  if (n <= 0 || segments_.size() < static_cast<std::size_t>(n)) return;
  const std::size_t order = static_cast<std::size_t>(n);
  std::vector<PhonemeId> gram(order);
  std::string unit;
  for (std::size_t start = 0; start + order <= segments_.size(); ++start) {
    for (std::size_t i = 0; i < order; ++i) {
      gram[i] = hypotheses_[segments_[start + i].first].phone;
    }
    unit.clear();
    AppendUnitName(gram, unit);
    fn(std::string_view(unit));

    // Alternative units: substitute the runner-up hypothesis at each slot
    // of the window when it is confident enough. One substitution at a
    // time keeps the unit count linear in lattice size.
    for (std::size_t i = 0; i < order; ++i) {
      const std::span<const PhoneHypothesis> hyps = hypotheses(start + i);
      if (hyps.size() >= 2 && hyps[1].posterior >= alt_threshold) {
        const PhonemeId saved = gram[i];
        gram[i] = hyps[1].phone;
        unit.clear();
        AppendUnitName(gram, unit);
        fn(std::string_view(unit));
        gram[i] = saved;
      }
    }
  }
}

}  // namespace rtsi::asr

#endif  // RTSI_ASR_LATTICE_H_
