#include "asr/lattice.h"

namespace rtsi::asr {

void AppendUnitName(std::span<const PhonemeId> phones, std::string& out) {
  for (std::size_t i = 0; i < phones.size(); ++i) {
    if (i > 0) out += '_';
    out += PhonemeName(phones[i]);
  }
}

void PhoneticLattice::AddSegment(
    std::span<const PhoneHypothesis> hypotheses) {
  if (hypotheses.empty()) return;
  segments_.push_back({static_cast<std::uint32_t>(hypotheses_.size()),
                       static_cast<std::uint32_t>(hypotheses.size())});
  hypotheses_.insert(hypotheses_.end(), hypotheses.begin(), hypotheses.end());
}

std::vector<PhonemeId> PhoneticLattice::BestPath() const {
  std::vector<PhonemeId> path;
  path.reserve(segments_.size());
  for (const LatticeSegment& segment : segments_) {
    path.push_back(hypotheses_[segment.first].phone);
  }
  return path;
}

}  // namespace rtsi::asr
