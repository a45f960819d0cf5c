#include "asr/decoder.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

namespace rtsi::asr {
namespace {

constexpr double kLogFloor = -1e9;

// Framewise best phones via Viterbi over the phone-bigram model.
std::vector<PhonemeId> ViterbiPath(
    const std::vector<std::vector<ScoredPhone>>& frame_scores,
    const DecoderConfig& config) {
  const int num_frames = static_cast<int>(frame_scores.size());
  const int num_phones = PhonemeCount();
  const PhoneBigramModel& lm = *config.phone_lm;

  // Dense per-frame emission log-probs.
  std::vector<std::vector<double>> emission(
      num_frames, std::vector<double>(num_phones, kLogFloor));
  for (int t = 0; t < num_frames; ++t) {
    for (const ScoredPhone& s : frame_scores[t]) {
      emission[t][s.phone] =
          s.posterior > 0 ? std::log(s.posterior) : kLogFloor;
    }
  }

  std::vector<std::vector<double>> dp(
      num_frames, std::vector<double>(num_phones, kLogFloor));
  std::vector<std::vector<int>> back(
      num_frames, std::vector<int>(num_phones, 0));
  for (int p = 0; p < num_phones; ++p) {
    dp[0][p] = config.lm_weight * lm.LogInitial(static_cast<PhonemeId>(p)) +
               emission[0][p];
  }
  for (int t = 1; t < num_frames; ++t) {
    // Hoist the best previous state for the switch case.
    int best_prev = 0;
    for (int q = 1; q < num_phones; ++q) {
      if (dp[t - 1][q] > dp[t - 1][best_prev]) best_prev = q;
    }
    for (int p = 0; p < num_phones; ++p) {
      // Self loop.
      double best = dp[t - 1][p] + config.self_loop_logprob;
      int from = p;
      // Switching: evaluate all predecessors (the LM term is per-pair).
      for (int q = 0; q < num_phones; ++q) {
        if (q == p) continue;
        const double score =
            dp[t - 1][q] + config.switch_logprob +
            config.lm_weight * lm.LogTransition(static_cast<PhonemeId>(q),
                                                static_cast<PhonemeId>(p));
        if (score > best) {
          best = score;
          from = q;
        }
      }
      (void)best_prev;
      dp[t][p] = best + emission[t][p];
      back[t][p] = from;
    }
  }

  std::vector<PhonemeId> path(num_frames);
  int state = 0;
  for (int p = 1; p < num_phones; ++p) {
    if (dp[num_frames - 1][p] > dp[num_frames - 1][state]) state = p;
  }
  for (int t = num_frames - 1; t >= 0; --t) {
    path[t] = static_cast<PhonemeId>(state);
    state = back[t][state];
  }
  return path;
}

}  // namespace

LatticeDecoder::LatticeDecoder(const audio::MfccExtractor* extractor,
                               const AcousticModel* model,
                               const DecoderConfig& config)
    : extractor_(extractor), model_(model), config_(config) {}

PhoneticLattice LatticeDecoder::Decode(const audio::PcmBuffer& pcm) const {
  PhoneticLattice lattice;
  const std::vector<audio::MfccFrame> frames = extractor_->Extract(pcm);
  if (frames.empty()) return lattice;

  // Classify every frame once.
  std::vector<std::vector<ScoredPhone>> frame_scores;
  frame_scores.reserve(frames.size());
  for (const auto& frame : frames) {
    frame_scores.push_back(model_->Classify(frame));
  }

  // Framewise phone decisions: Viterbi smoothing or plain argmax.
  std::vector<PhonemeId> framewise(frames.size());
  if (config_.use_viterbi && config_.phone_lm != nullptr) {
    framewise = ViterbiPath(frame_scores, config_);
  } else {
    for (std::size_t f = 0; f < frames.size(); ++f) {
      framewise[f] = frame_scores[f].front().phone;
    }
  }

  // Group consecutive frames with the same phone into runs, accumulating
  // hypothesis mass.
  struct Run {
    PhonemeId best;
    std::size_t num_frames;
    std::map<PhonemeId, double> mass;
  };
  std::vector<Run> runs;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    if (runs.empty() || runs.back().best != framewise[f]) {
      runs.push_back({framewise[f], 0, {}});
    }
    Run& run = runs.back();
    ++run.num_frames;
    const auto& scored = frame_scores[f];
    const int keep = std::min<int>(config_.max_hypotheses_per_segment + 1,
                                   static_cast<int>(scored.size()));
    for (int i = 0; i < keep; ++i) {
      run.mass[scored[i].phone] += scored[i].posterior;
    }
  }

  // Drop micro-runs (transition frames between phones).
  std::vector<Run> kept;
  for (auto& run : runs) {
    if (run.num_frames >= config_.min_run_frames) {
      kept.push_back(std::move(run));
    } else if (!kept.empty()) {
      kept.back().num_frames += run.num_frames;  // Absorb into neighbour.
    }
  }

  lattice.Reserve(kept.size(),
                  kept.size() * config_.max_hypotheses_per_segment);
  std::vector<PhoneHypothesis> hyps;
  for (const Run& run : kept) {
    hyps.clear();
    double total = 0.0;
    for (const auto& [phone, mass] : run.mass) total += mass;
    for (const auto& [phone, mass] : run.mass) {
      hyps.push_back({phone, total > 0 ? mass / total : 0.0});
    }
    std::sort(hyps.begin(), hyps.end(),
              [](const PhoneHypothesis& a, const PhoneHypothesis& b) {
                return a.posterior > b.posterior;
              });
    if (hyps.size() >
        static_cast<std::size_t>(config_.max_hypotheses_per_segment)) {
      hyps.resize(config_.max_hypotheses_per_segment);
    }
    // The run's decoded phone must lead the hypothesis list.
    for (std::size_t i = 0; i < hyps.size(); ++i) {
      if (hyps[i].phone == run.best) {
        std::rotate(hyps.begin(), hyps.begin() + i, hyps.begin() + i + 1);
        break;
      }
    }
    // Viterbi can pick a phone whose averaged mass fell outside the kept
    // set; ensure it is represented.
    if (hyps.empty() || hyps.front().phone != run.best) {
      hyps.insert(hyps.begin(), {run.best, total > 0 ? 0.0 : 1.0});
      if (hyps.size() >
          static_cast<std::size_t>(config_.max_hypotheses_per_segment)) {
        hyps.resize(config_.max_hypotheses_per_segment);
      }
    }
    lattice.AddSegment(hyps);
  }
  return lattice;
}

}  // namespace rtsi::asr
