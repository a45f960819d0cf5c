// Configuration of the RTSI index (Table III defaults).
//
// The paper's Table III is partially garbled in the available text; the
// defaults here are our documented choices (see DESIGN.md §4) and every
// bench sweeps the variables the paper varies.

#ifndef RTSI_CORE_CONFIG_H_
#define RTSI_CORE_CONFIG_H_

#include "lsm/lsm_tree.h"

namespace rtsi::core {

/// Weights of Equation 1: f(q,p) = wp*pop + wr*rel + wf*frsh.
struct ScoreWeights {
  double pop = 0.3;
  double rel = 0.5;
  double frsh = 0.2;
};

/// How the popularity part of the pruning bound is computed.
enum class BoundMode {
  /// Per-term popularity/freshness snapshots from the inverted lists (the
  /// paper's design). Exact unless popularity or freshness updates landed
  /// after insertion: stale snapshots can under-estimate a component's
  /// bound, so early termination may drop a drift-affected stream the
  /// full walk would have returned.
  kSnapshot,
  /// Global ceilings — the maximum popularity counter and the maximum
  /// live freshness: looser but always sound, even under post-seal
  /// updates — pruning can then never change the result set.
  kGlobalPop,
};

struct RtsiConfig {
  /// LSM knobs: I0's capacity lsm.delta (postings, >= 1), the level size
  /// ratio lsm.rho (> 1) of Algorithm 1's cascade, and Huffman
  /// compression of merged components. Merging has one path: the insert
  /// that takes L0 past lsm.delta freezes it on its own thread (a seal
  /// and a publish), and the cascade runs on the index's merge thread.
  lsm::LsmTree::Config lsm;
  ScoreWeights weights;
  double freshness_tau_seconds = 6.0 * 3600.0;  // Exponential decay scale.
  /// Top-k early termination (Figure 17). On, the planner also consults
  /// the sealed components' skip headers: the per-component term Bloom
  /// filter proves query terms absent (skipping the component without
  /// touching its posting maps), the per-term summaries replace the
  /// hash-map Bounds() lookups, and candidates are admission-screened
  /// against the current top-k threshold before full scoring. Screening
  /// drops a candidate only when a sound upper bound of its score is
  /// strictly below the k-th score (see DESIGN.md §6f). Off = the full
  /// walk: every sealed component to exhaustion, no pruning structure
  /// consulted — the reference path every soundness oracle compares to.
  bool use_bound = true;
  BoundMode bound_mode = BoundMode::kSnapshot;
};

}  // namespace rtsi::core

#endif  // RTSI_CORE_CONFIG_H_
