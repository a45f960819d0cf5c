// Empirical checks of the paper's appendix complexity analysis:
//   Appendix A — total merge work for building the LSM-tree is
//   O(M * log_rho(M / delta)): every posting is rewritten at most once
//   per level it passes through, and the level count is logarithmic.
//   Appendix B — with the upper bound, query cost stays near-flat as the
//   index grows (the number of components is logarithmic and most are
//   pruned).

#include <gtest/gtest.h>

#include <cmath>

#include "common/latency_stats.h"
#include "core/rtsi_index.h"
#include "lsm/lsm_tree.h"
#include "lsm/merge.h"

namespace rtsi {
namespace {

using index::Posting;

TEST(LsmComplexityTest, LevelCountIsLogarithmic) {
  lsm::LsmTree::Config config;
  config.delta = 100;
  config.rho = 2.0;
  lsm::LsmTree tree(config);

  Timestamp t = 0;
  StreamId s = 0;
  const std::size_t total = 100 * 64;  // 64 * delta postings.
  for (std::size_t i = 0; i < total; ++i) {
    tree.AddPosting(static_cast<TermId>(i % 31), Posting{++s, 0.0f, ++t, 1});
    if (tree.NeedsMerge()) tree.MergeCascade(lsm::MergeHooks{});
  }
  // With rho=2 and M/delta=64, at most ~log2(64)+1 = 7 levels can exist.
  EXPECT_LE(tree.num_levels(), 7u);
  EXPECT_EQ(tree.total_postings(), total);
}

TEST(LsmComplexityTest, TotalMergeWorkIsLogLinear) {
  // Appendix A: summed merge input sizes ~ M * log_rho(M/delta).
  lsm::LsmTree::Config config;
  config.delta = 128;
  config.rho = 2.0;
  lsm::LsmTree tree(config);

  Timestamp t = 0;
  StreamId s = 0;
  const std::size_t total = 128 * 32;
  for (std::size_t i = 0; i < total; ++i) {
    // Distinct streams: no consolidation, so postings_in measures pure
    // rewrite volume.
    tree.AddPosting(static_cast<TermId>(i % 17), Posting{++s, 0.0f, ++t, 1});
    if (tree.NeedsMerge()) tree.MergeCascade(lsm::MergeHooks{});
  }
  const auto stats = tree.GetMergeStats();
  const double levels = std::log2(static_cast<double>(total) / config.delta);
  // Every posting is rewritten at most once per level traversal, plus the
  // freeze; allow a 2x envelope for cascade-boundary effects.
  EXPECT_LE(static_cast<double>(stats.postings_in),
            2.0 * static_cast<double>(total) * (levels + 1.0));
  EXPECT_GE(stats.postings_in, total);  // Everything merged at least once.
}

TEST(LsmComplexityTest, InsertionCostIndependentOfHistoryBetweenMerges) {
  // The paper: insertion is ~O(log m0) — appending to I0 does not get
  // slower as sealed levels accumulate. Compare per-posting time of an
  // early window of inserts with a late one (excluding merges).
  lsm::LsmTree::Config config;
  config.delta = 50'000;  // Large: no merge inside the measured windows.
  lsm::LsmTree tree(config);

  Timestamp t = 0;
  auto insert_block = [&](std::size_t n) {
    Stopwatch watch;
    for (std::size_t i = 0; i < n; ++i) {
      tree.AddPosting(static_cast<TermId>(i % 101),
                      Posting{i, 0.0f, ++t, 1});
    }
    return watch.ElapsedMicros() / static_cast<double>(n);
  };

  const double early = insert_block(10'000);
  insert_block(20'000);  // Grow.
  const double late = insert_block(10'000);
  // Appends must not degrade superlinearly; generous 5x envelope for
  // allocator noise on a busy CI box.
  EXPECT_LT(late, early * 5.0 + 1.0);
}

TEST(LsmComplexityTest, BoundKeepsQueryCostNearFlat) {
  // Appendix B via behaviour: with the bound, the components actually
  // visited per query stay small even as the index grows.
  core::RtsiConfig config;
  config.lsm.delta = 500;

  std::size_t visited_small = 0, visited_large = 0;
  for (const std::size_t num_streams : {500u, 4000u}) {
    core::RtsiIndex index(config);
    Timestamp t = 0;
    for (StreamId s = 0; s < num_streams; ++s) {
      index.InsertWindow(s, t += kMicrosPerSecond,
                         {{static_cast<TermId>(s % 50), 2},
                          {static_cast<TermId>(50 + s % 20), 1}},
                         false);
      index.FinishStream(s);
    }
    std::size_t visited = 0;
    for (TermId q = 0; q < 50; ++q) {
      core::QueryStats stats;
      index.Query({q}, 10, t, &stats);
      visited += stats.components_visited;
    }
    if (num_streams == 500u) {
      visited_small = visited;
    } else {
      visited_large = visited;
    }
  }
  // 8x more data must not mean 8x more visited components.
  EXPECT_LT(visited_large, visited_small * 4 + 50);
}

}  // namespace
}  // namespace rtsi
