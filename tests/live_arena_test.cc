// Arena lifecycle through the full index: quarantine of retired arenas
// under pinned views, free-list recycling, and the kLiveArena gauge
// balancing to zero when everything is released.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/memory_tracker.h"
#include "core/rtsi_index.h"
#include "lsm/index_view.h"
#include "lsm/lsm_tree.h"
#include "lsm/merge.h"

namespace rtsi::core {
namespace {

RtsiConfig SmallConfig() {
  RtsiConfig config;
  config.lsm.delta = 512;  // Small I0: a few hundred windows per freeze.
  return config;
}

// Deterministic synthetic ingest: streams with skewed term vocabularies,
// popularity updates, finishes and deletes, enough volume to force
// several freeze+merge cascades at delta = 512.
void Feed(RtsiIndex& index, int num_streams, int windows_per_stream) {
  Timestamp now = 1000;
  for (int w = 0; w < windows_per_stream; ++w) {
    for (StreamId s = 0; s < static_cast<StreamId>(num_streams); ++s) {
      std::vector<TermCount> terms;
      for (int t = 0; t < 6; ++t) {
        const auto term = static_cast<TermId>((s * 7 + w * 3 + t * t) % 53);
        const auto tf = static_cast<TermFreq>(1 + (s + w + t) % 4);
        terms.push_back({term, tf});
      }
      terms.push_back({static_cast<TermId>(s % 53), 0});  // tf == 0 noise.
      index.InsertWindow(s, now, terms, /*live=*/true);
      now += 7;
      if ((s + w) % 11 == 0) index.UpdatePopularity(s, 3 + s % 5);
    }
  }
  for (StreamId s = 0; s < static_cast<StreamId>(num_streams); s += 9) {
    index.FinishStream(s);
  }
  for (StreamId s = 3; s < static_cast<StreamId>(num_streams); s += 17) {
    index.DeleteStream(s);
  }
  index.WaitForMerges();
}

TEST(LiveArenaTest, RetiredArenasQuarantinedUntilPinnedViewDrops) {
  // Deterministic quarantine check at the LsmTree level: pin the view
  // from inside the merge (via the memoized is_deleted hook, which runs
  // after the frozen component was published and before the merge output
  // replaces it), so the pin provably holds the frozen component — and
  // with it the retired ingest arenas quarantined at FreezeL0.
  lsm::LsmTree::Config config;
  config.delta = 256;
  lsm::LsmTree tree(config);
  const std::shared_ptr<MemoryTracker> tracker = tree.memory_tracker();

  for (std::size_t i = 0; i < config.delta + 64; ++i) {
    tree.AddPosting(static_cast<TermId>(i % 37),
                    {static_cast<StreamId>(i % 19), 1.0f,
                     static_cast<Timestamp>(1000 + i), 1});
  }
  const std::size_t ingest_bytes = tracker->bytes(MemCategory::kLiveArena);
  ASSERT_GT(ingest_bytes, 0u);
  ASSERT_EQ(tree.ArenaStats().owned_bytes, ingest_bytes);

  lsm::IndexViewPtr pin;
  lsm::MergeHooks hooks;
  hooks.is_deleted = [&](StreamId) {
    if (pin == nullptr) pin = tree.PinView();
    return false;
  };
  tree.MergeCascade(hooks);
  ASSERT_NE(pin, nullptr);

  // The frozen component left the published view (merged into L1) but is
  // alive through the pin; its quarantined arenas keep every slab byte
  // charged. The fresh post-rotation arenas own nothing yet.
  EXPECT_GT(tree.retired_components(), 0u);
  EXPECT_EQ(tree.ArenaStats().owned_bytes, 0u);
  EXPECT_EQ(tracker->bytes(MemCategory::kLiveArena), ingest_bytes);

  // Last pin drops -> the component dies -> wholesale arena free.
  pin.reset();
  EXPECT_EQ(tracker->bytes(MemCategory::kLiveArena), 0u);
}

TEST(LiveArenaTest, GaugeBalancesToZeroWhenIndexDies) {
  auto index = std::make_unique<RtsiIndex>(SmallConfig());
  const std::shared_ptr<MemoryTracker> tracker =
      index->tree().memory_tracker();
  Feed(*index, 30, 10);
  ASSERT_GT(tracker->bytes(MemCategory::kLiveArena), 0u);
  // Destroying the index releases every arena byte: current L0 arenas,
  // live-table arenas, and any still-quarantined retirees.
  index.reset();
  EXPECT_EQ(tracker->bytes(MemCategory::kLiveArena), 0u);
}

TEST(LiveArenaTest, FreelistAbsorbsSteadyStateChurn) {
  // After enough windows, the live path should mostly recycle: upstream
  // (operator new) allocations must be a small fraction of requests.
  RtsiIndex index(SmallConfig());
  Feed(index, 40, 15);
  const WindowArena::Stats stats = index.LiveArenaStats();
  ASSERT_GT(stats.requests, 1000u);
  EXPECT_LT(stats.upstream_allocations, stats.requests / 10);
}

}  // namespace
}  // namespace rtsi::core
