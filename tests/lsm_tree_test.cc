#include "lsm/lsm_tree.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <thread>

#include "common/rng.h"
#include "lsm/index_view.h"

namespace rtsi::lsm {

// Test back door: forces internal states that are hard to reach through
// the public API (e.g. a drifted L0 posting counter).
struct LsmTreeTestPeer {
  static void SetL0Counter(LsmTree& tree, std::size_t value) {
    tree.l0_postings_.store(value, std::memory_order_relaxed);
  }
};

namespace {

using index::InvertedIndex;
using index::Posting;

Posting P(StreamId s, Timestamp frsh, TermFreq tf) {
  return Posting{s, 0.0f, frsh, tf};
}

LsmTree::Config SmallConfig(std::size_t delta = 100, double rho = 2.0) {
  LsmTree::Config config;
  config.delta = delta;
  config.rho = rho;
  return config;
}

TEST(IndexViewTest, EmptyViewPublishedAtBirth) {
  LsmTree tree(SmallConfig());
  const IndexViewPtr view = tree.PinView();
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->epoch, 0u);
  EXPECT_TRUE(view->components.empty());
  EXPECT_EQ(tree.live_views(), 1);
}

TEST(IndexViewTest, PinnedViewSurvivesMergeAndRetiredIsFreed) {
  LsmTree tree(SmallConfig(100, 2.0));
  Timestamp t = 0;
  for (int i = 0; i < 150; ++i) tree.AddPosting(i % 10, P(i, ++t, 1));
  tree.MergeCascade(MergeHooks{});

  // Pin the current view, then force another cascade that replaces its
  // components. The pin must keep serving the old set unchanged. (Only
  // raw pointers are noted here: a shared_ptr copy would itself keep the
  // retired components alive and break the reclamation checks below.)
  IndexViewPtr pinned = tree.PinView();
  const std::size_t pinned_count = pinned->components.size();
  ASSERT_GT(pinned_count, 0u);
  const InvertedIndex* pinned_first = pinned->components.front().get();
  const std::uint64_t pinned_epoch = pinned->epoch;
  for (int i = 0; i < 150; ++i) tree.AddPosting(i % 10, P(i, ++t, 1));
  tree.MergeCascade(MergeHooks{});

  EXPECT_EQ(pinned->epoch, pinned_epoch);                    // Immutable.
  EXPECT_EQ(pinned->components.size(), pinned_count);        // Same set.
  EXPECT_EQ(pinned->components.front().get(), pinned_first);
  EXPECT_GT(tree.PinView()->epoch, pinned_epoch);    // New view published.
  // The old merge inputs are retired but alive: the pin references them.
  EXPECT_GT(tree.retired_components(), 0u);
  EXPECT_GT(tree.RetiredBytes(), 0u);

  // Dropping the last pin frees them (no mirror-style leak).
  pinned.reset();
  EXPECT_EQ(tree.retired_components(), 0u);
  EXPECT_EQ(tree.RetiredBytes(), 0u);
  EXPECT_EQ(tree.live_views(), 1);  // Only the published view remains.
}

TEST(LsmTreeTest, PostingsAccumulateInL0) {
  LsmTree tree(SmallConfig());
  Timestamp t = 0;
  for (int i = 0; i < 50; ++i) {
    tree.AddPosting(i % 5, P(i, ++t, 1));
  }
  EXPECT_EQ(tree.l0_postings(), 50u);
  EXPECT_FALSE(tree.NeedsMerge());
  EXPECT_EQ(tree.num_levels(), 0u);

  bool found = false;
  tree.WithL0Term(0, [&](const index::TermPostings* postings) {
    found = postings != nullptr && postings->size() == 10;
  });
  EXPECT_TRUE(found);
}

TEST(LsmTreeTest, MergeCascadeFreezesL0) {
  LsmTree tree(SmallConfig(100, 2.0));
  Timestamp t = 0;
  for (int i = 0; i < 150; ++i) {
    tree.AddPosting(i % 10, P(i, ++t, 1));
  }
  ASSERT_TRUE(tree.NeedsMerge());
  tree.MergeCascade(MergeHooks{});
  EXPECT_EQ(tree.l0_postings(), 0u);
  EXPECT_EQ(tree.num_levels(), 1u);
  EXPECT_EQ(tree.total_postings(), 150u);
  // Post-merge, nothing but the level residents is kept alive.
  EXPECT_EQ(tree.retired_components(), 0u);
  EXPECT_EQ(tree.PinView()->components.size(), 1u);

  const auto stats = tree.GetMergeStats();
  EXPECT_GE(stats.merges, 1u);
}

TEST(LsmTreeTest, L0EpochAdvancesOnEveryFreeze) {
  LsmTree tree(SmallConfig(10, 2.0));
  // Born at 1, so a stream stamp of 0 (never in L0) never matches it.
  EXPECT_EQ(tree.l0_epoch(), 1u);
  Timestamp t = 0;
  for (int i = 0; i < 20; ++i) tree.AddPosting(1, P(7, ++t, 1));
  EXPECT_EQ(tree.l0_epoch(), 1u);  // Appends leave the epoch alone.
  tree.MergeCascade(MergeHooks{});
  EXPECT_EQ(tree.l0_epoch(), 2u);
  for (int i = 0; i < 20; ++i) tree.AddPosting(2, P(8, ++t, 1));
  tree.MergeCascade(MergeHooks{});
  EXPECT_EQ(tree.l0_epoch(), 3u);
}

// A freeze reports each distinct stream of the frozen run twice: to
// on_stream while the run is not yet query-visible, and to on_settled
// (with no retired inputs) once it is published and the epoch moved on.
TEST(LsmTreeTest, FreezeReportsStreamsBeforeAndAfterPublication) {
  LsmTree tree(SmallConfig(10, 2.0));
  Timestamp t = 0;
  for (int i = 0; i < 12; ++i) tree.AddPosting(i % 3, P(i % 4, ++t, 1));
  const auto visible = [&](ComponentId id) {
    for (const auto& c : tree.PinView()->components) {
      if (c->component_id() == id) return true;
    }
    return false;
  };
  std::multiset<StreamId> before, after;
  ComponentId frozen_id = kInvalidComponentId;
  MergeHooks hooks;
  hooks.on_stream = [&](StreamId s, const InvertedIndex& component) {
    frozen_id = component.component_id();
    EXPECT_FALSE(visible(frozen_id));
    EXPECT_EQ(tree.l0_epoch(), 1u);
    before.insert(s);
  };
  hooks.on_settled = [&](StreamId s, const std::vector<ComponentId>& from) {
    EXPECT_TRUE(from.empty());
    EXPECT_TRUE(visible(frozen_id));
    EXPECT_EQ(tree.l0_epoch(), 2u);
    after.insert(s);
  };
  ASSERT_TRUE(tree.FreezeL0(hooks));
  EXPECT_EQ(before, (std::multiset<StreamId>{0, 1, 2, 3}));
  EXPECT_EQ(after, before);
}

TEST(LsmTreeTest, CascadePushesDownAtCapacity) {
  // delta=50, rho=2: level slot i holds at most 50 * 2^(i+1) postings.
  // Seven waves of 60 postings leave a binomial-counter profile of
  // 60 / 120 / 240 across three levels (wave 8 would collapse them all
  // into one deep component — also legal, so we stop at 7).
  LsmTree tree(SmallConfig(50, 2.0));
  Timestamp t = 0;
  StreamId s = 0;
  for (int wave = 0; wave < 7; ++wave) {
    for (int i = 0; i < 60; ++i) {
      tree.AddPosting(i % 7, P(++s, ++t, 1));
    }
    if (tree.NeedsMerge()) tree.MergeCascade(MergeHooks{});
  }
  EXPECT_EQ(tree.total_postings(), 7u * 60u);
  EXPECT_GE(tree.num_levels(), 2u);

  // Level sizes respect the geometric capacities.
  const auto snapshot = tree.SealedSnapshot();
  std::size_t total = tree.l0_postings();
  for (const auto& component : snapshot) {
    total += component->num_postings();
    const double capacity = 50.0 * std::pow(2.0, component->level());
    EXPECT_LE(static_cast<double>(component->num_postings()), capacity)
        << "level " << component->level();
  }
  EXPECT_EQ(total, 7u * 60u);
}

TEST(LsmTreeTest, SnapshotSeesEveryPostingDuringAndAfterMerges) {
  LsmTree tree(SmallConfig(64, 2.0));
  Rng rng(5);
  Timestamp t = 0;
  std::size_t inserted = 0;
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 40; ++i) {
      tree.AddPosting(static_cast<TermId>(rng.NextUint64(13)),
                      P(rng.NextUint64(50), ++t, 1));
      ++inserted;
    }
    if (tree.NeedsMerge()) tree.MergeCascade(MergeHooks{});
    // Count every posting reachable via snapshot + L0.
    std::size_t visible = tree.l0_postings();
    for (const auto& component : tree.SealedSnapshot()) {
      visible += component->num_postings();
    }
    // Consolidation can only reduce posting count; totals from summed tf
    // must match exactly, so just check visible <= inserted and that the
    // tf mass is preserved.
    std::uint64_t tf_mass = 0;
    for (const auto& component : tree.SealedSnapshot()) {
      component->ForEachTerm([&](TermId, const index::TermPostings& p) {
        for (const auto& posting : p.entries()) tf_mass += posting.tf;
      });
    }
    for (TermId term = 0; term < 13; ++term) {
      tree.WithL0Term(term, [&](const index::TermPostings* postings) {
        if (postings == nullptr) return;
        for (const auto& posting : postings->entries()) {
          tf_mass += posting.tf;
        }
      });
    }
    ASSERT_EQ(tf_mass, inserted) << "round " << round;
    ASSERT_LE(visible, inserted);
  }
}

// Feeds a plain and a Huffman-compressed tree the same 2000 postings:
// term i % 20, stream stream_of(i), one timestamp per posting.
template <typename StreamOf>
void FeedPlainAndCompressed(LsmTree& plain_tree, LsmTree& compressed_tree,
                            StreamOf stream_of) {
  Timestamp t = 0;
  for (int i = 0; i < 2000; ++i) {
    const Posting p = P(stream_of(i), ++t, 1 + i % 4);
    plain_tree.AddPosting(i % 20, p);
    compressed_tree.AddPosting(i % 20, p);
    if (plain_tree.NeedsMerge()) plain_tree.MergeCascade(MergeHooks{});
    if (compressed_tree.NeedsMerge()) {
      compressed_tree.MergeCascade(MergeHooks{});
    }
  }
}

TEST(LsmTreeTest, HuffmanCompressionShrinksSealedComponents) {
  auto config = SmallConfig(200, 2.0);
  LsmTree plain_tree(config);
  config.compress = true;
  LsmTree compressed_tree(config);

  // Term k only ever sees streams k, k+20, ..., k+80, each many times, so
  // every sealed list folds to 5 postings. A Huffman blob carries a fixed
  // code table (a u32 length and 256 code-length bytes) per list, which
  // outweighs 5 plain sealed postings (36 B each): compression shrinks the
  // coded postings, and the table is the whole of its cost on lists this
  // short. Longer lists are covered below.
  FeedPlainAndCompressed(plain_tree, compressed_tree,
                         [](int i) { return i % 100; });
  constexpr std::size_t kCodeTableBytes = sizeof(std::uint32_t) + 256;
  std::size_t sealed_lists = 0;
  for (const auto& component : compressed_tree.SealedSnapshot()) {
    sealed_lists += component->num_terms();
  }
  ASSERT_GT(sealed_lists, 0u);
  EXPECT_LT(compressed_tree.MemoryBytes() - kCodeTableBytes * sealed_lists,
            plain_tree.MemoryBytes());
  EXPECT_EQ(compressed_tree.total_postings(), plain_tree.total_postings());
}

TEST(LsmTreeTest, HuffmanCompressionShrinksLongLists) {
  auto config = SmallConfig(200, 2.0);
  LsmTree plain_tree(config);
  config.compress = true;
  LsmTree compressed_tree(config);

  // Every term spans all 100 streams, so the sealed lists are long enough
  // for compression to pay for its code tables outright.
  FeedPlainAndCompressed(plain_tree, compressed_tree,
                         [](int i) { return (i / 20) % 100; });
  EXPECT_LT(compressed_tree.MemoryBytes(), plain_tree.MemoryBytes());
  EXPECT_EQ(compressed_tree.total_postings(), plain_tree.total_postings());
}

TEST(LsmTreeTest, DriftedCounterCascadePublishesNothing) {
  // Regression for the double epoch bump: when a cascade fired with no
  // actual L0 postings behind the counter, FreezeL0 published a
  // permanently empty component and the early-return erased it with a
  // *second* publish — readers pinning the intermediate epoch saw the
  // empty component. Now nothing is published at all.
  LsmTree tree(SmallConfig(10, 2.0));
  LsmTreeTestPeer::SetL0Counter(tree, 1000);  // Shards are empty.
  ASSERT_TRUE(tree.NeedsMerge());
  const std::uint64_t epoch = tree.epoch();
  tree.MergeCascade(MergeHooks{});
  EXPECT_EQ(tree.epoch(), epoch);  // No transient view was published.
  EXPECT_EQ(tree.l0_epoch(), 1u);  // Nor did the L0 epoch move.
  EXPECT_TRUE(tree.PinView()->components.empty());
  EXPECT_EQ(tree.num_levels(), 0u);
  EXPECT_FALSE(tree.NeedsMerge());  // Counter was reset regardless.
  // The tree keeps working normally afterwards (distinct streams, so
  // merge consolidation folds nothing).
  Timestamp t = 0;
  for (StreamId s = 0; s < 20; ++s) tree.AddPosting(1, P(s, ++t, 1));
  tree.MergeCascade(MergeHooks{});
  EXPECT_EQ(tree.total_postings(), 20u);
  for (const auto& component : tree.SealedSnapshot()) {
    EXPECT_FALSE(component->empty());
  }
}

TEST(LsmTreeTest, RestoreAcceptsLevelZeroAndSharedLevels) {
  // Mid-cascade snapshots legitimately contain a frozen L0 component
  // (level 0) and several components on one level; restore must accept
  // all of them and the next cascade re-plans from that shape.
  LsmTree tree(SmallConfig(10, 2.0));
  auto frozen = std::make_shared<InvertedIndex>(0);
  frozen->Add(1, P(1, 100, 1));
  frozen->SealAll();
  auto run_a = std::make_shared<InvertedIndex>(1);
  run_a->Add(1, P(2, 200, 1));
  run_a->SealAll();
  auto run_b = std::make_shared<InvertedIndex>(1);
  run_b->Add(1, P(3, 300, 1));
  run_b->SealAll();

  ASSERT_TRUE(tree.RestoreSealedComponent(frozen).ok());
  ASSERT_TRUE(tree.RestoreSealedComponent(run_a).ok());
  ASSERT_TRUE(tree.RestoreSealedComponent(run_b).ok());
  EXPECT_EQ(tree.num_runs(), 3u);
  EXPECT_EQ(tree.num_levels(), 2u);
  EXPECT_EQ(tree.RunsPerLevel(), (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(tree.total_postings(), 3u);
  EXPECT_EQ(tree.PinView()->components.size(), 3u);

  // The next cascade folds the restored shape back to steady state
  // (distinct streams, so consolidation folds nothing).
  Timestamp t = 1000;
  for (StreamId s = 100; s < 120; ++s) tree.AddPosting(1, P(s, ++t, 1));
  tree.MergeCascade(MergeHooks{});
  EXPECT_EQ(tree.total_postings(), 23u);
  // Geometric steady state: at most one run per level, no level-0 run.
  const auto runs = tree.RunsPerLevel();
  EXPECT_TRUE(runs.empty() || runs[0] == 0u);
  for (const std::size_t count : runs) EXPECT_LE(count, 1u);
}

TEST(LsmTreeTest, ConcurrentInsertAndQueryDuringMerges) {
  LsmTree tree(SmallConfig(256, 2.0));
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> queries_ok{0};

  std::thread reader([&] {
    while (!stop.load()) {
      const auto snapshot = tree.SealedSnapshot();
      std::size_t total = 0;
      for (const auto& component : snapshot) {
        total += component->num_postings();
      }
      (void)total;
      tree.WithL0Term(3, [&](const index::TermPostings* postings) {
        if (postings != nullptr) {
          // The freshness view must be readable while writers append.
          volatile Timestamp x = postings->max_frsh();
          (void)x;
        }
      });
      queries_ok.fetch_add(1);
    }
  });

  Timestamp t = 0;
  for (int i = 0; i < 20000; ++i) {
    tree.AddPosting(i % 11, P(i % 200, ++t, 1));
    if (tree.NeedsMerge()) tree.MergeCascade(MergeHooks{});
  }
  stop.store(true);
  reader.join();
  EXPECT_GT(queries_ok.load(), 0u);
  EXPECT_EQ(tree.total_postings(), tree.l0_postings() + [&] {
    std::size_t sealed = 0;
    for (const auto& c : tree.SealedSnapshot()) sealed += c->num_postings();
    return sealed;
  }());
}

}  // namespace
}  // namespace rtsi::lsm
