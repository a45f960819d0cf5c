// One merge path: the insert that takes L0 past delta freezes it on its
// own thread, and the cascade runs on the index's merge thread. Results,
// structure and live-term eviction must not depend on where a merge runs
// or how far it has got, and shutdown must drain.

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/rtsi_index.h"

namespace rtsi::core {
namespace {

RtsiConfig SmallConfig() {
  RtsiConfig config;
  config.lsm.delta = 150;
  return config;
}

std::vector<TermCount> RandomTerms(Rng& rng, TermId vocab, int count) {
  std::vector<TermCount> terms;
  std::set<TermId> used;
  for (int i = 0; i < count; ++i) {
    const auto term = static_cast<TermId>(rng.NextUint64(vocab));
    if (used.insert(term).second) {
      terms.push_back({term, 1 + static_cast<TermFreq>(rng.NextUint64(3))});
    }
  }
  return terms;
}

void ExpectBitIdentical(const std::vector<ScoredStream>& a,
                        const std::vector<ScoredStream>& b,
                        const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].stream, b[i].stream) << label << " rank " << i;
    ASSERT_EQ(std::memcmp(&a[i].score, &b[i].score, sizeof(double)), 0)
        << label << " rank " << i << ": " << a[i].score << " vs "
        << b[i].score;
  }
}

TEST(BackgroundMergeTest, CascadesRunOnTheMergeThread) {
  RtsiIndex index(SmallConfig());
  const std::thread::id writer = std::this_thread::get_id();
  std::size_t writer_steps = 0;
  std::size_t merge_thread_steps = 0;
  index.SetCascadeObserver([&] {
    // The writer is either running the freeze or blocked in WaitForMerges
    // while the merge thread runs a step, so these counters never race.
    if (std::this_thread::get_id() == writer) {
      ++writer_steps;
    } else {
      ++merge_thread_steps;
    }
  });
  Timestamp t = 0;
  for (StreamId s = 0; s < 200; ++s) {
    index.InsertWindow(s, t += kMicrosPerSecond, {{10, 1}, {11, 1}}, false);
    // The freeze runs on the inserting thread: I0 never exceeds delta.
    ASSERT_LE(index.tree().l0_postings(), index.config().lsm.delta) << s;
    index.FinishStream(s);
    index.WaitForMerges();
  }
  index.SetCascadeObserver(nullptr);
  EXPECT_GT(index.GetMergeStats().merges, 0u);
  EXPECT_EQ(index.tree().total_postings(), 400u);
  EXPECT_GT(writer_steps, 0u);  // One per freeze.
  EXPECT_GT(merge_thread_steps, 0u);  // One per merge swap.
}

// Placement: the same op sequence, once with WaitForMerges() after every
// insert (each cascade done before the next op, as if inline) and once
// waiting only before deletions. With one writer every freeze waits for
// the cascade before it, so both end with the same sealed structure and
// bit-identical answers. A deletion that overlaps a running cascade is
// purged by it rather than by a later merge — which changes when
// postings leave, not what queries return — so deletions settle first.
TEST(BackgroundMergeTest, PlacementChangesNeitherStructureNorResults) {
  constexpr TermId kVocab = 40;
  RtsiConfig config = SmallConfig();
  config.lsm.rho = 2.0;
  RtsiIndex waited(config);
  RtsiIndex unwaited(config);

  Rng rng(17);
  Timestamp t = 0;
  std::vector<int> windows_left(60, 0);
  for (int step = 0; step < 3000; ++step) {
    t += kMicrosPerSecond;
    const auto stream = static_cast<StreamId>(rng.NextUint64(60));
    if (windows_left[stream] == 0) {
      // A new broadcast, or one resuming after it finished.
      windows_left[stream] = 1 + static_cast<int>(rng.NextUint64(6));
    }
    const bool live = --windows_left[stream] > 0;
    const auto terms = RandomTerms(rng, kVocab, 4);
    for (RtsiIndex* index : {&waited, &unwaited}) {
      index->InsertWindow(stream, t, terms, live);
      if (!live) index->FinishStream(stream);
    }
    waited.WaitForMerges();
    if (rng.NextBool(0.1)) {
      const auto target = static_cast<StreamId>(rng.NextUint64(60));
      const std::uint64_t delta = 1 + rng.NextUint64(50);
      waited.UpdatePopularity(target, delta);
      unwaited.UpdatePopularity(target, delta);
    }
    if (rng.NextBool(0.005)) {
      const auto target = static_cast<StreamId>(rng.NextUint64(60));
      unwaited.WaitForMerges();
      waited.DeleteStream(target);
      unwaited.DeleteStream(target);
    }
  }
  unwaited.WaitForMerges();

  EXPECT_EQ(waited.tree().RunsPerLevel(), unwaited.tree().RunsPerLevel());
  EXPECT_EQ(waited.tree().total_postings(),
            unwaited.tree().total_postings());
  const lsm::MergeStats a = waited.GetMergeStats();
  const lsm::MergeStats b = unwaited.GetMergeStats();
  EXPECT_GT(a.merges, 0u);
  EXPECT_EQ(a.merges, b.merges);
  EXPECT_EQ(a.postings_in, b.postings_in);
  EXPECT_EQ(a.postings_out, b.postings_out);
  EXPECT_EQ(a.consolidated_postings, b.consolidated_postings);
  EXPECT_EQ(a.purged_postings, b.purged_postings);
  EXPECT_EQ(waited.live_table().num_streams(),
            unwaited.live_table().num_streams());

  for (const bool use_bound : {true, false}) {
    waited.SetUseBound(use_bound);
    unwaited.SetUseBound(use_bound);
    for (TermId q = 0; q < kVocab; ++q) {
      const std::vector<TermId> terms = {q, (q + 13) % kVocab};
      ExpectBitIdentical(waited.Query(terms, 10, t),
                         unwaited.Query(terms, 10, t),
                         std::string(use_bound ? "pruned" : "full") +
                             " query " + std::to_string(q));
      if (HasFatalFailure()) return;
    }
  }
}

// Live-term eviction is right whatever thread merges: once merges are
// done, no stream stays in the live-term table if it is finished,
// resident in at most one component and has no postings in L0. Cohorts
// of four-window streams finish throughout, many with their last window
// still in L0 when they finish, and one finishes from inside a running
// cascade.
TEST(BackgroundMergeTest, FinishedConsolidatedStreamsLeaveLiveTable) {
  RtsiConfig config = SmallConfig();
  config.lsm.delta = 2000;
  RtsiIndex index(config);
  constexpr TermId kVocab = 500;
  constexpr StreamId kMidCascade = 0;  // Finishes while a cascade runs.
  constexpr StreamId kCohort = 64;
  constexpr StreamId kStreams = 1 + 100 * kCohort;

  Rng rng(23);
  Timestamp t = 0;
  index.InsertWindow(kMidCascade, t += kMicrosPerSecond,
                     RandomTerms(rng, kVocab, 4), true);
  const std::thread::id writer = std::this_thread::get_id();
  bool finished_mid_cascade = false;
  index.SetCascadeObserver([&] {
    if (!finished_mid_cascade && std::this_thread::get_id() != writer) {
      finished_mid_cascade = true;
      index.FinishStream(kMidCascade);
    }
  });

  for (StreamId first = 1; first < kStreams; first += kCohort) {
    for (int w = 0; w < 4; ++w) {
      for (StreamId s = first; s < first + kCohort; ++s) {
        const bool last = w == 3;
        index.InsertWindow(s, t += kMicrosPerSecond,
                           RandomTerms(rng, kVocab, 8), !last);
        if (last) index.FinishStream(s);
      }
    }
  }
  index.WaitForMerges();
  index.SetCascadeObserver(nullptr);
  ASSERT_TRUE(finished_mid_cascade);
  ASSERT_GT(index.GetMergeStats().merges, 0u);

  std::size_t leaked = 0;
  for (StreamId s = 0; s < kStreams; ++s) {
    const auto placement =
        index.stream_table().GetPlacement(s, index.tree().l0_epoch());
    if (placement.live || placement.sealed > 1 || placement.in_l0) continue;
    if (index.live_table().ContainsStream(s) && ++leaked <= 3) {
      ADD_FAILURE() << "stream " << s << " finished, in "
                    << placement.sealed
                    << " sealed component(s), not in L0, but still in the "
                       "live-term table";
    }
  }
  EXPECT_EQ(leaked, 0u) << "of " << kStreams << " streams";
}

TEST(BackgroundMergeTest, QueriesDuringBackgroundMergesSeeEverything) {
  RtsiIndex index(SmallConfig());
  Timestamp t = 0;
  constexpr TermId kSentinel = 999;
  for (StreamId s = 0; s < 10; ++s) {
    index.InsertWindow(s, t += kMicrosPerSecond, {{kSentinel, 2}}, false);
    index.FinishStream(s);
  }
  Rng rng(11);
  for (int i = 0; i < 3000; ++i) {
    index.InsertWindow(100 + rng.NextUint64(200), t += kMicrosPerSecond,
                       {{static_cast<TermId>(rng.NextUint64(50)), 1}},
                       false);
    if (i % 50 == 0) {
      const auto results = index.Query({kSentinel}, 20, t);
      ASSERT_EQ(results.size(), 10u) << "iteration " << i;
    }
  }
  index.WaitForMerges();
  EXPECT_EQ(index.Query({kSentinel}, 20, t).size(), 10u);
}

TEST(BackgroundMergeTest, ResultsIndependentOfMergeProgress) {
  // Top-k must be exact at *any* moment, whether or not the merge thread
  // has caught up (the pinned view guarantees completeness, the
  // live-term table exact totals): an index that never waits answers
  // like one that waits after every insert.
  RtsiIndex waited(SmallConfig());
  RtsiIndex unwaited(SmallConfig());

  Rng rng(31);
  Timestamp t = 0;
  for (int step = 0; step < 1200; ++step) {
    t += kMicrosPerSecond;
    const auto stream = static_cast<StreamId>(rng.NextUint64(100));
    std::vector<TermCount> terms = {
        {static_cast<TermId>(rng.NextUint64(25)),
         1 + static_cast<TermFreq>(rng.NextUint64(3))}};
    waited.InsertWindow(stream, t, terms, true);
    unwaited.InsertWindow(stream, t, terms, true);
    waited.WaitForMerges();
    if (step % 40 == 0) {
      const auto q = static_cast<TermId>(rng.NextUint64(25));
      const auto r1 = waited.Query({q}, 10, t);
      const auto r2 = unwaited.Query({q}, 10, t);
      ASSERT_EQ(r1.size(), r2.size()) << step;
      for (std::size_t i = 0; i < r1.size(); ++i) {
        ASSERT_NEAR(r1[i].score, r2[i].score, 1e-9)
            << "step " << step << " rank " << i;
      }
    }
  }
  unwaited.WaitForMerges();
}

TEST(BackgroundMergeTest, DestructorDrainsPendingMerges) {
  {
    RtsiIndex index(SmallConfig());
    Timestamp t = 0;
    for (StreamId s = 0; s < 400; ++s) {
      index.InsertWindow(s, t += kMicrosPerSecond, {{1, 1}}, false);
    }
    // Destroyed with a cascade possibly running; must not crash or leak.
  }
  SUCCEED();
}

}  // namespace
}  // namespace rtsi::core
