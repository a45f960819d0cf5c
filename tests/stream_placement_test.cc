// Where a stream's postings live, and when it may leave the live-term
// table: the residency record plus the L0 stamp, and the evictions decided
// from them after each freeze, merge and finish.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <future>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/rtsi_index.h"
#include "storage/snapshot.h"

namespace rtsi::lsm {

// Forces NeedsMerge() so a test can run a freeze on its own thread.
struct LsmTreeTestPeer {
  static void SetL0Counter(LsmTree& tree, std::size_t value) {
    tree.l0_postings_.store(value, std::memory_order_relaxed);
  }
};

}  // namespace rtsi::lsm

namespace rtsi::core {

// The index's own merge hooks, so a test can run a freeze or cascade
// itself and hold it at a chosen point.
struct RtsiIndexTestPeer {
  static lsm::MergeHooks Hooks(RtsiIndex& index) {
    return index.MakeMergeHooks();
  }
};

namespace {

using index::Posting;
using lsm::LsmTreeTestPeer;

RtsiConfig SmallConfig(std::size_t delta) {
  RtsiConfig config;
  config.lsm.delta = delta;
  config.lsm.rho = 2.0;
  return config;
}

index::StreamInfoTable::Placement PlacementOf(const RtsiIndex& index,
                                              StreamId stream) {
  return index.stream_table().GetPlacement(stream, index.tree().l0_epoch());
}

bool L0Holds(const RtsiIndex& index, StreamId stream) {
  bool found = false;
  index.tree().ForEachL0Term([&](TermId, const index::TermPostings& p) {
    for (const Posting& posting : p.entries()) {
      found = found || posting.stream == stream;
    }
  });
  return found;
}

// Forces a freeze of whatever L0 holds, with the index's own hooks.
void ForceFreeze(RtsiIndex& index) {
  index.WaitForMerges();
  LsmTreeTestPeer::SetL0Counter(index.mutable_tree(),
                                index.config().lsm.delta + 1);
  ASSERT_TRUE(index.mutable_tree().FreezeL0(RtsiIndexTestPeer::Hooks(index)));
}

double ScoreOf(RtsiIndex& index, const std::vector<TermId>& terms,
               StreamId stream, Timestamp now, bool use_bound) {
  index.SetUseBound(use_bound);
  for (const ScoredStream& r : index.Query(terms, 10, now)) {
    if (r.stream == stream) return r.score;
  }
  return -1.0;
}

// A stream finished while the cascade step that consolidates it sits
// between registering its output and publishing it. The published view
// still splits the stream across the merge inputs, so it must stay in the
// live-term table and score its whole history; it leaves once the output
// is published.
TEST(StreamPlacementTest, FinishInsideAConsolidatingMergeKeepsStreamWhole) {
  RtsiIndex index(SmallConfig(4));
  constexpr StreamId kStream = 1;
  index.InsertWindow(kStream, 1 * kMicrosPerSecond, {{10, 2}, {11, 1}}, true);
  // Filler past delta: the freeze and cascade seal stream 1 into one
  // level-1 component.
  for (StreamId s = 100; s < 103; ++s) {
    index.InsertWindow(s, 1 * kMicrosPerSecond, {{20, 1}}, false);
    index.FinishStream(s);
  }
  index.WaitForMerges();
  ASSERT_EQ(index.tree().RunsPerLevel(), (std::vector<std::size_t>{0, 1}));
  // A second window lands in L0: the stream now spans two places.
  index.InsertWindow(kStream, 2 * kMicrosPerSecond, {{10, 1}, {12, 1}}, true);
  ASSERT_EQ(index.tree().l0_postings(), 2u);
  ASSERT_TRUE(PlacementOf(index, kStream).in_l0);

  // Freeze L0 on a thread of ours, then hold the cascade step that folds
  // the frozen run into the level-1 component right after it registered
  // the output for stream 1, before the swap publishes it.
  lsm::MergeHooks hooks = RtsiIndexTestPeer::Hooks(index);
  std::promise<void> reached;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  bool held = false;
  const auto register_output = hooks.on_stream;
  hooks.on_stream = [&, register_output](StreamId stream,
                                         const index::InvertedIndex& c) {
    register_output(stream, c);
    if (stream == kStream && c.level() >= 1 && !held) {
      held = true;
      reached.set_value();
      released.wait();
    }
  };
  LsmTreeTestPeer::SetL0Counter(index.mutable_tree(), 5);
  bool froze = false;
  std::thread merger([&] {
    froze = index.mutable_tree().FreezeL0(hooks);
    if (!froze) {
      reached.set_value();
      return;
    }
    index.mutable_tree().RunCascade(hooks);
    if (!held) reached.set_value();
  });
  reached.get_future().wait();
  if (!froze || !held) {
    release.set_value();
    merger.join();
    FAIL() << "the cascade never consolidated stream " << kStream;
  }

  index.FinishStream(kStream);
  const Timestamp now = 3 * kMicrosPerSecond;
  EXPECT_TRUE(index.live_table().ContainsStream(kStream));
  EXPECT_EQ(index.tree().PinView()->components.size(), 2u);
  const double full_in_window = ScoreOf(index, {10}, kStream, now, false);
  const double pruned_in_window = ScoreOf(index, {10}, kStream, now, true);
  EXPECT_TRUE(index.live_table().ContainsStream(kStream));

  release.set_value();
  merger.join();
  index.WaitForMerges();
  // Published: one sealed placement, no L0, finished — evicted.
  EXPECT_EQ(index.tree().PinView()->components.size(), 1u);
  EXPECT_EQ(index.stream_table().GetResidency(kStream).size(), 1u);
  EXPECT_FALSE(index.live_table().ContainsStream(kStream));
  const double whole = ScoreOf(index, {10}, kStream, now, false);
  ASSERT_GT(whole, 0.0);
  EXPECT_EQ(full_in_window, whole);
  EXPECT_EQ(pruned_in_window, whole);
  EXPECT_EQ(ScoreOf(index, {10}, kStream, now, true), whole);
}

TEST(StreamPlacementTest, StreamIsInL0AfterAWindow) {
  RtsiIndex index(SmallConfig(100));
  index.InsertWindow(1, kMicrosPerSecond, {{10, 1}, {11, 2}}, true);
  const auto placement = PlacementOf(index, 1);
  EXPECT_TRUE(placement.in_l0);
  EXPECT_EQ(placement.sealed, 0u);
  // Finished with its postings in L0: it stays in the table.
  index.FinishStream(1);
  EXPECT_TRUE(index.live_table().ContainsStream(1));
}

TEST(StreamPlacementTest, StreamLeavesL0WithTheFreezeThatDrainedIt) {
  RtsiIndex index(SmallConfig(8));
  index.InsertWindow(1, kMicrosPerSecond, {{10, 1}, {11, 2}}, true);
  index.FinishStream(1);
  ASSERT_TRUE(index.live_table().ContainsStream(1));
  // Filler past delta freezes L0 on this thread.
  for (StreamId s = 100; s < 110; ++s) {
    index.InsertWindow(s, 2 * kMicrosPerSecond, {{20, 1}}, false);
  }
  index.WaitForMerges();
  ASSERT_FALSE(L0Holds(index, 1));
  const auto placement = PlacementOf(index, 1);
  EXPECT_FALSE(placement.in_l0);
  EXPECT_EQ(placement.sealed, 1u);
  // The freeze's settle pass evicted the finished, now-sealed stream.
  EXPECT_FALSE(index.live_table().ContainsStream(1));
}

// InsertWindow appends a window's postings, then stamps the stream with
// the L0 epoch it reads. These two tests replay that order with a freeze
// between the appends (the window straddles it), then with one between
// the appends and the read.
TEST(StreamPlacementTest, StampAfterAStraddledWindowIsInL0) {
  RtsiIndex index(SmallConfig(100));
  index.InsertWindow(1, kMicrosPerSecond, {{10, 1}}, true);
  index::StreamInfoTable& table = index.mutable_stream_table();
  lsm::LsmTree& tree = index.mutable_tree();
  table.OnInsert(1, 2 * kMicrosPerSecond, true);
  tree.AddPosting(10, Posting{1, 0.0f, 2 * kMicrosPerSecond, 1});
  ForceFreeze(index);
  tree.AddPosting(11, Posting{1, 0.0f, 2 * kMicrosPerSecond, 1});
  table.StampL0(1, tree.l0_epoch());
  EXPECT_TRUE(L0Holds(index, 1));
  EXPECT_TRUE(PlacementOf(index, 1).in_l0);
  EXPECT_EQ(PlacementOf(index, 1).sealed, 1u);
}

TEST(StreamPlacementTest, StampRacedByAFreezeOnlyDelaysEviction) {
  RtsiIndex index(SmallConfig(100));
  index::StreamInfoTable& table = index.mutable_stream_table();
  lsm::LsmTree& tree = index.mutable_tree();
  table.OnInsert(1, kMicrosPerSecond, true);
  tree.AddPosting(10, Posting{1, 0.0f, kMicrosPerSecond, 1});
  index.mutable_live_table().AddWindow(1, {{10, 1}});
  ForceFreeze(index);  // Drains the appends before the stamp is read.
  table.StampL0(1, tree.l0_epoch());
  ASSERT_FALSE(L0Holds(index, 1));
  // Too high: read as still in L0, so the finish keeps the stream.
  EXPECT_TRUE(PlacementOf(index, 1).in_l0);
  index.FinishStream(1);
  EXPECT_TRUE(index.live_table().ContainsStream(1));
  // The next freeze moves the epoch past the stamp.
  index.InsertWindow(2, 2 * kMicrosPerSecond, {{20, 1}}, false);
  ForceFreeze(index);
  EXPECT_FALSE(PlacementOf(index, 1).in_l0);
  index.FinishStream(1);
  EXPECT_FALSE(index.live_table().ContainsStream(1));
}

TEST(StreamPlacementTest, RestoredL0PostingsCountAsInL0) {
  const std::string path = "/tmp/rtsi_placement_restore.snap";
  RtsiIndex index(SmallConfig(100));
  index.InsertWindow(1, kMicrosPerSecond, {{10, 2}, {11, 1}}, true);
  index.InsertWindow(2, kMicrosPerSecond, {{10, 1}}, true);
  ASSERT_TRUE(storage::SaveIndexSnapshot(index, path).ok());
  auto loaded = storage::LoadIndexSnapshot(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  RtsiIndex& restored = *loaded.value();
  EXPECT_TRUE(PlacementOf(restored, 1).in_l0);
  // Its postings are only in L0: a finish must not evict it.
  restored.FinishStream(1);
  index.FinishStream(1);
  EXPECT_TRUE(restored.live_table().ContainsStream(1));
  const Timestamp now = 2 * kMicrosPerSecond;
  EXPECT_EQ(ScoreOf(restored, {10}, 1, now, true),
            ScoreOf(index, {10}, 1, now, true));
}

// Whole-history mirror of the index content, scored with the same
// formula.
class Oracle {
 public:
  void Insert(StreamId stream, Timestamp now,
              const std::vector<TermCount>& terms) {
    auto& s = streams_[stream];
    s.frsh = std::max(s.frsh, now);
    for (const auto& tc : terms) s.tf[tc.term] += tc.tf;
  }
  void Merge(const Oracle& other) {
    for (const auto& [id, s] : other.streams_) streams_[id] = s;
  }

  std::vector<ScoredStream> TopK(const RtsiIndex& index,
                                 const std::vector<TermId>& q, int k,
                                 Timestamp now) const {
    const Scorer scorer(index.config().weights,
                        index.config().freshness_tau_seconds);
    const std::uint64_t max_pop = index.stream_table().max_pop_count();
    std::vector<ScoredStream> all;
    for (const auto& [id, s] : streams_) {
      double tfidf = 0.0;
      bool relevant = false;
      for (const TermId term : q) {
        auto it = s.tf.find(term);
        if (it == s.tf.end()) continue;
        relevant = true;
        tfidf += scorer.TermTfIdf(it->second, index.doc_freq().Idf(term));
      }
      if (!relevant) continue;
      all.push_back(
          {id, scorer.Combine(scorer.PopScore(0, max_pop),
                              scorer.RelScore(tfidf,
                                              static_cast<int>(q.size())),
                              scorer.FrshScore(s.frsh, now))});
    }
    std::sort(all.begin(), all.end(),
              [](const ScoredStream& a, const ScoredStream& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.stream < b.stream;
              });
    if (all.size() > static_cast<std::size_t>(k)) all.resize(k);
    return all;
  }

 private:
  struct StreamState {
    Timestamp frsh = 0;
    std::map<TermId, TermFreq> tf;
  };
  std::map<StreamId, StreamState> streams_;
};

// Writers finish and resume their streams while freezes and cascades run
// and a reader queries. At each quiesce the record is exact (sealed count
// = components holding the stream; a stream in L0 is stamped in L0),
// no stream is missing from the live-term table that still needs it,
// every finished stream with one sealed placement has left it, and every
// answer, full walk and pruned, equals a whole-history brute-force scorer.
TEST(StreamPlacementTest, FinishAndResumeUnderCascadesKeepsRecordExact) {
  // kGlobalPop: the sound bound mode. kSnapshot's stale per-term
  // freshness maxima can drop true hits once writers' timestamps
  // interleave, which is a bound question, not a placement one.
  RtsiConfig config = SmallConfig(48);
  config.bound_mode = BoundMode::kGlobalPop;
  RtsiIndex index(config);
  constexpr int kWriters = 3;
  constexpr StreamId kStreamsPerWriter = 24;
  constexpr TermId kVocab = 24;
  constexpr int kRounds = 6;
  constexpr int kOpsPerRound = 80;
  std::vector<Oracle> oracles(kWriters);
  Rng query_rng(99);
  std::size_t evicted = 0;

  for (int round = 0; round < kRounds; ++round) {
    std::atomic<bool> writing{true};
    std::thread reader([&] {
      Rng rng(1000 + round);
      while (writing.load(std::memory_order_relaxed)) {
        index.Query({static_cast<TermId>(rng.NextUint64(kVocab))}, 5,
                    (round + 1) * 1000 * kMicrosPerSecond);
      }
    });
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        Rng rng(static_cast<std::uint64_t>(7 + 31 * round + w));
        for (int op = 0; op < kOpsPerRound; ++op) {
          const StreamId stream =
              w + kWriters * static_cast<StreamId>(
                                 rng.NextUint64(kStreamsPerWriter));
          if (rng.NextBool(0.25)) {
            index.FinishStream(stream);
            continue;
          }
          std::vector<TermCount> terms;
          std::set<TermId> used;
          const int n = 1 + static_cast<int>(rng.NextUint64(4));
          for (int i = 0; i < n; ++i) {
            const auto term = static_cast<TermId>(rng.NextUint64(kVocab));
            if (used.insert(term).second) {
              terms.push_back({term, 1 + static_cast<TermFreq>(
                                             rng.NextUint64(3))});
            }
          }
          const Timestamp t =
              (round * 1000 + op) * kMicrosPerSecond + w;
          index.InsertWindow(stream, t, terms, rng.NextBool(0.7));
          oracles[w].Insert(stream, t, terms);
        }
      });
    }
    for (auto& writer : writers) writer.join();
    writing.store(false, std::memory_order_relaxed);
    reader.join();
    index.WaitForMerges();

    // Ground truth of where every stream's postings are.
    std::map<StreamId, std::size_t> sealed;
    for (const auto& component : index.tree().PinView()->components) {
      std::set<StreamId> in_component;
      component->ForEachTerm([&](TermId, const index::TermPostings& p) {
        for (const Posting& posting : p.entries()) {
          in_component.insert(posting.stream);
        }
      });
      for (const StreamId s : in_component) ++sealed[s];
    }
    std::set<StreamId> in_l0;
    index.tree().ForEachL0Term([&](TermId, const index::TermPostings& p) {
      for (const Posting& posting : p.entries()) {
        in_l0.insert(posting.stream);
      }
    });
    for (StreamId s = 0; s < kWriters * kStreamsPerWriter; ++s) {
      const auto placement = PlacementOf(index, s);
      const bool in_table = index.live_table().ContainsStream(s);
      const std::size_t real_sealed = sealed.count(s) ? sealed[s] : 0;
      const bool real_l0 = in_l0.count(s) > 0;
      ASSERT_EQ(placement.sealed, real_sealed) << "round " << round
                                               << " stream " << s;
      if (real_l0) {
        ASSERT_TRUE(placement.in_l0) << "round " << round << " stream " << s;
      }
      if (!in_table && real_sealed + (real_l0 ? 1 : 0) > 0) {
        ++evicted;
        ASSERT_FALSE(placement.live) << "stream " << s;
        ASSERT_EQ(real_sealed, 1u) << "round " << round << " stream " << s;
        ASSERT_FALSE(real_l0) << "round " << round << " stream " << s;
      }
      if (!placement.live && placement.sealed == 1 && !placement.in_l0) {
        ASSERT_FALSE(in_table) << "round " << round << " stream " << s
                               << " finished in one sealed component";
      }
    }

    Oracle oracle;
    for (const Oracle& o : oracles) oracle.Merge(o);
    const Timestamp now = (round + 1) * 1000 * kMicrosPerSecond;
    for (int q = 0; q < 24; ++q) {
      std::vector<TermId> terms = {
          static_cast<TermId>(query_rng.NextUint64(kVocab))};
      if (query_rng.NextBool(0.6)) {
        terms.push_back(static_cast<TermId>(query_rng.NextUint64(kVocab)));
      }
      const auto want = oracle.TopK(index, terms, 10, now);
      for (const bool use_bound : {false, true}) {
        index.SetUseBound(use_bound);
        const auto got = index.Query(terms, 10, now);
        ASSERT_EQ(got.size(), want.size()) << "round " << round;
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_NEAR(got[i].score, want[i].score, 1e-9)
              << "round " << round << " query " << q << " rank " << i
              << (use_bound ? " pruned" : " full walk");
        }
      }
    }
    index.SetUseBound(true);
  }
  EXPECT_GT(evicted, 0u);
}

}  // namespace
}  // namespace rtsi::core
