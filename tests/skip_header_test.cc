// Skip headers: Bloom filter guarantees, summary aggregation, serialization
// determinism, MemoryTracker category accounting across the component
// lifecycle, and skip-header-vs-full-walk query equality with skip
// counters.

#include "index/skip_header.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "common/memory_tracker.h"
#include "common/rng.h"
#include "core/rtsi_index.h"
#include "index/inverted_index.h"

namespace rtsi::index {
namespace {

Posting P(StreamId s, float pop, Timestamp frsh, TermFreq tf) {
  return Posting{s, pop, frsh, tf};
}

TEST(SplitBlockBloomTest, NoFalseNegatives) {
  SplitBlockBloom bloom;
  const std::size_t n = 5000;
  bloom.Reset(n);
  for (TermId t = 0; t < n; ++t) bloom.Insert(t * 7 + 1);
  for (TermId t = 0; t < n; ++t) {
    EXPECT_TRUE(bloom.MayContain(t * 7 + 1)) << t;
  }
}

TEST(SplitBlockBloomTest, FalsePositiveRateIsSmall) {
  SplitBlockBloom bloom;
  const std::size_t n = 5000;
  bloom.Reset(n);
  std::set<TermId> inserted;
  for (TermId t = 0; t < n; ++t) {
    bloom.Insert(t * 7 + 1);
    inserted.insert(t * 7 + 1);
  }
  std::size_t fp = 0, probes = 0;
  for (TermId t = 100'000; t < 150'000; ++t) {
    if (inserted.count(t) != 0) continue;
    ++probes;
    if (bloom.MayContain(t)) ++fp;
  }
  // ~1% expected at 10 bits/key; 5% is a generous determinism-safe cap.
  EXPECT_LT(static_cast<double>(fp) / static_cast<double>(probes), 0.05);
}

TEST(SplitBlockBloomTest, EmptyFilterContainsNothing) {
  SplitBlockBloom bloom;
  EXPECT_FALSE(bloom.MayContain(1));
  bloom.Reset(0);  // Still at least one block; nothing inserted.
  EXPECT_FALSE(bloom.MayContain(1));
}

TEST(SkipHeaderTest, BuildSortsAndFindIsExact) {
  std::vector<TermSummary> summaries = {
      {30, 3.0f, 300, 3, 3, 3},
      {10, 1.0f, 100, 1, 1, 1},
      {20, 2.0f, 200, 2, 2, 2},
  };
  const SkipHeader header = SkipHeader::Build(std::move(summaries));
  EXPECT_EQ(header.num_terms(), 3u);
  EXPECT_EQ(header.summaries()[0].term, 10u);
  EXPECT_EQ(header.summaries()[2].term, 30u);
  const TermSummary* s = header.Find(20);
  ASSERT_NE(s, nullptr);
  EXPECT_FLOAT_EQ(s->max_pop, 2.0f);
  EXPECT_EQ(s->max_frsh, 200);
  EXPECT_EQ(header.Find(25), nullptr);
  EXPECT_TRUE(header.MayContain(10));
  EXPECT_TRUE(header.MayContain(30));
}

TEST(SkipHeaderTest, IndexBuildAggregatesPerStream) {
  // Term 1 holds two postings of stream 10 (frozen-L0 shape): the summary
  // must bound their *sum*, which is what traversal scoring accumulates.
  InvertedIndex idx(0);
  idx.Add(1, P(10, 2.0f, 100, 2));
  idx.Add(1, P(10, 1.0f, 250, 3));
  idx.Add(1, P(11, 5.0f, 50, 1));
  idx.Add(2, P(10, 1.0f, 10, 4));
  idx.BuildSkipHeader();
  ASSERT_NE(idx.skip_header(), nullptr);
  const SkipHeader& header = *idx.skip_header();
  ASSERT_EQ(header.num_terms(), 2u);
  const TermSummary* s1 = header.Find(1);
  ASSERT_NE(s1, nullptr);
  EXPECT_FLOAT_EQ(s1->max_pop, 5.0f);
  EXPECT_EQ(s1->max_frsh, 250);
  EXPECT_EQ(s1->max_tf, 5u);      // 2 + 3 aggregated for stream 10.
  EXPECT_EQ(s1->df, 2u);          // Streams 10, 11.
  EXPECT_EQ(s1->postings, 2u);    // Sealing folded stream 10's windows.
  const TermSummary* s2 = header.Find(2);
  ASSERT_NE(s2, nullptr);
  EXPECT_EQ(s2->df, 1u);
  EXPECT_EQ(s2->max_tf, 4u);
}

TEST(SkipHeaderTest, SerializeRoundTripIsBitExact) {
  Rng rng(11);
  std::vector<TermSummary> summaries;
  for (TermId t = 0; t < 400; ++t) {
    summaries.push_back({t * 3,
                         static_cast<float>(rng.NextUint64(1000)),
                         static_cast<Timestamp>(rng.NextUint64(1 << 20)),
                         static_cast<TermFreq>(1 + rng.NextUint64(50)),
                         static_cast<std::uint32_t>(1 + rng.NextUint64(9)),
                         static_cast<std::uint32_t>(1 + rng.NextUint64(20))});
  }
  const SkipHeader header = SkipHeader::Build(std::move(summaries));
  const std::vector<std::uint8_t> bytes = header.Serialize();
  SkipHeader decoded;
  ASSERT_TRUE(SkipHeader::Deserialize(bytes.data(), bytes.size(), decoded));
  EXPECT_EQ(decoded.num_terms(), header.num_terms());
  EXPECT_EQ(decoded.Serialize(), bytes);
  // Decoded summaries and Bloom behave identically.
  for (const TermSummary& s : header.summaries()) {
    const TermSummary* d = decoded.Find(s.term);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->max_frsh, s.max_frsh);
    EXPECT_EQ(d->max_tf, s.max_tf);
    EXPECT_TRUE(decoded.MayContain(s.term));
  }
}

TEST(SkipHeaderTest, DeserializeRejectsMalformedInput) {
  const SkipHeader header =
      SkipHeader::Build({{1, 1.0f, 1, 1, 1, 1}, {2, 2.0f, 2, 2, 1, 1}});
  std::vector<std::uint8_t> bytes = header.Serialize();
  SkipHeader out;
  // Truncation at every prefix length must fail cleanly, never crash.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(SkipHeader::Deserialize(bytes.data(), cut, out))
        << "cut=" << cut;
  }
  // Trailing garbage is rejected too.
  bytes.push_back(0x7f);
  EXPECT_FALSE(SkipHeader::Deserialize(bytes.data(), bytes.size(), out));
}

TEST(SkipHeaderTest, RebuildIsDeterministicAcrossRepresentations) {
  // The same consolidated content built plain-then-compressed must yield a
  // byte-identical header (the v3 snapshot restore path rebuilds from the
  // compressed representation).
  auto build = [](bool compress) {
    InvertedIndex idx(1);
    for (TermId t = 0; t < 20; ++t) {
      for (StreamId s = 0; s < 30; ++s) {
        idx.Add(t, P(s, static_cast<float>(s % 7), 100 + s, 1 + s % 5));
      }
    }
    idx.SealAll();
    if (compress) idx.CompressAll();
    idx.BuildSkipHeader();
    return idx.skip_header()->Serialize();
  };
  EXPECT_EQ(build(false), build(true));
}

}  // namespace
}  // namespace rtsi::index

namespace rtsi::core {
namespace {

RtsiConfig SmallConfig() {
  RtsiConfig config;
  config.lsm.delta = 200;
  return config;
}

void Populate(RtsiIndex& index, StreamId num_streams) {
  Rng rng(5);
  Timestamp t = 0;
  for (StreamId s = 0; s < num_streams; ++s) {
    for (int w = 0; w < 3; ++w) {
      std::vector<TermCount> terms;
      std::set<TermId> used;
      for (int i = 0; i < 6; ++i) {
        const auto term = static_cast<TermId>(rng.NextUint64(50));
        if (used.insert(term).second) {
          terms.push_back(
              {term, 1 + static_cast<TermFreq>(rng.NextUint64(4))});
        }
      }
      t += kMicrosPerSecond;
      index.InsertWindow(s, t, terms, w < 2);
    }
    if (s % 2 == 0) index.FinishStream(s);
    index.UpdatePopularity(s, rng.NextUint64(300));
  }
}

TEST(SkipHeaderLifecycleTest, TrackerCategoryBalancesAcrossMergesAndRetire) {
  // Hold the tracker past index destruction (the RAII charge owns a
  // shared_ptr, so late releases must still balance).
  std::shared_ptr<MemoryTracker> tracker;
  {
    RtsiIndex index(SmallConfig());
    tracker = index.tree().memory_tracker();
    Populate(index, 120);
    index.WaitForMerges();

    // Every sealed component carries a header and the category gauge
    // equals the sum of their footprints: freeze charges, merge charges
    // the output and releases the inputs once views retire them.
    const auto components = index.tree().SealedSnapshot();
    ASSERT_FALSE(components.empty());
    std::size_t expected = 0;
    for (const auto& component : components) {
      ASSERT_NE(component->skip_header(), nullptr);
      EXPECT_GT(component->skip_header()->num_terms(), 0u);
      expected += component->skip_header()->MemoryBytes();
    }
    EXPECT_EQ(tracker->bytes(MemCategory::kSkipHeader), expected);
    EXPECT_GT(tracker->bytes(MemCategory::kSkipHeader), 0u);
  }
  // All components destroyed with the index: the category must drain to
  // zero — any residue is a leak in the charge/release pairing.
  EXPECT_EQ(tracker->bytes(MemCategory::kSkipHeader), 0u);
}

// Skip headers are consulted exactly when pruning is on; the full walk
// (use_bound off) consults none, so it is the reference they must match.
// Pruning runs with the sound kGlobalPop ceilings: Populate() raises
// popularity after windows seal, and under that drift the kSnapshot
// default can itself drop a true top-k stream (a bound-mode defect that
// is tracked separately, not a skip-header one).
TEST(SkipHeaderQueryTest, SkipHeaderResultsMatchFullWalk) {
  RtsiConfig config = SmallConfig();
  config.bound_mode = BoundMode::kGlobalPop;
  RtsiIndex index(config);
  Populate(index, 150);
  index.WaitForMerges();
  ASSERT_FALSE(index.tree().SealedSnapshot().empty());

  Rng rng(17);
  const Timestamp now = 10'000 * kMicrosPerSecond;
  for (int qi = 0; qi < 200; ++qi) {
    std::vector<TermId> q;
    const int nq = 1 + static_cast<int>(rng.NextUint64(3));
    for (int i = 0; i < nq; ++i) {
      q.push_back(static_cast<TermId>(rng.NextUint64(60)));
    }
    index.SetUseBound(true);
    const auto with_skip = index.Query(q, 10, now);
    index.SetUseBound(false);
    const auto full_walk = index.Query(q, 10, now);
    index.SetUseBound(true);
    ASSERT_EQ(with_skip.size(), full_walk.size()) << "query " << qi;
    for (std::size_t i = 0; i < with_skip.size(); ++i) {
      EXPECT_EQ(with_skip[i].stream, full_walk[i].stream)
          << "query " << qi << " rank " << i;
      EXPECT_EQ(with_skip[i].score, full_walk[i].score)
          << "query " << qi << " rank " << i;
    }
  }
}

TEST(SkipHeaderQueryTest, AbsentTermsSkipComponentsAndCount) {
  RtsiIndex index(SmallConfig());
  Populate(index, 150);
  index.WaitForMerges();
  const std::size_t sealed = index.tree().SealedSnapshot().size();
  ASSERT_GT(sealed, 0u);

  // Vocabulary tops out at 49; term 1'000'000 is in no component, so every
  // sealed component is Bloom-skipped and the query returns nothing from
  // the sealed phase.
  QueryStats qs;
  const auto results =
      index.Query({1'000'000}, 10, 10'000 * kMicrosPerSecond, &qs);
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(qs.components_skipped, sealed);
  EXPECT_EQ(qs.components_visited, 0u);

  const RtsiIndex::SkipCounters counters = index.GetSkipCounters();
  EXPECT_GE(counters.components_skipped, sealed);

  // A present term still visits.
  QueryStats qs2;
  index.Query({3}, 10, 10'000 * kMicrosPerSecond, &qs2);
  EXPECT_EQ(qs2.components_skipped, 0u);
  EXPECT_GT(qs2.components_visited + qs2.components_pruned, 0u);
}

}  // namespace
}  // namespace rtsi::core
