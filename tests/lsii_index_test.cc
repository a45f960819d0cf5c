// Extended-LSII baseline behaviour, plus result equivalence with RTSI:
// both indices implement the same scoring model, so on workloads where
// LSII's bound is exact (single-window streams: postings never span
// components) their top-k output must coincide.

#include "baseline/lsii_index.h"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "core/rtsi_index.h"

namespace rtsi::baseline {
namespace {

using core::RtsiConfig;
using core::TermCount;

RtsiConfig SmallConfig() {
  RtsiConfig config;
  config.lsm.delta = 150;
  config.lsm.rho = 2.0;
  return config;
}

std::vector<TermCount> Terms(
    std::initializer_list<std::pair<TermId, TermFreq>> list) {
  std::vector<TermCount> out;
  for (const auto& [term, tf] : list) out.push_back({term, tf});
  return out;
}

TEST(BigTableTest, TracksTotalsAndMeta) {
  BigTable table;
  std::vector<TermId> first_seen;
  table.OnInsertWindow(1, 1000, true, Terms({{10, 3}, {11, 1}}), first_seen);
  EXPECT_EQ(first_seen.size(), 2u);
  first_seen.clear();
  table.OnInsertWindow(1, 2000, true, Terms({{10, 2}, {12, 1}}), first_seen);
  ASSERT_EQ(first_seen.size(), 1u);
  EXPECT_EQ(first_seen[0], 12u);

  EXPECT_EQ(table.GetTf(1, 10), 5u);
  EXPECT_EQ(table.GetTf(1, 11), 1u);
  std::uint64_t pop = 99;
  Timestamp frsh = 0;
  ASSERT_TRUE(table.GetMeta(1, pop, frsh));
  EXPECT_EQ(frsh, 2000);
  EXPECT_EQ(table.GetMaxTotal(10), 5u);
}

TEST(BigTableTest, DeleteHidesAndPurgeReclaims) {
  BigTable table;
  std::vector<TermId> first_seen;
  table.OnInsertWindow(1, 1000, true, Terms({{10, 3}}), first_seen);
  table.MarkDeleted(1);
  std::uint64_t pop;
  Timestamp frsh;
  EXPECT_FALSE(table.GetMeta(1, pop, frsh));
  EXPECT_TRUE(table.IsDeleted(1));
  table.PurgeTerms(1);
  EXPECT_EQ(table.GetTf(1, 10), 0u);
}

TEST(BigTableTest, PopularityAndMax) {
  BigTable table;
  table.AddPopularity(1, 10);
  table.AddPopularity(2, 50);
  EXPECT_EQ(table.max_pop_count(), 50u);
}

TEST(LsiiIndexTest, BasicInsertAndQuery) {
  LsiiIndex index(SmallConfig());
  index.InsertWindow(1, 1000, Terms({{10, 3}}), true);
  index.InsertWindow(2, 1000, Terms({{11, 3}}), true);
  const auto results = index.Query({10}, 5, 2000);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].stream, 1u);
}

TEST(LsiiIndexTest, MultiWindowTotalsViaBigTable) {
  LsiiIndex index(SmallConfig());
  index.InsertWindow(1, 1000, Terms({{10, 3}}), true);
  index.InsertWindow(1, 2000, Terms({{10, 4}}), true);
  index.InsertWindow(2, 2000, Terms({{10, 5}}), true);
  const auto results = index.Query({10}, 2, 3000);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].stream, 1u);  // Total tf 7 beats 5.
}

TEST(LsiiIndexTest, DeleteAndUpdateWork) {
  LsiiIndex index(SmallConfig());
  index.InsertWindow(1, 1000, Terms({{10, 2}}), false);
  index.InsertWindow(2, 1000, Terms({{10, 2}}), false);
  index.UpdatePopularity(1, 1000);
  auto results = index.Query({10}, 2, 2000);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].stream, 1u);
  index.DeleteStream(1);
  results = index.Query({10}, 2, 2000);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].stream, 2u);
}

TEST(LsiiIndexTest, SurvivesMerges) {
  auto config = SmallConfig();
  config.lsm.delta = 40;
  LsiiIndex index(config);
  Timestamp t = 0;
  for (StreamId s = 0; s < 100; ++s) {
    index.InsertWindow(s, t += 1000, Terms({{10, 1}, {11, 1}}), false);
    index.FinishStream(s);
  }
  EXPECT_GT(index.GetMergeStats().merges, 0u);
  const auto results = index.Query({10}, 200, t);
  EXPECT_EQ(results.size(), 100u);
}

TEST(LsiiIndexTest, UsesMoreMemoryThanRtsi) {
  // The headline memory claim: the big table dwarfs RTSI's small tables
  // once streams are long (many terms each).
  auto config = SmallConfig();
  config.lsm.delta = 5000;
  core::RtsiIndex rtsi(config);
  LsiiIndex lsii(config);
  Rng rng(3);
  Timestamp t = 0;
  for (StreamId s = 0; s < 200; ++s) {
    for (int w = 0; w < 4; ++w) {
      std::vector<TermCount> terms;
      std::set<TermId> used;
      for (int i = 0; i < 60; ++i) {
        const auto term = static_cast<TermId>(rng.NextUint64(5000));
        if (used.insert(term).second) terms.push_back({term, 1});
      }
      t += kMicrosPerSecond;
      rtsi.InsertWindow(s, t, terms, w < 3);
      lsii.InsertWindow(s, t, terms, w < 3);
    }
    rtsi.FinishStream(s);
    lsii.FinishStream(s);
  }
  rtsi.WaitForMerges();
  EXPECT_GT(lsii.MemoryBytes(), rtsi.MemoryBytes());
}

TEST(LsiiIndexTest, AgreesWithRtsiOnSingleWindowStreams) {
  auto config = SmallConfig();
  config.lsm.delta = 120;
  core::RtsiIndex rtsi(config);
  LsiiIndex lsii(config);
  Rng rng(11);

  Timestamp t = 0;
  for (StreamId s = 0; s < 300; ++s) {
    std::vector<TermCount> terms;
    std::set<TermId> used;
    const int n = 2 + static_cast<int>(rng.NextUint64(8));
    for (int i = 0; i < n; ++i) {
      const auto term = static_cast<TermId>(rng.NextUint64(50));
      if (used.insert(term).second) {
        terms.push_back({term, 1 + static_cast<TermFreq>(rng.NextUint64(4))});
      }
    }
    t += kMicrosPerSecond;
    // Single window per stream: no cross-component accumulation anywhere.
    rtsi.InsertWindow(s, t, terms, false);
    lsii.InsertWindow(s, t, terms, false);
    rtsi.FinishStream(s);
    lsii.FinishStream(s);
  }

  for (int trial = 0; trial < 40; ++trial) {
    std::vector<TermId> q = {static_cast<TermId>(rng.NextUint64(50))};
    if (rng.NextBool(0.6)) {
      q.push_back(static_cast<TermId>(rng.NextUint64(50)));
    }
    const auto r_rtsi = rtsi.Query(q, 10, t);
    const auto r_lsii = lsii.Query(q, 10, t);
    ASSERT_EQ(r_rtsi.size(), r_lsii.size()) << trial;
    for (std::size_t i = 0; i < r_rtsi.size(); ++i) {
      ASSERT_NEAR(r_rtsi[i].score, r_lsii[i].score, 1e-9)
          << "trial " << trial << " rank " << i;
    }
  }
}

TEST(LsiiIndexTest, EmptyQueriesBehave) {
  LsiiIndex index(SmallConfig());
  EXPECT_TRUE(index.Query({}, 5, 100).empty());
  EXPECT_TRUE(index.Query({42}, 5, 100).empty());
}

}  // namespace
}  // namespace rtsi::baseline
