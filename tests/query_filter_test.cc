// Filtered queries: live-only search and freshness windows.

#include <gtest/gtest.h>

#include "core/rtsi_index.h"

namespace rtsi::core {
namespace {

RtsiConfig SmallConfig() {
  RtsiConfig config;
  config.lsm.delta = 100;
  return config;
}

class QueryFilterTest : public ::testing::Test {
 protected:
  QueryFilterTest() : index_(SmallConfig()) {
    // Streams 1-3 live, 4-6 finished; interleaved freshness.
    Timestamp t = 0;
    for (StreamId s = 1; s <= 6; ++s) {
      t = static_cast<Timestamp>(s) * kMicrosPerHour;
      index_.InsertWindow(s, t, {{10, 2}}, s <= 3);
      if (s > 3) index_.FinishStream(s);
    }
    now_ = 7 * kMicrosPerHour;
  }

  RtsiIndex index_;
  Timestamp now_ = 0;
};

TEST_F(QueryFilterTest, UnfilteredReturnsAll) {
  EXPECT_EQ(index_.Query({10}, 10, now_).size(), 6u);
}

TEST_F(QueryFilterTest, LiveOnlyReturnsLiveStreams) {
  QueryFilter filter;
  filter.live_only = true;
  const auto results = index_.QueryFiltered({10}, 10, now_, filter);
  ASSERT_EQ(results.size(), 3u);
  for (const auto& r : results) {
    EXPECT_LE(r.stream, 3u);
  }
}

TEST_F(QueryFilterTest, LiveOnlyReflectsFinishTransitions) {
  QueryFilter filter;
  filter.live_only = true;
  index_.FinishStream(2);
  const auto results = index_.QueryFiltered({10}, 10, now_, filter);
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) {
    EXPECT_TRUE(r.stream == 1 || r.stream == 3);
  }
}

TEST_F(QueryFilterTest, MinFrshWindowsResults) {
  QueryFilter filter;
  filter.min_frsh = 4 * kMicrosPerHour;  // Streams 4, 5, 6 qualify.
  const auto results = index_.QueryFiltered({10}, 10, now_, filter);
  ASSERT_EQ(results.size(), 3u);
  for (const auto& r : results) {
    EXPECT_GE(r.stream, 4u);
  }
}

TEST_F(QueryFilterTest, CombinedFiltersIntersect) {
  QueryFilter filter;
  filter.live_only = true;
  filter.min_frsh = 2 * kMicrosPerHour;  // Live and fresh: streams 2, 3.
  const auto results = index_.QueryFiltered({10}, 10, now_, filter);
  ASSERT_EQ(results.size(), 2u);
}

TEST_F(QueryFilterTest, FilterEverythingYieldsEmpty) {
  QueryFilter filter;
  filter.min_frsh = 100 * kMicrosPerHour;
  EXPECT_TRUE(index_.QueryFiltered({10}, 10, now_, filter).empty());
}

TEST_F(QueryFilterTest, FilterWorksAcrossMerges) {
  // Push enough postings to force merges; live-only must stay correct
  // for candidates coming from sealed components.
  Timestamp t = 10 * kMicrosPerHour;
  for (StreamId s = 100; s < 200; ++s) {
    index_.InsertWindow(s, t += kMicrosPerSecond, {{10, 1}, {11, 1}},
                        false);
    index_.FinishStream(s);
  }
  QueryFilter filter;
  filter.live_only = true;
  const auto results = index_.QueryFiltered({10}, 200, t, filter);
  ASSERT_EQ(results.size(), 3u);  // Only the original live streams 1-3.
}

TEST_F(QueryFilterTest, FilteredAndUnfilteredScoresAgree) {
  // A stream's score must not depend on the filter.
  const auto all = index_.Query({10}, 10, now_);
  QueryFilter filter;
  filter.live_only = true;
  const auto live = index_.QueryFiltered({10}, 10, now_, filter);
  for (const auto& lr : live) {
    bool found = false;
    for (const auto& ar : all) {
      if (ar.stream == lr.stream) {
        EXPECT_NEAR(ar.score, lr.score, 1e-12);
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }
}

}  // namespace
}  // namespace rtsi::core
