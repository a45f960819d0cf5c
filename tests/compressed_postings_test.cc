#include "index/compressed_postings.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace rtsi::index {
namespace {

TermPostings MakeRandomPostings(int n, Rng& rng) {
  TermPostings postings;
  Timestamp t = 1000;
  for (int i = 0; i < n; ++i) {
    t += static_cast<Timestamp>(rng.NextUint64(60'000'000));
    postings.Append(Posting{rng.NextUint64(100000),
                            static_cast<float>(rng.NextUint64(5000)), t,
                            1 + static_cast<TermFreq>(rng.NextUint64(30))});
  }
  return postings;
}

TEST(CompressedPostingsTest, EmptyListRoundTrips) {
  TermPostings empty;
  const auto compressed = CompressedTermPostings::FromPostings(empty);
  EXPECT_TRUE(compressed.empty());
  const TermPostings decoded = compressed.Decode();
  EXPECT_TRUE(decoded.empty());
}

// The codec stores sealed lists (one posting per stream; random streams
// can repeat), so the round trips seal the original and compare arrival
// order, the order the codec writes.
TEST(CompressedPostingsTest, PreservesEntriesExactly) {
  Rng rng(21);
  TermPostings original = MakeRandomPostings(500, rng);
  original.Seal();
  const auto compressed = CompressedTermPostings::FromPostings(original);
  const TermPostings decoded = compressed.Decode();

  ASSERT_EQ(decoded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(decoded.Arrival(i), original.Arrival(i)) << i;
  }
}

TEST(CompressedPostingsTest, DecodedListIsSealed) {
  Rng rng(22);
  const auto compressed =
      CompressedTermPostings::FromPostings(MakeRandomPostings(100, rng));
  const TermPostings decoded = compressed.Decode();
  EXPECT_TRUE(decoded.sealed());
  EXPECT_TRUE(decoded.IsSorted(SortKey::kPopularity));
  EXPECT_TRUE(decoded.IsSorted(SortKey::kTermFrequency));
}

TEST(CompressedPostingsTest, BoundsAvailableWithoutDecode) {
  Rng rng(23);
  const TermPostings original = MakeRandomPostings(200, rng);
  const auto compressed = CompressedTermPostings::FromPostings(original);
  EXPECT_FLOAT_EQ(compressed.max_pop(), original.max_pop());
  EXPECT_EQ(compressed.max_frsh(), original.max_frsh());
  EXPECT_EQ(compressed.max_tf(), original.max_tf());
  EXPECT_EQ(compressed.size(), original.size());
}

TEST(CompressedPostingsTest, CompressesTypicalLists) {
  // Realistic posting data (small tf values, clustered timestamps) must
  // come out smaller than the raw struct array.
  Rng rng(24);
  TermPostings postings;
  Timestamp t = 0;
  for (int i = 0; i < 5000; ++i) {
    t += 60'000'000;  // One window per minute.
    postings.Append(Posting{static_cast<StreamId>(40000 + i % 1000),
                            static_cast<float>(i % 50), t,
                            1 + static_cast<TermFreq>(i % 5)});
  }
  const std::size_t raw_bytes = postings.size() * sizeof(Posting);
  const auto compressed = CompressedTermPostings::FromPostings(postings);
  EXPECT_LT(compressed.MemoryBytes(), raw_bytes);
}

class CompressedRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(CompressedRoundTrip, RandomListsRoundTrip) {
  Rng rng(GetParam() * 31);
  const int n = 1 + static_cast<int>(rng.NextUint64(800));
  TermPostings original = MakeRandomPostings(n, rng);
  original.Seal();
  const TermPostings decoded =
      CompressedTermPostings::FromPostings(original).Decode();
  ASSERT_EQ(decoded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    ASSERT_EQ(decoded.Arrival(i), original.Arrival(i));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompressedRoundTrip, ::testing::Range(1, 11));

}  // namespace
}  // namespace rtsi::index
