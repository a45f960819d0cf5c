#include "index/term_postings.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "common/rng.h"

namespace rtsi::index {
namespace {

Posting MakePosting(StreamId stream, float pop, Timestamp frsh, TermFreq tf) {
  return Posting{stream, pop, frsh, tf};
}

TEST(TermPostingsTest, AppendTracksMaxima) {
  TermPostings postings;
  postings.Append(MakePosting(1, 5.0f, 100, 3));
  postings.Append(MakePosting(2, 9.0f, 200, 1));
  postings.Append(MakePosting(3, 2.0f, 300, 7));
  EXPECT_FLOAT_EQ(postings.max_pop(), 9.0f);
  EXPECT_EQ(postings.max_frsh(), 300);
  EXPECT_EQ(postings.max_tf(), 7u);
  EXPECT_EQ(postings.size(), 3u);
}

TEST(TermPostingsTest, FreshnessViewIsReverseArrival) {
  TermPostings postings;
  postings.Append(MakePosting(1, 0, 100, 1));
  postings.Append(MakePosting(2, 0, 200, 1));
  postings.Append(MakePosting(3, 0, 300, 1));
  EXPECT_EQ(postings.At(SortKey::kFreshness, 0).stream, 3u);
  EXPECT_EQ(postings.At(SortKey::kFreshness, 2).stream, 1u);
}

TEST(TermPostingsTest, SealBuildsDescendingViews) {
  TermPostings postings;
  postings.Append(MakePosting(1, 5.0f, 100, 3));
  postings.Append(MakePosting(2, 9.0f, 200, 1));
  postings.Append(MakePosting(3, 2.0f, 300, 7));
  postings.Seal();
  EXPECT_TRUE(postings.sealed());

  EXPECT_EQ(postings.At(SortKey::kPopularity, 0).stream, 2u);
  EXPECT_EQ(postings.At(SortKey::kPopularity, 2).stream, 3u);
  EXPECT_EQ(postings.At(SortKey::kTermFrequency, 0).stream, 3u);
  EXPECT_EQ(postings.At(SortKey::kTermFrequency, 2).stream, 2u);
}

TEST(TermPostingsTest, IsSortedMatchesViews) {
  TermPostings postings;
  postings.Append(MakePosting(1, 5.0f, 100, 3));
  postings.Append(MakePosting(2, 9.0f, 200, 1));
  EXPECT_TRUE(postings.IsSorted(SortKey::kFreshness));
  EXPECT_FALSE(postings.IsSorted(SortKey::kPopularity));  // Unsealed.
  postings.Seal();
  EXPECT_TRUE(postings.IsSorted(SortKey::kPopularity));
  EXPECT_TRUE(postings.IsSorted(SortKey::kTermFrequency));
}

TEST(TermPostingsTest, AggregateForStreamFindsSingle) {
  TermPostings postings;
  postings.Append(MakePosting(5, 1.0f, 10, 2));
  postings.Append(MakePosting(9, 2.0f, 20, 4));
  postings.Seal();
  Posting out;
  ASSERT_TRUE(postings.AggregateForStream(9, out));
  EXPECT_EQ(out.tf, 4u);
  EXPECT_FALSE(postings.AggregateForStream(7, out));
}

TEST(TermPostingsTest, AggregateForStreamFoldsDuplicates) {
  TermPostings postings;
  postings.Append(MakePosting(5, 1.0f, 10, 2));
  postings.Append(MakePosting(5, 3.0f, 20, 4));
  postings.Append(MakePosting(5, 2.0f, 30, 1));
  postings.Append(MakePosting(6, 9.0f, 40, 8));
  postings.Seal();
  Posting out;
  ASSERT_TRUE(postings.AggregateForStream(5, out));
  EXPECT_EQ(out.tf, 7u);        // 2 + 4 + 1.
  EXPECT_EQ(out.frsh, 30);      // Newest.
  EXPECT_FLOAT_EQ(out.pop, 3.0f);  // Largest snapshot.
}

// Randomized cross-check against a fold computed before Seal(): every
// distinct stream aggregates exactly, and MemoryBytes() is exactly the
// object plus one 24-byte posting and three uint32 slots per stream.
TEST(TermPostingsTest, SealedAggregateMatchesLinearFold) {
  TermPostings postings;
  std::vector<Posting> raw;
  std::uint32_t state = 12345;
  const auto next = [&state] {
    state = state * 1664525u + 1013904223u;
    return state >> 16;
  };
  for (int i = 0; i < 400; ++i) {
    raw.push_back(MakePosting(next() % 37, static_cast<float>(next() % 100),
                              static_cast<Timestamp>(next() % 10000),
                              1 + next() % 5));
    postings.Append(raw.back());
  }
  postings.Seal();
  EXPECT_EQ(postings.MemoryBytes(),
            sizeof(TermPostings) +
                postings.size() * (sizeof(Posting) + 3 * sizeof(std::uint32_t)));

  for (StreamId stream = 0; stream < 37; ++stream) {
    TermFreq tf = 0;
    Timestamp frsh = 0;
    float pop = 0.0f;
    bool present = false;
    for (const Posting& p : raw) {
      if (p.stream != stream) continue;
      present = true;
      tf += p.tf;
      frsh = std::max(frsh, p.frsh);
      pop = std::max(pop, p.pop);
    }
    Posting out;
    ASSERT_EQ(postings.AggregateForStream(stream, out), present) << stream;
    if (!present) continue;
    EXPECT_EQ(out.tf, tf) << stream;
    EXPECT_EQ(out.frsh, frsh) << stream;
    EXPECT_FLOAT_EQ(out.pop, pop) << stream;
  }
}

TEST(TermPostingsTest, EmptyListBehaves) {
  TermPostings postings;
  EXPECT_TRUE(postings.empty());
  postings.Seal();
  Posting out;
  EXPECT_FALSE(postings.AggregateForStream(1, out));
  EXPECT_TRUE(postings.IsSorted(SortKey::kPopularity));
}

TEST(TermPostingsTest, SealIsIdempotent) {
  TermPostings postings;
  postings.Append(MakePosting(1, 1.0f, 1, 1));
  postings.Seal();
  postings.Seal();
  EXPECT_EQ(postings.size(), 1u);
}

class TermPostingsProperty : public ::testing::TestWithParam<int> {};

// The sealed layout against a fold computed before Seal(), on random lists
// with duplicate streams and many freshness, popularity and tf ties: one
// posting per distinct stream in ascending stream order, every view an
// exact permutation of those slots, sorted, with deterministic ties, and
// the same layout whatever order the postings were appended in.
TEST_P(TermPostingsProperty, SealedLayoutMatchesFold) {
  Rng rng(GetParam());
  std::vector<Posting> raw;
  Timestamp t = 0;
  const int n = 200 + static_cast<int>(rng.NextUint64(300));
  for (int i = 0; i < n; ++i) {
    t += static_cast<Timestamp>(rng.NextUint64(3));
    raw.push_back(MakePosting(rng.NextUint64(100),
                              static_cast<float>(rng.NextUint64(20)), t,
                              1 + static_cast<TermFreq>(rng.NextUint64(4))));
  }
  std::map<StreamId, Posting> fold;
  for (const Posting& p : raw) {
    auto [it, inserted] = fold.emplace(p.stream, p);
    if (inserted) continue;
    it->second.tf += p.tf;
    it->second.frsh = std::max(it->second.frsh, p.frsh);
    it->second.pop = std::max(it->second.pop, p.pop);
  }

  TermPostings postings;
  for (const Posting& p : raw) postings.Append(p);
  postings.Seal();

  ASSERT_EQ(postings.size(), fold.size());
  std::size_t slot = 0;
  for (const auto& [stream, expected] : fold) {
    EXPECT_EQ(postings.entries()[slot++], expected) << stream;
  }
  EXPECT_EQ(postings.max_tf(),
            std::max_element(fold.begin(), fold.end(),
                             [](const auto& a, const auto& b) {
                               return a.second.tf < b.second.tf;
                             })->second.tf);

  // Arrival order: ascending (frsh, stream); its rank breaks pop/tf ties.
  std::map<StreamId, std::size_t> arrival_rank;
  for (std::size_t i = 0; i < postings.size(); ++i) {
    const Posting& p = postings.Arrival(i);
    arrival_rank[p.stream] = i;
    if (i == 0) continue;
    const Posting& prev = postings.Arrival(i - 1);
    ASSERT_TRUE(prev.frsh < p.frsh ||
                (prev.frsh == p.frsh && prev.stream < p.stream))
        << i;
  }
  ASSERT_EQ(arrival_rank.size(), postings.size());

  const Posting* base = postings.entries().data();
  for (const SortKey key : {SortKey::kPopularity, SortKey::kFreshness,
                            SortKey::kTermFrequency}) {
    EXPECT_TRUE(postings.IsSorted(key));
    std::vector<int> visits(postings.size(), 0);
    for (std::size_t i = 0; i < postings.size(); ++i) {
      const Posting& cur = postings.At(key, i);
      const std::ptrdiff_t index = &cur - base;
      ASSERT_GE(index, 0);
      ASSERT_LT(static_cast<std::size_t>(index), postings.size());
      ++visits[static_cast<std::size_t>(index)];
      if (i == 0) continue;
      const Posting& prev = postings.At(key, i - 1);
      switch (key) {
        case SortKey::kFreshness:
          ASSERT_TRUE(prev.frsh > cur.frsh ||
                      (prev.frsh == cur.frsh && prev.stream > cur.stream))
              << i;
          break;
        case SortKey::kPopularity:
          if (prev.pop == cur.pop) {
            ASSERT_LT(arrival_rank[prev.stream], arrival_rank[cur.stream]);
          }
          break;
        case SortKey::kTermFrequency:
          if (prev.tf == cur.tf) {
            ASSERT_LT(arrival_rank[prev.stream], arrival_rank[cur.stream]);
          }
          break;
      }
    }
    EXPECT_EQ(visits, std::vector<int>(postings.size(), 1));
  }

  // Absent streams miss; present ones were checked against the fold above
  // through entries(), and hit here.
  for (StreamId stream = 0; stream < 110; ++stream) {
    Posting out;
    const auto it = fold.find(stream);
    ASSERT_EQ(postings.AggregateForStream(stream, out), it != fold.end())
        << stream;
    if (it != fold.end()) {
      EXPECT_EQ(out, it->second) << stream;
    }
  }

  // Append order does not matter once sealed.
  std::vector<Posting> shuffled = raw;
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.NextUint64(i)]);
  }
  TermPostings reordered;
  for (const Posting& p : shuffled) reordered.Append(p);
  reordered.Seal();
  ASSERT_EQ(reordered.size(), postings.size());
  for (const SortKey key : {SortKey::kPopularity, SortKey::kFreshness,
                            SortKey::kTermFrequency}) {
    for (std::size_t i = 0; i < postings.size(); ++i) {
      ASSERT_EQ(reordered.At(key, i), postings.At(key, i)) << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TermPostingsProperty,
                         ::testing::Range(1, 9));

}  // namespace
}  // namespace rtsi::index
