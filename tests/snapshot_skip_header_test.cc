// Snapshot v4 skip-header persistence: round-trip bit-exactness, the
// checked-in v3 fixture loading with headers rebuilt, pruned-vs-full
// top-k equality on the restored index, and the checked-in v4 fixture
// answering and merging like the index it was saved from.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/rtsi_index.h"
#include "index/skip_header.h"
#include "storage/snapshot.h"

#ifndef RTSI_TEST_DATA_DIR
#error "RTSI_TEST_DATA_DIR must point at tests/data"
#endif

namespace rtsi::storage {
namespace {

using core::RtsiConfig;
using core::RtsiIndex;
using core::TermCount;

std::string TempPath(const char* name) {
  return std::string("/tmp/rtsi_skip_snapshot_test_") + name + ".snap";
}

std::unique_ptr<RtsiIndex> BuildPopulatedIndex(bool compress) {
  RtsiConfig config;
  config.lsm.delta = 256;
  config.lsm.rho = 2.0;
  config.lsm.compress = compress;
  auto index = std::make_unique<RtsiIndex>(config);
  Rng rng(23);
  Timestamp t = 0;
  for (StreamId s = 0; s < 140; ++s) {
    for (int w = 0; w < 3; ++w) {
      std::vector<TermCount> terms;
      std::set<TermId> used;
      for (int i = 0; i < 8; ++i) {
        const auto term = static_cast<TermId>(rng.NextUint64(150));
        if (used.insert(term).second) {
          terms.push_back(
              {term, 1 + static_cast<TermFreq>(rng.NextUint64(4))});
        }
      }
      t += kMicrosPerSecond;
      index->InsertWindow(s, t, terms, w < 2);
    }
    if (s % 2 == 0) index->FinishStream(s);
    index->UpdatePopularity(s, rng.NextUint64(400));
  }
  index->WaitForMerges();
  return index;
}

std::vector<std::vector<std::uint8_t>> HeaderBytes(const RtsiIndex& index) {
  std::vector<std::vector<std::uint8_t>> out;
  for (const auto& component : index.tree().SealedSnapshot()) {
    EXPECT_NE(component->skip_header(), nullptr);
    out.push_back(component->skip_header() != nullptr
                      ? component->skip_header()->Serialize()
                      : std::vector<std::uint8_t>{});
  }
  return out;
}

// Pruned (skip headers consulted) vs full-walk equality on one index:
// both must return identical (stream, score) lists.
void ExpectPruningIsLossless(RtsiIndex& index, std::size_t vocab) {
  Rng rng(31);
  const Timestamp now = 100'000 * kMicrosPerSecond;
  for (int qi = 0; qi < 100; ++qi) {
    std::vector<TermId> q;
    const int nq = 1 + static_cast<int>(rng.NextUint64(3));
    for (int i = 0; i < nq; ++i) {
      q.push_back(static_cast<TermId>(rng.NextUint64(vocab)));
    }
    index.SetUseBound(true);
    const auto pruned = index.Query(q, 10, now);
    index.SetUseBound(false);
    const auto full = index.Query(q, 10, now);
    index.SetUseBound(true);
    ASSERT_EQ(pruned.size(), full.size()) << "query " << qi;
    for (std::size_t i = 0; i < full.size(); ++i) {
      EXPECT_EQ(pruned[i].stream, full[i].stream) << qi << "/" << i;
      EXPECT_EQ(pruned[i].score, full[i].score) << qi << "/" << i;
    }
  }
}

TEST(SnapshotSkipHeaderTest, V4RoundTripPreservesHeadersBitExactly) {
  for (const bool compress : {false, true}) {
    const std::string path = TempPath(compress ? "v4_huff" : "v4_plain");
    const auto index = BuildPopulatedIndex(compress);
    const auto original = HeaderBytes(*index);
    ASSERT_FALSE(original.empty());
    ASSERT_TRUE(SaveIndexSnapshot(*index, path).ok());

    auto loaded = LoadIndexSnapshot(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const auto restored = HeaderBytes(*loaded.value());
    ASSERT_EQ(restored.size(), original.size());
    for (std::size_t c = 0; c < original.size(); ++c) {
      EXPECT_FALSE(original[c].empty());
      EXPECT_EQ(restored[c], original[c]) << "component " << c;
    }
    std::remove(path.c_str());
  }
}

TEST(SnapshotSkipHeaderTest, V3FixtureLoadsWithRebuiltHeaders) {
  const std::string fixture =
      std::string(RTSI_TEST_DATA_DIR) + "/index_v3.snap";
  std::uint64_t epoch = 0;
  auto loaded = LoadIndexSnapshot(fixture, &epoch);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(epoch, 7u);
  RtsiIndex& index = *loaded.value();

  // A pre-v4 file carries no headers; the restore path must have rebuilt
  // one per sealed component.
  const auto components = index.tree().SealedSnapshot();
  ASSERT_FALSE(components.empty());
  for (const auto& component : components) {
    ASSERT_NE(component->skip_header(), nullptr);
    EXPECT_GT(component->skip_header()->num_terms(), 0u);
    EXPECT_EQ(component->skip_header()->num_terms(),
              component->num_terms());
  }

  ExpectPruningIsLossless(index, /*vocab=*/150);
}

TEST(SnapshotSkipHeaderTest, V3RebuiltHeadersMatchV4Persistence) {
  // Determinism end to end: rebuild-from-v3 then save as v4 then load;
  // the carried headers must be byte-identical to the rebuilt ones.
  const std::string fixture =
      std::string(RTSI_TEST_DATA_DIR) + "/index_v3.snap";
  auto loaded = LoadIndexSnapshot(fixture);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const auto rebuilt = HeaderBytes(*loaded.value());

  const std::string path = TempPath("v3_to_v4");
  ASSERT_TRUE(SaveIndexSnapshot(*loaded.value(), path).ok());
  auto reloaded = LoadIndexSnapshot(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(HeaderBytes(*reloaded.value()), rebuilt);
  std::remove(path.c_str());
}

/// Rebuilds, insert-for-insert, the index the v4 fixture was generated
/// from (kept in sync with the fixture generator's recipe).
std::unique_ptr<RtsiIndex> BuildV4FixtureOracle() {
  RtsiConfig config;
  config.lsm.delta = 256;
  config.lsm.rho = 2.0;
  auto index = std::make_unique<RtsiIndex>(config);
  Rng rng(47);
  Timestamp t = 0;
  for (StreamId s = 0; s < 120; ++s) {
    for (int w = 0; w < 3; ++w) {
      std::vector<TermCount> terms;
      std::set<TermId> used;
      for (int i = 0; i < 8; ++i) {
        const auto term = static_cast<TermId>(rng.NextUint64(120));
        if (used.insert(term).second) {
          terms.push_back(
              {term, 1 + static_cast<TermFreq>(rng.NextUint64(4))});
        }
      }
      t += kMicrosPerSecond;
      index->InsertWindow(s, t, terms, w < 2);
    }
    if (s % 3 == 0) index->FinishStream(s);
    index->UpdatePopularity(s, rng.NextUint64(300));
  }
  index->WaitForMerges();
  return index;
}

void ExpectSameTopK(RtsiIndex& got, RtsiIndex& expect, Timestamp now,
                    const char* label) {
  for (TermId q = 0; q < 120; q += 7) {
    const auto r_got = got.Query({q, (q + 11) % 120}, 10, now);
    const auto r_expect = expect.Query({q, (q + 11) % 120}, 10, now);
    ASSERT_EQ(r_got.size(), r_expect.size()) << label << " term " << q;
    for (std::size_t i = 0; i < r_got.size(); ++i) {
      ASSERT_EQ(r_got[i].stream, r_expect[i].stream)
          << label << " term " << q << " rank " << i;
      ASSERT_NEAR(r_got[i].score, r_expect[i].score, 1e-9)
          << label << " term " << q << " rank " << i;
    }
  }
}

// The checked-in v4 fixture (written before multi-run levels) answers
// like the index it was saved from, and keeps compacting alongside it as
// both ingest the same windows.
TEST(SnapshotSkipHeaderTest, V4FixtureLoadsAndKeepsMerging) {
  const std::string fixture =
      std::string(RTSI_TEST_DATA_DIR) + "/index_v4.snap";
  std::uint64_t journal_epoch = 0;
  auto loaded = LoadIndexSnapshot(fixture, &journal_epoch);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto index = std::move(loaded).value();
  EXPECT_EQ(journal_epoch, 11u);
  // The fixture workload updates popularity after insertion, so kSnapshot
  // pruning is drift-inexact and component-layout dependent; compare the
  // trees by exhaustive walk instead.
  index->SetUseBound(false);

  auto oracle = BuildV4FixtureOracle();
  oracle->SetUseBound(false);
  EXPECT_EQ(index->tree().total_postings(),
            oracle->tree().total_postings());
  Timestamp now = 360 * kMicrosPerSecond;
  ExpectSameTopK(*index, *oracle, now, "restored-v4");

  const std::size_t merges_before = index->GetMergeStats().merges;
  Rng rng(91);
  Timestamp t = now;
  for (StreamId s = 200; s < 320; ++s) {
    for (int w = 0; w < 3; ++w) {
      std::vector<TermCount> terms;
      std::set<TermId> used;
      for (int i = 0; i < 8; ++i) {
        const auto term = static_cast<TermId>(rng.NextUint64(120));
        if (used.insert(term).second) {
          terms.push_back(
              {term, 1 + static_cast<TermFreq>(rng.NextUint64(4))});
        }
      }
      t += kMicrosPerSecond;
      index->InsertWindow(s, t, terms, false);
      oracle->InsertWindow(s, t, terms, false);
    }
    index->FinishStream(s);
    oracle->FinishStream(s);
  }
  index->WaitForMerges();
  oracle->WaitForMerges();
  EXPECT_GT(index->GetMergeStats().merges, merges_before);
  ExpectSameTopK(*index, *oracle, t, "merged-after-restore");
}

}  // namespace
}  // namespace rtsi::storage
