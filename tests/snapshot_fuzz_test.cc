// Corruption-robustness sweep: random single-byte flips and truncations
// anywhere in a snapshot file must never crash the loader — every attempt
// either fails cleanly or (for bytes the CRC does not cover, i.e. none in
// the payload) loads correctly.

#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "core/rtsi_index.h"
#include "storage/snapshot.h"

namespace rtsi::storage {
namespace {

std::vector<std::uint8_t> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<std::uint8_t> data(static_cast<std::size_t>(size));
  EXPECT_EQ(std::fread(data.data(), 1, data.size(), f), data.size());
  std::fclose(f);
  return data;
}

void WriteFile(const std::string& path,
               const std::vector<std::uint8_t>& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fwrite(data.data(), 1, data.size(), f);
  std::fclose(f);
}

class SnapshotFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SnapshotFuzz, RandomCorruptionNeverCrashes) {
  const std::string base = "/tmp/rtsi_fuzz_base.snap";
  const std::string mutated = "/tmp/rtsi_fuzz_mut.snap";

  core::RtsiConfig config;
  config.lsm.delta = 120;
  core::RtsiIndex index(config);
  Timestamp t = 0;
  for (StreamId s = 0; s < 80; ++s) {
    index.InsertWindow(s, t += kMicrosPerSecond,
                       {{static_cast<TermId>(s % 9), 2}}, false);
    index.FinishStream(s);
  }
  index.WaitForMerges();
  ASSERT_TRUE(SaveIndexSnapshot(index, base).ok());
  const std::vector<std::uint8_t> pristine = ReadFile(base);

  Rng rng(GetParam() * 7919);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<std::uint8_t> data = pristine;
    if (rng.NextBool(0.5)) {
      // Flip 1-4 random bytes.
      const int flips = 1 + static_cast<int>(rng.NextUint64(4));
      for (int i = 0; i < flips; ++i) {
        const std::size_t pos = rng.NextUint64(data.size());
        data[pos] ^= static_cast<std::uint8_t>(1 + rng.NextUint64(255));
      }
    } else {
      // Truncate to a random prefix.
      data.resize(rng.NextUint64(data.size()));
    }
    WriteFile(mutated, data);
    const auto result = LoadIndexSnapshot(mutated);  // Must not crash.
    if (result.ok()) {
      // Only possible if the mutation was a no-op semantically; verify
      // the loaded index is sane.
      EXPECT_LE(result.value()->tree().total_postings(), 80u);
    }
  }
  std::remove(base.c_str());
  std::remove(mutated.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotFuzz, ::testing::Range(1, 7));

}  // namespace
}  // namespace rtsi::storage
