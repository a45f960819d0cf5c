// Durability: journaled operations, crash recovery (snapshot + journal
// tail), and checkpointing.

#include "storage/journal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/rng.h"
#include "storage/fault_injection.h"
#include "storage/fs.h"

namespace rtsi::storage {
namespace {

using core::RtsiConfig;
using core::TermCount;

const char* kSnapPath = "/tmp/rtsi_journal_test.snap";
const char* kJournalPath = "/tmp/rtsi_journal_test.journal";

void Cleanup() {
  std::remove(kSnapPath);
  std::remove((std::string(kSnapPath) + ".tmp").c_str());
  std::remove(kJournalPath);
  std::remove((std::string(kJournalPath) + ".old").c_str());
  for (int epoch = 0; epoch < 8; ++epoch) {
    std::remove(
        (std::string(kJournalPath) + "." + std::to_string(epoch)).c_str());
  }
}

RtsiConfig SmallConfig() {
  RtsiConfig config;
  config.lsm.delta = 300;
  return config;
}

TEST(JournalWriterTest, AppendAndReset) {
  Cleanup();
  JournalWriter writer;
  ASSERT_TRUE(writer.Open(kJournalPath).ok());
  workload::TraceOp op;
  op.kind = workload::TraceOp::Kind::kFinish;
  op.stream = 5;
  ASSERT_TRUE(writer.Append(op).ok());
  ASSERT_TRUE(writer.Append(op).ok());
  EXPECT_EQ(writer.records_written(), 2u);
  ASSERT_TRUE(writer.Reset().ok());
  EXPECT_EQ(writer.records_written(), 0u);
  ASSERT_TRUE(writer.Close().ok());
  Cleanup();
}

TEST(DurableIndexTest, FreshOpenWorksWithoutFiles) {
  Cleanup();
  auto opened = DurableIndex::Open(SmallConfig(), kSnapPath, kJournalPath);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto& index = *opened.value();
  index.InsertWindow(1, 1000, {{10, 3}}, true);
  EXPECT_EQ(index.Query({10}, 5, 2000).size(), 1u);
  Cleanup();
}

TEST(DurableIndexTest, RecoversFromJournalAlone) {
  Cleanup();
  {
    auto opened =
        DurableIndex::Open(SmallConfig(), kSnapPath, kJournalPath, true);
    ASSERT_TRUE(opened.ok());
    auto& index = *opened.value();
    index.InsertWindow(1, 1000, {{10, 3}, {11, 1}}, true);
    index.InsertWindow(2, 2000, {{10, 1}}, true);
    index.UpdatePopularity(2, 500);
    index.FinishStream(1);
    index.DeleteStream(2);
    // "Crash": no checkpoint, destructor just closes the file.
  }
  auto reopened = DurableIndex::Open(SmallConfig(), kSnapPath, kJournalPath);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto& index = *reopened.value();
  const auto results = index.Query({10}, 5, 3000);
  ASSERT_EQ(results.size(), 1u);      // Stream 2 deleted.
  EXPECT_EQ(results[0].stream, 1u);
  Cleanup();
}

TEST(DurableIndexTest, CheckpointTruncatesJournalAndSurvivesReopen) {
  Cleanup();
  {
    auto opened = DurableIndex::Open(SmallConfig(), kSnapPath, kJournalPath);
    ASSERT_TRUE(opened.ok());
    auto& index = *opened.value();
    Rng rng(5);
    Timestamp t = 0;
    for (StreamId s = 0; s < 150; ++s) {
      index.InsertWindow(s, t += kMicrosPerSecond,
                         {{static_cast<TermId>(s % 20), 2}}, false);
      index.FinishStream(s);
    }
    ASSERT_TRUE(index.Checkpoint().ok());
    // Post-checkpoint ops land in the (now empty) journal.
    index.InsertWindow(900, t += kMicrosPerSecond, {{7, 5}}, true);
  }
  // Journal should only contain the post-checkpoint tail.
  auto tail = workload::Trace::LoadFromFile(kJournalPath);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail.value().size(), 1u);

  auto reopened = DurableIndex::Open(SmallConfig(), kSnapPath, kJournalPath);
  ASSERT_TRUE(reopened.ok());
  auto& index = *reopened.value();
  EXPECT_EQ(index.index().stream_table().size(), 151u);
  const auto results = index.Query({7}, 200, 10'000'000'000LL);
  bool found_tail_stream = false;
  for (const auto& r : results) {
    if (r.stream == 900) found_tail_stream = true;
  }
  EXPECT_TRUE(found_tail_stream);
  Cleanup();
}

TEST(DurableIndexTest, RecoveryMatchesUninterruptedExecution) {
  Cleanup();
  // Run the same op sequence (a) straight through on a plain index and
  // (b) split across a crash + recovery; results must agree.
  core::RtsiIndex reference(SmallConfig());
  Rng rng(9);
  Timestamp t = 0;

  auto apply_ops = [&](core::SearchIndex& target, Rng local_rng,
                       Timestamp start, int from, int to) {
    Timestamp now = start;
    for (int i = from; i < to; ++i) {
      (void)local_rng;
      now += kMicrosPerSecond;
      const auto stream = static_cast<StreamId>(i % 40);
      target.InsertWindow(stream, now,
                          {{static_cast<TermId>(i % 25),
                            static_cast<TermFreq>(1 + i % 3)}},
                          true);
      if (i % 7 == 0) target.UpdatePopularity(stream, 10);
    }
    return now;
  };

  apply_ops(reference, rng, t, 0, 200);
  {
    auto opened = DurableIndex::Open(SmallConfig(), kSnapPath, kJournalPath);
    ASSERT_TRUE(opened.ok());
    apply_ops(*opened.value(), rng, t, 0, 120);
    // Crash here.
  }
  {
    auto reopened =
        DurableIndex::Open(SmallConfig(), kSnapPath, kJournalPath);
    ASSERT_TRUE(reopened.ok());
    apply_ops(*reopened.value(), rng, t + 120 * kMicrosPerSecond, 120, 200);

    const Timestamp now = 10'000'000'000LL;
    for (TermId q = 0; q < 25; ++q) {
      const auto r1 = reference.Query({q}, 10, now);
      const auto r2 = reopened.value()->Query({q}, 10, now);
      ASSERT_EQ(r1.size(), r2.size()) << q;
      for (std::size_t i = 0; i < r1.size(); ++i) {
        ASSERT_NEAR(r1[i].score, r2[i].score, 1e-9) << q << " rank " << i;
      }
    }
  }
  Cleanup();
}

TEST(JournalWriterTest, RecordsWrittenSurvivesClose) {
  Cleanup();
  JournalWriter writer;
  ASSERT_TRUE(writer.Open(kJournalPath).ok());
  workload::TraceOp op;
  op.kind = workload::TraceOp::Kind::kFinish;
  op.stream = 3;
  ASSERT_TRUE(writer.Append(op).ok());
  ASSERT_TRUE(writer.Append(op).ok());
  ASSERT_TRUE(writer.Close().ok());
  EXPECT_EQ(writer.records_written(), 2u);
  EXPECT_FALSE(writer.is_open());
  Cleanup();
}

TEST(JournalWriterTest, FailedResetKeepsWriterConsistent) {
  Cleanup();
  JournalWriter writer;
  ASSERT_TRUE(writer.Open(kJournalPath, /*flush_each_record=*/true).ok());
  workload::TraceOp op;
  op.kind = workload::TraceOp::Kind::kFinish;
  op.stream = 9;
  ASSERT_TRUE(writer.Append(op).ok());
  ASSERT_TRUE(writer.Append(op).ok());

  auto& fi = FaultInjection::Instance();
  fi.Enable();
  fi.ArmFaultAt(0, /*crash=*/false);  // Reset's rename fails once.
  EXPECT_FALSE(writer.Reset().ok());
  fi.Disable();

  // Bookkeeping must reflect reality: the old file and its records are
  // still there, and the writer keeps working.
  EXPECT_TRUE(writer.is_open());
  EXPECT_EQ(writer.records_written(), 2u);
  ASSERT_TRUE(writer.Append(op).ok());
  EXPECT_EQ(writer.records_written(), 3u);

  ASSERT_TRUE(writer.Reset().ok());
  EXPECT_EQ(writer.records_written(), 0u);
  EXPECT_FALSE(fs::Exists(std::string(kJournalPath) + ".old"));
  ASSERT_TRUE(writer.Close().ok());
  Cleanup();
}

TEST(DurableIndexTest, AppendFailureFailsStopIntoReadOnlyMode) {
  Cleanup();
  auto& fi = FaultInjection::Instance();
  fi.Enable();
  {
    auto opened =
        DurableIndex::Open(SmallConfig(), kSnapPath, kJournalPath, true);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto& index = *opened.value();
    index.InsertWindow(1, 1'000'000, {{10, 3}}, true);
    index.InsertWindow(2, 2'000'000, {{10, 1}}, true);
    ASSERT_FALSE(index.degraded());

    fi.ClearSchedule();
    fi.ArmFaultAt(0, /*crash=*/false);  // Next append's write fails.
    index.InsertWindow(3, 3'000'000, {{10, 2}}, true);
    EXPECT_TRUE(index.degraded());
    EXPECT_FALSE(index.last_error().ok());

    // Read-only: queries keep serving, mutations are rejected and NOT
    // applied in memory — durable and in-memory state never diverge.
    EXPECT_EQ(index.Query({10}, 10, 4'000'000).size(), 2u);
    index.InsertWindow(4, 4'000'000, {{10, 2}}, true);
    index.UpdatePopularity(1, 50);
    EXPECT_EQ(index.Query({10}, 10, 5'000'000).size(), 2u);

    // A successful checkpoint re-establishes a healthy journal.
    ASSERT_TRUE(index.Checkpoint().ok());
    EXPECT_FALSE(index.degraded());
    EXPECT_TRUE(index.last_error().ok());
    index.InsertWindow(5, 5'000'000, {{10, 1}}, true);
    EXPECT_EQ(index.Query({10}, 10, 6'000'000).size(), 3u);
  }
  fi.Disable();

  // The durable state equals what the in-memory index reported.
  auto reopened =
      DurableIndex::Open(SmallConfig(), kSnapPath, kJournalPath);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const auto results = reopened.value()->Query({10}, 10, 6'000'000);
  ASSERT_EQ(results.size(), 3u);
  bool seen[6] = {};
  for (const auto& r : results) seen[r.stream] = true;
  EXPECT_TRUE(seen[1] && seen[2] && seen[5]);
  EXPECT_FALSE(seen[3] || seen[4]);  // The rejected ops never happened.
  Cleanup();
}

TEST(DurableIndexTest, LegacyJournalWithoutChecksumsReplays) {
  Cleanup();
  // An old-format journal: no epoch header, no CRC suffixes.
  std::FILE* f = std::fopen(kJournalPath, "w");
  ASSERT_NE(f, nullptr);
  std::fputs("I 1 1000000 1 10:3 11:1\nI 2 2000000 1 10:2\nU 2 50\n", f);
  std::fclose(f);

  RecoveryStats stats;
  auto opened =
      DurableIndex::Open(SmallConfig(), kSnapPath, kJournalPath, true, &stats);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_FALSE(stats.snapshot_loaded);
  EXPECT_EQ(stats.journals_replayed, 1u);
  EXPECT_EQ(stats.ops_replayed, 3u);
  EXPECT_EQ(opened.value()->Query({10}, 5, 3'000'000).size(), 2u);

  // New (checksummed) records append cleanly after the legacy tail.
  opened.value()->InsertWindow(3, 3'000'000, {{10, 1}}, true);
  ASSERT_FALSE(opened.value()->degraded());
  auto reopened = DurableIndex::Open(SmallConfig(), kSnapPath, kJournalPath);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->Query({10}, 5, 4'000'000).size(), 3u);
  Cleanup();
}

TEST(DurableIndexTest, TornFinalRecordIsDroppedAndTruncated) {
  Cleanup();
  {
    auto opened =
        DurableIndex::Open(SmallConfig(), kSnapPath, kJournalPath, true);
    ASSERT_TRUE(opened.ok());
    opened.value()->InsertWindow(1, 1'000'000, {{10, 3}}, true);
    opened.value()->InsertWindow(2, 2'000'000, {{11, 1}}, true);
  }
  // A torn final write: half a record, no newline, no checksum.
  std::FILE* f = std::fopen(kJournalPath, "a");
  ASSERT_NE(f, nullptr);
  std::fputs("I 9 9000000 1 10", f);
  std::fclose(f);
  const std::uint64_t torn_size = fs::FileSize(kJournalPath);

  RecoveryStats stats;
  auto reopened =
      DurableIndex::Open(SmallConfig(), kSnapPath, kJournalPath, true, &stats);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(stats.ops_replayed, 2u);
  EXPECT_EQ(stats.torn_tails_dropped, 1u);
  EXPECT_EQ(reopened.value()->Query({10}, 5, 9'999'999).size(), 1u);

  // Recovery truncated the torn bytes so future appends are safe.
  EXPECT_LT(fs::FileSize(kJournalPath), torn_size);
  const JournalInspection inspection = InspectJournal(kJournalPath);
  EXPECT_TRUE(inspection.readable);
  EXPECT_FALSE(inspection.corrupt);
  EXPECT_FALSE(inspection.torn_tail);
  EXPECT_EQ(inspection.records, 2u);
  EXPECT_EQ(inspection.checksummed_records, 2u);
  Cleanup();
}

TEST(DurableIndexTest, MidFileCorruptionFailsRecoveryHard) {
  Cleanup();
  {
    JournalWriter writer;
    ASSERT_TRUE(writer.Open(kJournalPath, true).ok());
    workload::TraceOp op;
    op.kind = workload::TraceOp::Kind::kFinish;
    for (StreamId s = 1; s <= 3; ++s) {
      op.stream = s;
      ASSERT_TRUE(writer.Append(op).ok());
    }
    ASSERT_TRUE(writer.Close().ok());
  }
  // Flip one byte in the MIDDLE record (not the tail).
  std::FILE* f = std::fopen(kJournalPath, "rb");
  ASSERT_NE(f, nullptr);
  std::string data(4096, '\0');
  data.resize(std::fread(data.data(), 1, data.size(), f));
  std::fclose(f);
  const std::size_t pos = data.find("F 2");
  ASSERT_NE(pos, std::string::npos);
  data[pos] = 'D';  // Valid syntax, wrong checksum.
  f = std::fopen(kJournalPath, "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), f), data.size());
  std::fclose(f);

  auto opened = DurableIndex::Open(SmallConfig(), kSnapPath, kJournalPath);
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().ToString().find("checksum"), std::string::npos)
      << opened.status().ToString();

  const JournalInspection inspection = InspectJournal(kJournalPath);
  EXPECT_TRUE(inspection.readable);
  EXPECT_TRUE(inspection.corrupt);
  EXPECT_EQ(inspection.first_corrupt_offset,
            static_cast<std::uint64_t>(pos));
  Cleanup();
}

TEST(DurableIndexTest, RecoveryStatsReportSnapshotAndReplay) {
  Cleanup();
  {
    auto opened =
        DurableIndex::Open(SmallConfig(), kSnapPath, kJournalPath, true);
    ASSERT_TRUE(opened.ok());
    for (StreamId s = 0; s < 5; ++s) {
      opened.value()->InsertWindow(s, (s + 1) * kMicrosPerSecond,
                                   {{static_cast<TermId>(s), 1}}, true);
    }
    ASSERT_TRUE(opened.value()->Checkpoint().ok());
    opened.value()->InsertWindow(7, 9 * kMicrosPerSecond, {{2, 4}}, true);
    opened.value()->UpdatePopularity(7, 11);
  }
  RecoveryStats stats;
  auto reopened =
      DurableIndex::Open(SmallConfig(), kSnapPath, kJournalPath, true, &stats);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(stats.snapshot_loaded);
  EXPECT_EQ(stats.snapshot_epoch, 1u);
  EXPECT_EQ(stats.journals_replayed, 1u);  // Only the post-checkpoint tail.
  EXPECT_EQ(stats.journals_skipped, 0u);
  EXPECT_EQ(stats.ops_replayed, 2u);
  EXPECT_EQ(stats.torn_tails_dropped, 0u);
  EXPECT_GE(stats.replay_seconds, 0.0);
  Cleanup();
}

TEST(DurableIndexTest, JournalDoublesAsWorkloadTrace) {
  Cleanup();
  {
    auto opened =
        DurableIndex::Open(SmallConfig(), kSnapPath, kJournalPath, true);
    ASSERT_TRUE(opened.ok());
    opened.value()->InsertWindow(1, 1'000'000, {{10, 3}}, true);
    opened.value()->UpdatePopularity(1, 5);
    opened.value()->FinishStream(1);
  }
  // The journal (epoch header + checksummed records) is itself a valid
  // trace: the header parses as a comment, checksums verify and strip.
  auto trace = workload::Trace::LoadFromFile(kJournalPath);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  ASSERT_EQ(trace.value().size(), 3u);
  EXPECT_EQ(trace.value().ops()[0].kind, workload::TraceOp::Kind::kInsert);
  EXPECT_EQ(trace.value().ops()[2].kind, workload::TraceOp::Kind::kFinish);
  Cleanup();
}

}  // namespace
}  // namespace rtsi::storage
