// Crash-recovery torture test: run a journaled workload with a fault
// injected at EVERY filesystem syscall boundary (write, fsync, rename,
// unlink, directory fsync), simulate power loss, reopen, and verify that
// no acknowledged operation is lost and the recovered index matches an
// uninterrupted oracle bit-for-bit.
//
// The invariant checked for each crash point: the recovered state equals
// the oracle state after some prefix of the workload whose length is at
// least the number of acknowledged (non-degraded) operations. With
// flush_each_record every acknowledged op is fdatasync'd, so the prefix
// is exactly the acked count; the looser form also covers group commit.

#include "storage/journal.h"

#include <dirent.h>
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/rtsi_index.h"
#include "storage/fault_injection.h"
#include "workload/trace.h"

namespace rtsi::storage {
namespace {

using core::RtsiConfig;
using workload::TraceOp;

const char* kDir = "/tmp/rtsi_crash_recovery_test";

std::string SnapPath() { return std::string(kDir) + "/index.snap"; }
std::string JournalPath() { return std::string(kDir) + "/index.journal"; }

// Removes every file in the test directory (snapshots, journals, rotated
// journals, leftover temporaries), creating the directory if needed.
void CleanDir() {
  ::mkdir(kDir, 0755);
  DIR* dir = ::opendir(kDir);
  if (dir == nullptr) return;
  std::vector<std::string> names;
  while (dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (name != "." && name != "..") names.push_back(name);
  }
  ::closedir(dir);
  for (const std::string& name : names) {
    std::remove((std::string(kDir) + "/" + name).c_str());
  }
}

RtsiConfig SmallConfig() {
  RtsiConfig config;
  config.lsm.delta = 300;
  return config;
}

constexpr TermId kVocab = 8;
constexpr StreamId kNumStreams = 8;

// A deterministic mutation-only workload mixing inserts, popularity
// updates, a finish and a delete.
std::vector<TraceOp> MakeWorkload(int n) {
  std::vector<TraceOp> ops;
  Timestamp now = 0;
  for (int i = 0; i < n; ++i) {
    now += kMicrosPerSecond;
    TraceOp op;
    if (i == 11) {
      op.kind = TraceOp::Kind::kFinish;
      op.stream = 1;
    } else if (i == 17) {
      op.kind = TraceOp::Kind::kDelete;
      op.stream = 3;
    } else if (i % 6 == 5) {
      op.kind = TraceOp::Kind::kUpdate;
      op.stream = static_cast<StreamId>(i % kNumStreams);
      op.delta = 3 + i % 5;
    } else {
      op.kind = TraceOp::Kind::kInsert;
      op.stream = static_cast<StreamId>(i % kNumStreams);
      op.now = now;
      op.live = true;
      op.terms = {{static_cast<TermId>(i % kVocab),
                   static_cast<TermFreq>(1 + i % 3)},
                  {static_cast<TermId>((i + 3) % kVocab), 1}};
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

void ApplyOp(core::SearchIndex& index, const TraceOp& op) {
  switch (op.kind) {
    case TraceOp::Kind::kInsert:
      index.InsertWindow(op.stream, op.now, op.terms, op.live);
      break;
    case TraceOp::Kind::kFinish:
      index.FinishStream(op.stream);
      break;
    case TraceOp::Kind::kDelete:
      index.DeleteStream(op.stream);
      break;
    case TraceOp::Kind::kUpdate:
      index.UpdatePopularity(op.stream, op.delta);
      break;
    case TraceOp::Kind::kQuery:
      break;
  }
}

// One top-k result list per vocabulary term, sorted by stream id so the
// comparison is insensitive to tie order.
using Probe = std::vector<std::vector<std::pair<StreamId, double>>>;

Probe ProbeIndex(core::SearchIndex& index) {
  Probe probe(kVocab);
  for (TermId t = 0; t < kVocab; ++t) {
    for (const auto& r :
         index.Query({t}, 2 * static_cast<int>(kNumStreams),
                     1'000'000'000'000LL)) {
      probe[t].emplace_back(r.stream, r.score);
    }
    std::sort(probe[t].begin(), probe[t].end());
  }
  return probe;
}

bool SameProbe(const Probe& a, const Probe& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t t = 0; t < a.size(); ++t) {
    if (a[t].size() != b[t].size()) return false;
    for (std::size_t i = 0; i < a[t].size(); ++i) {
      if (a[t][i].first != b[t][i].first) return false;
      if (std::fabs(a[t][i].second - b[t][i].second) > 1e-9) return false;
    }
  }
  return true;
}

// Applies the workload through a DurableIndex with a checkpoint before
// each op index in `checkpoints`. Returns the number of acknowledged
// operations: ops applied while the index was healthy. Ops issued in
// degraded mode are rejected (never applied, never acknowledged).
std::size_t RunWorkload(const std::vector<TraceOp>& ops,
                        const std::vector<int>& checkpoints) {
  auto opened = DurableIndex::Open(SmallConfig(), SnapPath(), JournalPath(),
                                   /*flush_each_record=*/true);
  if (!opened.ok()) return 0;  // Crashed during open: nothing acked.
  auto& index = *opened.value();
  std::size_t acked = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (std::find(checkpoints.begin(), checkpoints.end(),
                  static_cast<int>(i)) != checkpoints.end()) {
      (void)index.Checkpoint();
    }
    ApplyOp(index, ops[i]);
    if (!index.degraded()) ++acked;
  }
  return acked;
}

TEST(CrashRecoveryTortureTest, EveryCrashPointLosesNoAckedOps) {
  const int kOps = 26;
  // Two checkpoints: the second one rotates the journal and renames the
  // new snapshot over an EXISTING old one, exercising the
  // rename-over-existing-target and rotated-journal-unlink crash windows
  // (including undo rollback restoring the old snapshot / old journal).
  const std::vector<int> kCheckpoints = {8, 17};
  const std::vector<TraceOp> ops = MakeWorkload(kOps);

  // Oracle: the query results after every prefix of the workload,
  // computed on a plain (non-durable) index.
  std::vector<Probe> oracle(kOps + 1);
  {
    core::RtsiIndex reference(SmallConfig());
    oracle[0] = ProbeIndex(reference);
    for (int i = 0; i < kOps; ++i) {
      ApplyOp(reference, ops[i]);
      oracle[i + 1] = ProbeIndex(reference);
    }
  }

  auto& fi = FaultInjection::Instance();

  // Enumerate the fault points with one instrumented, un-armed run.
  CleanDir();
  fi.Enable();
  const std::size_t clean_acked = RunWorkload(ops, kCheckpoints);
  const std::uint64_t total_points = fi.ops_seen();
  fi.Disable();
  ASSERT_EQ(clean_acked, static_cast<std::size_t>(kOps));
  // Sanity: the workload must exercise appends, syncs and a checkpoint.
  ASSERT_GT(total_points, 60u);

  for (std::uint64_t point = 0; point < total_points; ++point) {
    SCOPED_TRACE("crash at fault point " + std::to_string(point) + "/" +
                 std::to_string(total_points));
    CleanDir();
    fi.Enable();
    fi.ArmFaultAt(point, /*crash=*/true);
    const std::size_t acked = RunWorkload(ops, kCheckpoints);
    EXPECT_TRUE(fi.crash_triggered());

    // Vary the power-loss model across points: sometimes a torn tail of
    // unsynced bytes survives, sometimes directory ops are rolled back.
    FaultInjection::CrashOptions crash;
    crash.keep_unsynced_tail_bytes = (point % 3 == 0) ? 7 : 0;
    crash.undo_unsynced_dir_ops = (point % 2 == 0);
    fi.SimulateCrash(crash);
    fi.Disable();

    RecoveryStats stats;
    auto reopened = DurableIndex::Open(SmallConfig(), SnapPath(),
                                       JournalPath(), true, &stats);
    ASSERT_TRUE(reopened.ok())
        << "recovery failed: " << reopened.status().ToString();
    const Probe recovered = ProbeIndex(*reopened.value());

    bool matched = false;
    for (std::size_t len = acked; len <= ops.size() && !matched; ++len) {
      matched = SameProbe(recovered, oracle[len]);
    }
    EXPECT_TRUE(matched)
        << "acked=" << acked
        << " but recovered state matches no workload prefix >= acked "
        << "(acknowledged operations were lost or corrupted)";
  }
  CleanDir();
}

// Crash points must also be survivable on a RE-opened index: the second
// process life starts from recovered files rather than a fresh
// directory, so its fault-point sequence (snapshot load, replay
// truncation, rotation) differs from the first life's.
TEST(CrashRecoveryTortureTest, CrashPointsAfterRecoveryAlsoSurvive) {
  const int kOps = 14;
  const std::vector<TraceOp> ops = MakeWorkload(kOps);
  const int kSplit = 9;  // First life applies [0, kSplit), second the rest.

  std::vector<Probe> oracle(kOps + 1);
  {
    core::RtsiIndex reference(SmallConfig());
    oracle[0] = ProbeIndex(reference);
    for (int i = 0; i < kOps; ++i) {
      ApplyOp(reference, ops[i]);
      oracle[i + 1] = ProbeIndex(reference);
    }
  }

  auto& fi = FaultInjection::Instance();
  const std::vector<TraceOp> first(ops.begin(), ops.begin() + kSplit);
  const std::vector<TraceOp> rest(ops.begin() + kSplit, ops.end());

  // Enumerate the second life's fault points.
  CleanDir();
  ASSERT_EQ(RunWorkload(first, {}), first.size());
  fi.Enable();
  ASSERT_EQ(RunWorkload(rest, {2}), rest.size());
  const std::uint64_t total_points = fi.ops_seen();
  fi.Disable();
  ASSERT_GT(total_points, 20u);

  for (std::uint64_t point = 0; point < total_points; ++point) {
    SCOPED_TRACE("crash at second-life fault point " +
                 std::to_string(point));
    CleanDir();
    ASSERT_EQ(RunWorkload(first, {}), first.size());
    fi.Enable();
    fi.ArmFaultAt(point, /*crash=*/true);
    const std::size_t acked = RunWorkload(rest, {2});
    FaultInjection::CrashOptions crash;
    crash.keep_unsynced_tail_bytes = (point % 2 == 0) ? 3 : 0;
    crash.undo_unsynced_dir_ops = (point % 2 == 1);
    fi.SimulateCrash(crash);
    fi.Disable();

    auto reopened =
        DurableIndex::Open(SmallConfig(), SnapPath(), JournalPath(), true);
    ASSERT_TRUE(reopened.ok())
        << "recovery failed: " << reopened.status().ToString();
    const Probe recovered = ProbeIndex(*reopened.value());
    bool matched = false;
    for (std::size_t len = first.size() + acked;
         len <= ops.size() && !matched; ++len) {
      matched = SameProbe(recovered, oracle[len]);
    }
    EXPECT_TRUE(matched) << "acked=" << first.size() + acked
                         << " ops lost across two crashes";
  }
  CleanDir();
}

TEST(CrashRecoveryTest, GroupCommitBoundsLossToUnsyncedTail) {
  CleanDir();
  auto& fi = FaultInjection::Instance();
  fi.Enable();  // Track durability; no fault armed.
  const std::vector<TraceOp> ops = MakeWorkload(10);
  JournalOptions options;
  options.group_commit_records = 4;
  {
    auto opened =
        DurableIndex::Open(SmallConfig(), SnapPath(), JournalPath(), options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    for (const TraceOp& op : ops) ApplyOp(*opened.value(), op);
    ASSERT_FALSE(opened.value()->degraded());
  }
  // Power loss: records 9 and 10 were appended but never group-committed.
  fi.SimulateCrash(FaultInjection::CrashOptions{});
  fi.Disable();

  RecoveryStats stats;
  auto reopened = DurableIndex::Open(SmallConfig(), SnapPath(), JournalPath(),
                                     true, &stats);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(stats.ops_replayed, 8u);  // Two full group commits survive.

  core::RtsiIndex reference(SmallConfig());
  for (int i = 0; i < 8; ++i) ApplyOp(reference, ops[i]);
  EXPECT_TRUE(SameProbe(ProbeIndex(*reopened.value()),
                        ProbeIndex(reference)));
  CleanDir();
}

TEST(CrashRecoveryTest, FlushMakesGroupCommitTailDurable) {
  CleanDir();
  auto& fi = FaultInjection::Instance();
  fi.Enable();
  const std::vector<TraceOp> ops = MakeWorkload(10);
  JournalOptions options;
  options.group_commit_records = 4;
  {
    auto opened =
        DurableIndex::Open(SmallConfig(), SnapPath(), JournalPath(), options);
    ASSERT_TRUE(opened.ok());
    for (const TraceOp& op : ops) ApplyOp(*opened.value(), op);
    ASSERT_TRUE(opened.value()->Flush().ok());
  }
  fi.SimulateCrash(FaultInjection::CrashOptions{});
  fi.Disable();

  RecoveryStats stats;
  auto reopened = DurableIndex::Open(SmallConfig(), SnapPath(), JournalPath(),
                                     true, &stats);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(stats.ops_replayed, 10u);  // Flush() made the tail durable.
  CleanDir();
}

}  // namespace
}  // namespace rtsi::storage
