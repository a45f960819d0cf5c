// Checkpoint atomicity: a crash at ANY fault point inside Checkpoint()
// — mid-snapshot-write, after the temporary is written but before the
// rename, after the rename but before the covered journals are unlinked,
// and at every rotation step — must leave either the old snapshot plus a
// replayable journal or the new snapshot. Reopening must recover every
// acknowledged operation, under both power-loss models (directory ops
// kept or rolled back) and with torn unsynced tails.

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
#include "storage/fs.h"
#include "workload/trace.h"

namespace rtsi::storage {
namespace {

using core::RtsiConfig;
using workload::TraceOp;

const char* kDir = "/tmp/rtsi_checkpoint_atomicity_test";

std::string SnapPath() { return std::string(kDir) + "/index.snap"; }
std::string JournalPath() { return std::string(kDir) + "/index.journal"; }

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

constexpr TermId kVocab = 6;
constexpr StreamId kNumStreams = 6;
constexpr int kPreOps = 18;

std::vector<TraceOp> MakeWorkload(int n) {
  std::vector<TraceOp> ops;
  Timestamp now = 0;
  for (int i = 0; i < n; ++i) {
    now += kMicrosPerSecond;
    TraceOp op;
    if (i % 7 == 6) {
      op.kind = TraceOp::Kind::kUpdate;
      op.stream = static_cast<StreamId>(i % kNumStreams);
      op.delta = 2 + i % 4;
    } else {
      op.kind = TraceOp::Kind::kInsert;
      op.stream = static_cast<StreamId>(i % kNumStreams);
      op.now = now;
      op.live = true;
      op.terms = {{static_cast<TermId>(i % kVocab),
                   static_cast<TermFreq>(1 + i % 2)},
                  {static_cast<TermId>((i + 2) % kVocab), 1}};
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
    case TraceOp::Kind::kUpdate:
      index.UpdatePopularity(op.stream, op.delta);
      break;
    default:
      break;
  }
}

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

// Counts the fault points consumed by one Checkpoint() call (the op
// counter is reset right before it via ClearSchedule).
std::uint64_t CountCheckpointFaultPoints(const std::vector<TraceOp>& ops) {
  auto& fi = FaultInjection::Instance();
  CleanDir();
  fi.Enable();
  std::uint64_t points = 0;
  {
    auto opened = DurableIndex::Open(SmallConfig(), SnapPath(),
                                     JournalPath(), true);
    EXPECT_TRUE(opened.ok());
    for (const TraceOp& op : ops) ApplyOp(*opened.value(), op);
    fi.ClearSchedule();
    EXPECT_TRUE(opened.value()->Checkpoint().ok());
    points = fi.ops_seen();
  }
  fi.Disable();
  return points;
}

TEST(CheckpointAtomicityTest, CrashAtEveryPointInsideCheckpoint) {
  const std::vector<TraceOp> ops = MakeWorkload(kPreOps);

  Probe expected;
  {
    core::RtsiIndex reference(SmallConfig());
    for (const TraceOp& op : ops) ApplyOp(reference, op);
    expected = ProbeIndex(reference);
  }

  const std::uint64_t checkpoint_points = CountCheckpointFaultPoints(ops);
  // Rotation alone is sync + rename + header write + header sync +
  // dir fsync; the snapshot adds many writes plus its commit sequence.
  ASSERT_GT(checkpoint_points, 8u);

  auto& fi = FaultInjection::Instance();
  for (int undo = 0; undo <= 1; ++undo) {
    for (std::uint64_t point = 0; point < checkpoint_points; ++point) {
      SCOPED_TRACE("crash at checkpoint fault point " +
                   std::to_string(point) + "/" +
                   std::to_string(checkpoint_points) +
                   (undo ? " with dir ops rolled back" : ""));
      CleanDir();
      fi.Enable();
      {
        auto opened = DurableIndex::Open(SmallConfig(), SnapPath(),
                                         JournalPath(), true);
        ASSERT_TRUE(opened.ok());
        auto& index = *opened.value();
        for (const TraceOp& op : ops) ApplyOp(index, op);
        ASSERT_FALSE(index.degraded());

        fi.ClearSchedule();
        fi.ArmFaultAt(point, /*crash=*/true);
        (void)index.Checkpoint();
        // Whatever the checkpoint outcome, a mutation issued after the
        // crash must never be acknowledged (appends can't reach disk).
        index.UpdatePopularity(0, 1);
        EXPECT_TRUE(index.degraded());
      }
      FaultInjection::CrashOptions crash;
      crash.undo_unsynced_dir_ops = undo == 1;
      crash.keep_unsynced_tail_bytes = (point % 2 == 0) ? 5 : 0;
      fi.SimulateCrash(crash);
      fi.Disable();

      RecoveryStats stats;
      auto reopened = DurableIndex::Open(SmallConfig(), SnapPath(),
                                         JournalPath(), true, &stats);
      ASSERT_TRUE(reopened.ok())
          << "no valid snapshot or replayable journal after crash: "
          << reopened.status().ToString();
      EXPECT_TRUE(SameProbe(ProbeIndex(*reopened.value()), expected))
          << "acknowledged pre-checkpoint operations were lost";
    }
  }
  CleanDir();
}

// A crashed checkpoint must not poison FUTURE checkpoints: recovery plus
// a successful checkpoint afterwards retires every stale file.
TEST(CheckpointAtomicityTest, RecoveredIndexCheckpointsCleanly) {
  const std::vector<TraceOp> ops = MakeWorkload(kPreOps);
  const std::uint64_t checkpoint_points = CountCheckpointFaultPoints(ops);
  auto& fi = FaultInjection::Instance();

  // A spread of early / middle / late crash points.
  const std::uint64_t picks[] = {0, 1, checkpoint_points / 2,
                                 checkpoint_points - 2,
                                 checkpoint_points - 1};
  for (const std::uint64_t point : picks) {
    SCOPED_TRACE("crash at checkpoint fault point " + std::to_string(point));
    CleanDir();
    fi.Enable();
    {
      auto opened = DurableIndex::Open(SmallConfig(), SnapPath(),
                                       JournalPath(), true);
      ASSERT_TRUE(opened.ok());
      for (const TraceOp& op : ops) ApplyOp(*opened.value(), op);
      fi.ClearSchedule();
      fi.ArmFaultAt(point, /*crash=*/true);
      (void)opened.value()->Checkpoint();
    }
    fi.SimulateCrash(FaultInjection::CrashOptions{});
    fi.Disable();

    auto reopened = DurableIndex::Open(SmallConfig(), SnapPath(),
                                       JournalPath(), true);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    ASSERT_TRUE(reopened.value()->Checkpoint().ok());
    reopened.value()->InsertWindow(100, 99 * kMicrosPerSecond,
                                   {{0, 1}}, true);
    ASSERT_FALSE(reopened.value()->degraded());
    const Probe before = ProbeIndex(*reopened.value());
    reopened.value().reset();  // Close the journal before reopening.

    // After a clean checkpoint no rotated journals may linger, and one
    // more reopen sees the same state.
    auto again = DurableIndex::Open(SmallConfig(), SnapPath(),
                                    JournalPath(), true);
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE(SameProbe(ProbeIndex(*again.value()), before));
  }
  CleanDir();
}

}  // namespace
}  // namespace rtsi::storage
