// Per-shard crash recovery: a sharded durable deployment must uphold the
// PR 3 crash-consistency contract INDEPENDENTLY per shard. A machine
// crash at any filesystem syscall boundary may lose each shard's
// unacknowledged tail, but never an acknowledged op — and a fault that
// degrades one shard must leave the others acking and their files
// untouched.
//
// The invariant per crash point: each recovered shard matches some
// prefix of ITS OWN op subsequence (the workload partitioned by
// ShardForStream) of length >= the ops acknowledged by that shard.
// Each shard is a plain index, so its probe compares bit-for-bit against
// a plain single-index oracle fed only its subsequence.

#include "shard/shard_set.h"

#include <dirent.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/rtsi_index.h"
#include "storage/fault_injection.h"
#include "storage/fs.h"
#include "storage/journal.h"
#include "workload/trace.h"

namespace rtsi::shard {
namespace {

using core::RtsiConfig;
using storage::FaultInjection;
using workload::TraceOp;

const char* kDir = "/tmp/rtsi_shard_crash_recovery_test";
constexpr int kShards = 2;

// Removes every file under the shard directories (snapshots, journals,
// temporaries), creating the tree if needed.
void CleanDir() {
  ::mkdir(kDir, 0755);
  for (int s = 0; s < kShards; ++s) {
    const std::string shard_dir =
        std::string(kDir) + "/shard-" + std::to_string(s);
    ::mkdir(shard_dir.c_str(), 0755);
    DIR* dir = ::opendir(shard_dir.c_str());
    if (dir == nullptr) continue;
    std::vector<std::string> names;
    while (dirent* entry = ::readdir(dir)) {
      const std::string name = entry->d_name;
      if (name != "." && name != "..") names.push_back(name);
    }
    ::closedir(dir);
    for (const std::string& name : names) {
      std::remove((shard_dir + "/" + name).c_str());
    }
  }
}

// Removes `root` and its shard directories 0..shards-1, files and all.
void RemoveRoot(const std::string& root, int shards) {
  for (int s = 0; s < shards; ++s) {
    const std::string dir = root + "/shard-" + std::to_string(s);
    EXPECT_TRUE(storage::fs::RemoveDir(dir).ok()) << dir;
  }
  EXPECT_TRUE(storage::fs::RemoveDir(root).ok()) << root;
}

RtsiConfig SmallConfig() {
  RtsiConfig config;
  config.lsm.delta = 300;
  return config;
}

ShardSetConfig SetConfig() {
  ShardSetConfig config;
  config.index = SmallConfig();
  config.num_shards = kShards;
  config.durable_dir = kDir;
  config.journal.flush_each_record = true;
  return config;
}

constexpr TermId kVocab = 8;
constexpr StreamId kNumStreams = 8;

std::vector<TraceOp> MakeWorkload(int n) {
  std::vector<TraceOp> ops;
  Timestamp now = 0;
  for (int i = 0; i < n; ++i) {
    now += kMicrosPerSecond;
    TraceOp op;
    if (i == 9) {
      op.kind = TraceOp::Kind::kFinish;
      op.stream = 1;
    } else if (i == 13) {
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

/// The workload split into one op subsequence per owning shard.
std::vector<std::vector<TraceOp>> PartitionByShard(
    const std::vector<TraceOp>& ops) {
  std::vector<std::vector<TraceOp>> parts(kShards);
  for (const TraceOp& op : ops) {
    parts[ShardForStream(op.stream, kShards)].push_back(op);
  }
  return parts;
}

// Applies the workload through a durable shard set, checkpointing before
// op `checkpoint_at` (-1 = never). Returns per-shard acknowledged counts:
// ops applied while the OWNING shard was healthy. Ops routed to a
// degraded shard are rejected and not acknowledged.
std::vector<std::size_t> RunWorkload(const std::vector<TraceOp>& ops,
                                     int checkpoint_at) {
  std::vector<std::size_t> acked(kShards, 0);
  auto opened = IndexShardSet::Open(SetConfig());
  if (!opened.ok()) return acked;  // Crashed during open: nothing acked.
  IndexShardSet& set = *opened.value();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (static_cast<int>(i) == checkpoint_at) (void)set.Checkpoint();
    const int s = set.ShardOf(ops[i].stream);
    ApplyOp(set, ops[i]);
    if (!set.durable_shard(s)->degraded()) ++acked[s];
  }
  return acked;
}

TEST(ShardCrashRecoveryTest, EveryCrashPointLosesNoAckedOpsPerShard) {
  const int kOps = 20;
  const int kCheckpoint = 8;  // Exercises both shards' rotation windows.
  const std::vector<TraceOp> ops = MakeWorkload(kOps);
  const auto parts = PartitionByShard(ops);
  for (int s = 0; s < kShards; ++s) {
    ASSERT_GE(parts[s].size(), 3u)
        << "workload leaves shard " << s << " nearly empty; "
        << "pick different stream ids";
  }

  // Per-shard oracle: the probe after every prefix of that shard's own
  // subsequence, on a plain unsharded index.
  std::vector<std::vector<Probe>> oracle(kShards);
  for (int s = 0; s < kShards; ++s) {
    core::RtsiIndex reference(SmallConfig());
    oracle[s].push_back(ProbeIndex(reference));
    for (const TraceOp& op : parts[s]) {
      ApplyOp(reference, op);
      oracle[s].push_back(ProbeIndex(reference));
    }
  }

  auto& fi = FaultInjection::Instance();

  // Enumerate fault points with one instrumented, un-armed run. The
  // sequence interleaves both shards' filesystem ops, so arming each
  // index crashes the machine inside different shards' windows.
  CleanDir();
  fi.Enable();
  const auto clean_acked = RunWorkload(ops, kCheckpoint);
  const std::uint64_t total_points = fi.ops_seen();
  fi.Disable();
  for (int s = 0; s < kShards; ++s) {
    ASSERT_EQ(clean_acked[s], parts[s].size());
  }
  ASSERT_GT(total_points, 60u);

  for (std::uint64_t point = 0; point < total_points; ++point) {
    SCOPED_TRACE("crash at fault point " + std::to_string(point) + "/" +
                 std::to_string(total_points));
    CleanDir();
    fi.Enable();
    fi.ArmFaultAt(point, /*crash=*/true);
    const auto acked = RunWorkload(ops, kCheckpoint);
    EXPECT_TRUE(fi.crash_triggered());

    FaultInjection::CrashOptions crash;
    crash.keep_unsynced_tail_bytes = (point % 3 == 0) ? 7 : 0;
    crash.undo_unsynced_dir_ops = (point % 2 == 0);
    fi.SimulateCrash(crash);
    fi.Disable();

    std::vector<storage::RecoveryStats> recovery;
    auto reopened = IndexShardSet::Open(SetConfig(), &recovery);
    ASSERT_TRUE(reopened.ok())
        << "recovery failed: " << reopened.status().ToString();
    ASSERT_EQ(recovery.size(), static_cast<std::size_t>(kShards));

    for (int s = 0; s < kShards; ++s) {
      const Probe recovered = ProbeIndex(reopened.value()->shard_index(s));
      bool matched = false;
      for (std::size_t len = acked[s];
           len <= parts[s].size() && !matched; ++len) {
        matched = SameProbe(recovered, oracle[s][len]);
      }
      EXPECT_TRUE(matched)
          << "shard " << s << " acked=" << acked[s]
          << " but its recovered state matches no prefix of its op "
          << "subsequence >= acked (acknowledged operations lost)";
    }
  }
  CleanDir();
}

// A non-crash fault (e.g. a full disk on one shard's journal) must
// degrade exactly the faulted shard: the sibling keeps acknowledging
// writes, and after the "operator replaces the disk" (reopen), the
// healthy shard's data is complete and the degraded shard kept every op
// it acknowledged before failing.
TEST(ShardCrashRecoveryTest, DegradedShardLeavesSiblingServing) {
  const int kOps = 20;
  const std::vector<TraceOp> ops = MakeWorkload(kOps);
  const auto parts = PartitionByShard(ops);

  auto& fi = FaultInjection::Instance();

  // Count fault points during open alone, then pick one safely inside
  // the workload's journal appends so open itself succeeds.
  CleanDir();
  fi.Enable();
  {
    auto opened = IndexShardSet::Open(SetConfig());
    ASSERT_TRUE(opened.ok());
  }
  const std::uint64_t open_points = fi.ops_seen();
  fi.Disable();

  CleanDir();
  fi.Enable();
  fi.ArmFaultAt(open_points + 10, /*crash=*/false);
  std::vector<std::size_t> acked(kShards, 0);
  int degraded_shard = -1;
  {
    auto opened = IndexShardSet::Open(SetConfig());
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    IndexShardSet& set = *opened.value();
    for (const TraceOp& op : ops) {
      const int s = set.ShardOf(op.stream);
      ApplyOp(set, op);
      if (!set.durable_shard(s)->degraded()) ++acked[s];
    }
    int degraded_count = 0;
    for (int s = 0; s < kShards; ++s) {
      if (set.durable_shard(s)->degraded()) {
        degraded_count++;
        degraded_shard = s;
        EXPECT_TRUE(set.GetShardStats(s).degraded);
      } else {
        EXPECT_FALSE(set.GetShardStats(s).degraded);
      }
    }
    ASSERT_EQ(degraded_count, 1)
        << "exactly one shard should hit the injected fault";
  }
  fi.Disable();
  const int healthy_shard = 1 - degraded_shard;
  // The sibling never stopped acking.
  EXPECT_EQ(acked[healthy_shard], parts[healthy_shard].size());
  EXPECT_LT(acked[degraded_shard], parts[degraded_shard].size());

  // Reopen: both shards recover; nothing acknowledged is missing.
  auto reopened = IndexShardSet::Open(SetConfig());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  for (int s = 0; s < kShards; ++s) {
    const Probe recovered = ProbeIndex(reopened.value()->shard_index(s));
    core::RtsiIndex reference(SmallConfig());
    std::vector<Probe> prefixes;
    prefixes.push_back(ProbeIndex(reference));
    for (const TraceOp& op : parts[s]) {
      ApplyOp(reference, op);
      prefixes.push_back(ProbeIndex(reference));
    }
    bool matched = false;
    for (std::size_t len = acked[s];
         len <= parts[s].size() && !matched; ++len) {
      matched = SameProbe(recovered, prefixes[len]);
    }
    EXPECT_TRUE(matched) << "shard " << s << " lost acked ops (acked="
                         << acked[s] << ")";
    EXPECT_FALSE(reopened.value()->GetShardStats(s).degraded);
  }
  CleanDir();
}

// The shard count is part of the durable layout (streams route by hash
// mod N): reopening a set under another count must fail instead of
// hiding the streams of the shards beyond it (fewer shards) or splitting
// each stream's history across two shards (more shards).
TEST(ShardCrashRecoveryTest, ReopenWithDifferentShardCountFails) {
  const std::string root = "/tmp/rtsi_shard_count_test";
  RemoveRoot(root, 8);
  ShardSetConfig config = SetConfig();
  config.durable_dir = root;
  config.num_shards = 4;

  const std::vector<TraceOp> ops = MakeWorkload(20);
  bool beyond_shard_0 = false;
  for (const TraceOp& op : ops) {
    beyond_shard_0 = beyond_shard_0 || ShardForStream(op.stream, 4) > 0;
  }
  ASSERT_TRUE(beyond_shard_0) << "workload must reach shards 1-3";

  Probe written;
  {
    auto opened = IndexShardSet::Open(config);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    for (std::size_t i = 0; i < ops.size(); ++i) {
      // A checkpoint midway leaves both snapshots and journals on disk.
      if (i == ops.size() / 2) {
        ASSERT_TRUE(opened.value()->Checkpoint().ok());
      }
      ApplyOp(*opened.value(), ops[i]);
    }
    written = ProbeIndex(*opened.value());
  }

  for (const int n : {1, 8}) {
    config.num_shards = n;
    auto reopened = IndexShardSet::Open(config);
    ASSERT_FALSE(reopened.ok()) << "num_shards=" << n;
    EXPECT_EQ(reopened.status().code(), StatusCode::kFailedPrecondition);
    const std::string& message = reopened.status().message();
    EXPECT_NE(message.find("holds 4 shards"), std::string::npos) << message;
    EXPECT_NE(message.find("num_shards=" + std::to_string(n)),
              std::string::npos)
        << message;
  }
  // The refused opens left the layout as it was.
  struct stat st{};
  EXPECT_NE(::stat((root + "/shard-4").c_str(), &st), 0);

  config.num_shards = 4;
  {
    auto reopened = IndexShardSet::Open(config);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_TRUE(SameProbe(ProbeIndex(*reopened.value()), written));
  }
  RemoveRoot(root, 8);
}

// A first Open(num_shards=4) that crashed after creating its directories
// leaves empty shard-0..shard-3. An open under another count that then
// writes must own the layout: the empty directories beyond its count go,
// so the root reopens at the count it was written with and refuses the
// crashed open's count. A leftover directory that cannot be removed fails
// the open before it writes anything.
TEST(ShardCrashRecoveryTest, CrashedFirstOpenLeavesNoForeignLayout) {
  const std::string root = "/tmp/rtsi_shard_crashed_open_test";
  // A non-empty subdirectory: RemoveDir removes files only.
  const std::string stuck = root + "/shard-3/stuck";
  std::remove((stuck + "/file").c_str());
  ::rmdir(stuck.c_str());
  RemoveRoot(root, 4);
  ::mkdir(root.c_str(), 0755);
  for (int s = 0; s < 4; ++s) {
    ::mkdir((root + "/shard-" + std::to_string(s)).c_str(), 0755);
  }
  ShardSetConfig config = SetConfig();
  config.durable_dir = root;
  config.num_shards = 1;

  ASSERT_EQ(::mkdir(stuck.c_str(), 0755), 0);
  std::FILE* file = std::fopen((stuck + "/file").c_str(), "w");
  ASSERT_NE(file, nullptr);
  std::fclose(file);
  EXPECT_FALSE(IndexShardSet::Open(config).ok());
  ASSERT_EQ(std::remove((stuck + "/file").c_str()), 0);
  ASSERT_EQ(::rmdir(stuck.c_str()), 0);

  Probe written;
  {
    auto opened = IndexShardSet::Open(config);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    for (const TraceOp& op : MakeWorkload(20)) ApplyOp(*opened.value(), op);
    written = ProbeIndex(*opened.value());
  }
  struct stat st{};
  EXPECT_NE(::stat((root + "/shard-1").c_str(), &st), 0);

  {
    auto reopened = IndexShardSet::Open(config);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_TRUE(SameProbe(ProbeIndex(*reopened.value()), written));
  }
  config.num_shards = 4;
  auto refused = IndexShardSet::Open(config);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(refused.status().message().find("holds 1 shards"),
            std::string::npos)
      << refused.status().message();
  RemoveRoot(root, 4);
}

}  // namespace
}  // namespace rtsi::shard
