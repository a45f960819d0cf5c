// Scatter-gather soundness: an IndexShardSet must return BIT-IDENTICAL
// results to a single unsharded index over the same streams — same
// streams, same order, same double scores — because every stream lives in
// exactly one shard, every shard scores with one plan whose idfs and
// popularity normalizer come from the summed shard statistics, and the
// merge applies the same (score desc, stream asc) total order as every
// other query path (DESIGN.md §6i).
//
// The concurrent variant runs ingest, window seals and merge cascades on
// all shards while queries scatter-gather across them, then quiesces and
// checks the final state against a sequentially built single-shard
// oracle. Run under TSan via the sanitizer ctest label.

#include "shard/shard_set.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/rtsi_index.h"
#include "exec/sink.h"

namespace rtsi::shard {
namespace {

constexpr TermId kVocab = 10;
constexpr StreamId kNumStreams = 40;
constexpr Timestamp kQueryTime = 1'000'000'000'000LL;

core::RtsiConfig SmallConfig() {
  core::RtsiConfig config;
  config.lsm.delta = 200;  // Frequent seals → multi-component queries.
  return config;
}

struct Op {
  enum class Kind { kInsert, kFinish, kDelete, kPop } kind = Kind::kInsert;
  StreamId stream = 0;
  Timestamp now = 0;
  std::vector<core::TermCount> terms;
  std::uint64_t delta = 0;
  bool live = true;
};

// A deterministic mutation workload: inserts with overlapping vocab,
// popularity updates, finishes and one delete, with one id per broadcast
// (the live-streaming model). Id reuse after finish or delete is covered
// by query_pipeline_test's ShardIdReuseTest.
std::vector<Op> MakeWorkload(int n) {
  std::vector<Op> ops;
  Timestamp now = 0;
  for (int i = 0; i < n; ++i) {
    now += kMicrosPerSecond;
    Op op;
    if (i % 13 == 9) {
      op.kind = Op::Kind::kPop;
      op.stream = static_cast<StreamId>(i % 32);
      op.delta = 5 + i % 17;
    } else if (i == 60 || i == 75 || i == 105) {
      op.kind = Op::Kind::kFinish;
      op.stream = static_cast<StreamId>(32 + (i - 60) / 15);
    } else if (i == 90) {
      op.kind = Op::Kind::kDelete;
      op.stream = 36;
    } else {
      op.kind = Op::Kind::kInsert;
      // Streams 32..36 broadcast only during the first 55 ops, then get
      // finished/deleted above; streams 0..31 broadcast throughout.
      op.stream = (i < 55 && i % 5 == 3)
                      ? static_cast<StreamId>(32 + (i / 5) % 5)
                      : static_cast<StreamId>(i % 32);
      op.now = now;
      op.terms = {{static_cast<TermId>(i % kVocab),
                   static_cast<TermFreq>(1 + i % 4)},
                  {static_cast<TermId>((i + 3) % kVocab), 2},
                  {static_cast<TermId>((i + 7) % kVocab), 1}};
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

void Apply(core::SearchIndex& index, const Op& op) {
  switch (op.kind) {
    case Op::Kind::kInsert:
      index.InsertWindow(op.stream, op.now, op.terms, op.live);
      break;
    case Op::Kind::kFinish:
      index.FinishStream(op.stream);
      break;
    case Op::Kind::kDelete:
      index.DeleteStream(op.stream);
      break;
    case Op::Kind::kPop:
      index.UpdatePopularity(op.stream, op.delta);
      break;
  }
}

/// Bitwise comparison: stream order AND exact double scores must match.
void ExpectIdentical(const std::vector<core::ScoredStream>& got,
                     const std::vector<core::ScoredStream>& want,
                     const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].stream, want[i].stream) << label << " rank " << i;
    EXPECT_EQ(got[i].score, want[i].score) << label << " rank " << i;
  }
}

/// Every single term, plus adjacent pairs and triples, at several k.
void CompareAllProbes(IndexShardSet& sharded, IndexShardSet& oracle) {
  for (TermId t = 0; t < kVocab; ++t) {
    for (const int k : {1, 3, static_cast<int>(kNumStreams) + 5}) {
      ExpectIdentical(
          sharded.Query({t}, k, kQueryTime),
          oracle.Query({t}, k, kQueryTime),
          "term " + std::to_string(t) + " k=" + std::to_string(k));
    }
    ExpectIdentical(
        sharded.Query({t, static_cast<TermId>((t + 1) % kVocab)}, 10,
                      kQueryTime),
        oracle.Query({t, static_cast<TermId>((t + 1) % kVocab)}, 10,
                     kQueryTime),
        "pair " + std::to_string(t));
    core::QueryFilter live_only;
    live_only.live_only = true;
    ExpectIdentical(
        sharded.QueryFiltered({t}, 10, kQueryTime, live_only),
        oracle.QueryFiltered({t}, 10, kQueryTime, live_only),
        "live-only term " + std::to_string(t));
  }
  ExpectIdentical(sharded.Query({0, 3, 6}, 15, kQueryTime),
                  oracle.Query({0, 3, 6}, 15, kQueryTime), "triple 0,3,6");
}

TEST(ShardForStreamTest, SpreadsSequentialIdsAcrossShards) {
  const int kShards = 4;
  std::vector<int> counts(kShards, 0);
  for (StreamId s = 0; s < 10000; ++s) {
    const int shard = ShardForStream(s, kShards);
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, kShards);
    ++counts[shard];
  }
  // Sequential ids must not pile onto one shard: each within 2x of fair.
  for (const int count : counts) {
    EXPECT_GT(count, 10000 / kShards / 2);
    EXPECT_LT(count, 10000 / kShards * 2);
  }
  // Stable: the same id always routes to the same shard.
  EXPECT_EQ(ShardForStream(12345, kShards), ShardForStream(12345, kShards));
  // One shard degenerates to the identity routing.
  EXPECT_EQ(ShardForStream(12345, 1), 0);
}

TEST(ShardDeterminismTest, ScatterGatherBitIdenticalToSingleShard) {
  const std::vector<Op> ops = MakeWorkload(240);

  ShardSetConfig single;
  single.index = SmallConfig();
  single.num_shards = 1;
  IndexShardSet oracle(single);
  for (const Op& op : ops) Apply(oracle, op);

  for (const int num_shards : {2, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(num_shards));
    ShardSetConfig config;
    config.index = SmallConfig();
    config.num_shards = num_shards;
    IndexShardSet sharded(config);
    for (const Op& op : ops) Apply(sharded, op);
    CompareAllProbes(sharded, oracle);
  }
}

// A 2-shard query's stats are the sum of what each shard's walk of the
// set's plan counted; terminated_early is set when any shard's was.
TEST(ShardDeterminismTest, QueryStatsFoldPerShardRuns) {
  ShardSetConfig config;
  config.index = SmallConfig();
  config.num_shards = 2;
  IndexShardSet sharded(config);
  for (const Op& op : MakeWorkload(240)) Apply(sharded, op);
  sharded.WaitForMerges();

  std::size_t visited = 0;
  std::size_t scanned = 0;
  for (const std::vector<TermId>& terms :
       std::vector<std::vector<TermId>>{{0}, {2, 5}, {1, 4, 8}, {kVocab + 1}}) {
    for (const int k : {1, 5}) {
      SCOPED_TRACE("terms " + std::to_string(terms.size()) + " k=" +
                   std::to_string(k));
      core::QueryStats folded;
      sharded.Query(terms, k, kQueryTime, &folded);

      const exec::QueryPlan plan = sharded.BuildPlan(terms, k, kQueryTime);
      core::QueryStats sum;
      for (int s = 0; s < 2; ++s) {
        core::QueryStats part;
        exec::TopKSink sink(k);
        sharded.shard_index(s).ExecutePlan(plan, sink, &part);
        sum.components_visited += part.components_visited;
        sum.components_pruned += part.components_pruned;
        sum.components_skipped += part.components_skipped;
        sum.bloom_false_positives += part.bloom_false_positives;
        sum.postings_scanned += part.postings_scanned;
        sum.candidates_scored += part.candidates_scored;
        sum.candidates_screened += part.candidates_screened;
        sum.terminated_early = sum.terminated_early || part.terminated_early;
      }
      EXPECT_EQ(folded.components_visited, sum.components_visited);
      EXPECT_EQ(folded.components_pruned, sum.components_pruned);
      EXPECT_EQ(folded.components_skipped, sum.components_skipped);
      EXPECT_EQ(folded.bloom_false_positives, sum.bloom_false_positives);
      EXPECT_EQ(folded.postings_scanned, sum.postings_scanned);
      EXPECT_EQ(folded.candidates_scored, sum.candidates_scored);
      EXPECT_EQ(folded.candidates_screened, sum.candidates_screened);
      EXPECT_EQ(folded.terminated_early, sum.terminated_early);
      visited += folded.components_visited;
      scanned += folded.postings_scanned;
    }
  }
  // The probes reached sealed components on both sides of the fold.
  EXPECT_GT(visited, 0u);
  EXPECT_GT(scanned, 0u);
}

// The set's plan carries the corpus-wide statistics: a 3-shard plan must
// hold exactly the idfs and popularity normalizer of one index's plan.
TEST(ShardDeterminismTest, ShardedPlanMatchesOraclePlan) {
  const std::vector<Op> ops = MakeWorkload(180);

  ShardSetConfig single;
  single.index = SmallConfig();
  single.num_shards = 1;
  IndexShardSet oracle(single);
  for (const Op& op : ops) Apply(oracle, op);

  ShardSetConfig config;
  config.index = SmallConfig();
  config.num_shards = 3;
  IndexShardSet sharded(config);
  for (const Op& op : ops) Apply(sharded, op);

  std::vector<TermId> all_terms;
  for (TermId t = 0; t < kVocab; ++t) all_terms.push_back(t);
  all_terms.push_back(kVocab + 7);  // Unknown term: df 0 on every shard.
  const exec::QueryPlan got = sharded.BuildPlan(all_terms, 10, kQueryTime);
  const exec::QueryPlan want =
      oracle.shard_index(0).BuildPlan(all_terms, 10, kQueryTime);
  ASSERT_EQ(got.terms, want.terms);
  for (std::size_t i = 0; i < want.terms.size(); ++i) {
    EXPECT_EQ(got.idfs[i], want.idfs[i])
        << "idf diverged for term " << want.terms[i];
  }
  EXPECT_GT(want.max_pop, 0u);
  EXPECT_EQ(got.max_pop, want.max_pop);
}

TEST(ShardDeterminismTest, AdoptedShardAnswersLikeItsIndex) {
  // The adopt constructor (snapshot-restore path) wraps a populated
  // index: the set must answer exactly as the index itself.
  const std::vector<Op> ops = MakeWorkload(120);
  auto index = std::make_unique<core::RtsiIndex>(SmallConfig());
  for (const Op& op : ops) Apply(*index, op);
  ASSERT_GT(index->doc_freq().num_documents(), 0u);
  ASSERT_GT(index->stream_table().max_pop_count(), 0u);

  ShardSetConfig config;
  config.index = SmallConfig();
  std::vector<std::unique_ptr<core::RtsiIndex>> shards;
  shards.push_back(std::move(index));
  IndexShardSet adopted(config, std::move(shards));
  EXPECT_EQ(adopted.num_shards(), 1);
  core::RtsiIndex& own = adopted.shard_index(0);
  for (TermId t = 0; t < kVocab; ++t) {
    const std::vector<TermId> q = {t, static_cast<TermId>((t + 3) % kVocab)};
    ExpectIdentical(adopted.Query(q, 10, kQueryTime),
                    own.Query(q, 10, kQueryTime),
                    "term " + std::to_string(t));
  }
}

// The TSan target: concurrent per-thread ingest (disjoint stream sets, so
// cross-thread op interleavings commute), seals and background merge cascades
// on every shard, scatter-gather queries racing all of it. After
// quiescing, the sharded state must be bit-identical to a single-shard
// oracle built sequentially.
TEST(ShardDeterminismTest, ConcurrentIngestSealsCascadesStayIdentical) {
  constexpr int kWriters = 3;
  constexpr int kOpsPerWriter = 160;

  core::RtsiConfig concurrent_config = SmallConfig();
  concurrent_config.lsm.delta = 120;  // Seal + cascade under the race.

  // Per-writer deterministic op streams over disjoint stream ids
  // (stream ≡ w mod kWriters, so no two writers ever share a stream and
  // cross-writer interleavings commute). Streams that get finished stop
  // receiving inserts beforehand, one id per broadcast as in MakeWorkload.
  const auto writer_ops = [&](int w) {
    std::vector<Op> ops;
    Timestamp now = 0;
    for (int i = 0; i < kOpsPerWriter; ++i) {
      now += kMicrosPerSecond;
      Op op;
      if (i % 11 == 7) {
        op.kind = Op::Kind::kPop;
        op.stream = static_cast<StreamId>(kWriters * (i % 8) + w);
        op.delta = 2 + i % 9;
      } else if (i == 100 || i == 120 || i == 140) {
        // Retire streams 8..10 of this writer's partition; their inserts
        // all happened before op 90.
        op.kind = Op::Kind::kFinish;
        op.stream =
            static_cast<StreamId>(kWriters * (8 + (i - 100) / 20) + w);
      } else {
        op.kind = Op::Kind::kInsert;
        op.stream = (i < 90 && i % 7 == 3)
                        ? static_cast<StreamId>(kWriters * (8 + i % 3) + w)
                        : static_cast<StreamId>(kWriters * (i % 8) + w);
        op.now = now;
        op.terms = {{static_cast<TermId>((w + i) % kVocab),
                     static_cast<TermFreq>(1 + i % 3)},
                    {static_cast<TermId>((w + i + 5) % kVocab), 1}};
      }
      ops.push_back(std::move(op));
    }
    return ops;
  };

  ShardSetConfig config;
  config.index = concurrent_config;
  config.num_shards = 4;
  IndexShardSet sharded(config);

  std::atomic<bool> stop{false};
  std::thread querier([&] {
    TermId t = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const auto results =
          sharded.Query({t, static_cast<TermId>((t + 2) % kVocab)}, 8,
                        kQueryTime);
      ASSERT_LE(results.size(), 8u);
      for (std::size_t i = 1; i < results.size(); ++i) {
        ASSERT_LE(results[i].score, results[i - 1].score);
      }
      t = static_cast<TermId>((t + 1) % kVocab);
    }
  });
  std::thread observer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (int s = 0; s < sharded.num_shards(); ++s) {
        const auto stats = sharded.GetShardStats(s);
        ASSERT_GE(stats.memory_bytes, 0u);
      }
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (const Op& op : writer_ops(w)) Apply(sharded, op);
    });
  }
  for (std::thread& writer : writers) writer.join();
  stop.store(true, std::memory_order_release);
  querier.join();
  observer.join();
  sharded.WaitForMerges();

  // Sequential oracle: same ops, writer-major order. Per-stream op order
  // is preserved (each stream belongs to one writer) and cross-stream
  // operations commute, so any interleaving reaches this exact state.
  ShardSetConfig single;
  single.index = SmallConfig();
  single.num_shards = 1;
  IndexShardSet oracle(single);
  for (int w = 0; w < kWriters; ++w) {
    for (const Op& op : writer_ops(w)) Apply(oracle, op);
  }
  CompareAllProbes(sharded, oracle);
}

TEST(ShardDeterminismTest, DurableShardsSurviveCheckpointAndReopen) {
  const char* kDir = "/tmp/rtsi_shard_determinism_test";
  std::remove((std::string(kDir) + "/shard-0/index.snap").c_str());
  std::remove((std::string(kDir) + "/shard-0/index.journal").c_str());
  std::remove((std::string(kDir) + "/shard-1/index.snap").c_str());
  std::remove((std::string(kDir) + "/shard-1/index.journal").c_str());

  const std::vector<Op> ops = MakeWorkload(150);
  ShardSetConfig config;
  config.index = SmallConfig();
  config.num_shards = 2;
  config.durable_dir = kDir;
  {
    auto opened = IndexShardSet::Open(config);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    IndexShardSet& set = *opened.value();
    EXPECT_TRUE(set.durable());
    for (std::size_t i = 0; i < ops.size(); ++i) {
      Apply(set, ops[i]);
      if (i == 70) {
        ASSERT_TRUE(set.Checkpoint().ok());
      }
    }
  }

  ShardSetConfig single;
  single.index = SmallConfig();
  single.num_shards = 1;
  IndexShardSet oracle(single);
  for (const Op& op : ops) Apply(oracle, op);

  std::vector<storage::RecoveryStats> recovery;
  auto reopened = IndexShardSet::Open(config, &recovery);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ(recovery.size(), 2u);
  CompareAllProbes(*reopened.value(), oracle);
  for (int s = 0; s < 2; ++s) {
    const auto stats = reopened.value()->GetShardStats(s);
    EXPECT_FALSE(stats.degraded);
    EXPECT_GT(stats.streams, 0u);
  }
}

}  // namespace
}  // namespace rtsi::shard
