// Parity suite for the unified query-execution pipeline (exec::).
//
// Every query path in the repo — query, explain, the LSII baseline, and
// the sharded scatter-gather — drives the same exec::QueryPlan + operator
// chain, so this suite pins the one invariant the pipeline must preserve:
// bit-identical top-k (streams AND scores) and identical QueryStats
// across the configuration matrix (filter × bound mode),
// each row checked against the full-walk oracle (use_bound off), which
// consults no pruning or skipping structure. It also races queries
// against inserts, updates and background merges on one index — the
// inter-query concurrency the pinned views exist for.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "baseline/lsii_index.h"
#include "common/rng.h"
#include "core/query_scratch.h"
#include "core/rtsi_index.h"
#include "exec/query_plan.h"
#include "exec/sink.h"
#include "shard/shard_set.h"

namespace rtsi::core {
namespace {

RtsiConfig PipelineConfig(bool use_bound) {
  RtsiConfig config;
  config.lsm.delta = 300;  // Small: the workloads below seal many components.
  config.lsm.rho = 1.5;
  config.use_bound = use_bound;
  return config;
}

// Drives one randomized insert/finish/delete/update workload into every
// index, so they end up with identical content, and waits for merges.
void BuildWorkload(const std::vector<SearchIndex*>& indices, int seed,
                   Timestamp* end_time) {
  Rng rng(seed);
  constexpr int kNumStreams = 120;
  constexpr int kVocab = 50;
  Timestamp t = 1000;
  for (int step = 0; step < 900; ++step) {
    t += kMicrosPerSecond;
    const auto stream = static_cast<StreamId>(rng.NextUint64(kNumStreams));
    const double action = rng.NextDouble();
    if (action < 0.85) {
      std::vector<TermCount> terms;
      std::set<TermId> used;
      const int num_terms = 1 + static_cast<int>(rng.NextUint64(6));
      for (int i = 0; i < num_terms; ++i) {
        const auto term = static_cast<TermId>(rng.NextUint64(kVocab));
        if (!used.insert(term).second) continue;
        terms.push_back({term, 1 + static_cast<TermFreq>(rng.NextUint64(4))});
      }
      const bool live = rng.NextBool(0.5);
      for (SearchIndex* index : indices) {
        index->InsertWindow(stream, t, terms, live);
        if (!live) index->FinishStream(stream);
      }
    } else if (action < 0.93) {
      const std::uint64_t delta = 1 + rng.NextUint64(50);
      for (SearchIndex* index : indices) {
        index->UpdatePopularity(stream, delta);
      }
    } else {
      // A deletion that overlaps a running cascade is purged by it, one
      // that does not by a later merge: settle first, so every index
      // purges the same postings at the same merge.
      for (SearchIndex* index : indices) {
        index->WaitForMerges();
        index->DeleteStream(stream);
      }
    }
  }
  for (SearchIndex* index : indices) index->WaitForMerges();
  *end_time = t;
}

// A write-once workload: every stream id is inserted exactly once and
// never updated, finished into a later insert, or deleted — so each
// stream's live popularity and freshness equal what its sealed postings
// snapshotted. This is the regime where kSnapshot bounds are exact (see
// core/config.h). Waits for merges.
void BuildWriteOnceWorkload(const std::vector<SearchIndex*>& indices,
                            int seed, Timestamp* end_time) {
  Rng rng(seed);
  constexpr int kVocab = 50;
  Timestamp t = 1000;
  for (int step = 0; step < 900; ++step) {
    t += kMicrosPerSecond;
    const auto stream = static_cast<StreamId>(step);
    std::vector<TermCount> terms;
    std::set<TermId> used;
    const int num_terms = 1 + static_cast<int>(rng.NextUint64(6));
    for (int i = 0; i < num_terms; ++i) {
      const auto term = static_cast<TermId>(rng.NextUint64(kVocab));
      if (!used.insert(term).second) continue;
      terms.push_back({term, 1 + static_cast<TermFreq>(rng.NextUint64(4))});
    }
    const bool live = rng.NextBool(0.5);
    for (SearchIndex* index : indices) {
      index->InsertWindow(stream, t, terms, live);
      if (!live) index->FinishStream(stream);
    }
  }
  for (SearchIndex* index : indices) index->WaitForMerges();
  *end_time = t;
}

std::vector<TermId> RandomQuery(Rng& rng, int max_terms = 3) {
  std::vector<TermId> q;
  const int nterms = 1 + static_cast<int>(rng.NextUint64(max_terms));
  for (int i = 0; i < nterms; ++i) {
    q.push_back(static_cast<TermId>(rng.NextUint64(50)));
  }
  if (rng.NextBool(0.2)) q.push_back(q.front());  // Duplicate term.
  return q;
}

void ExpectBitIdentical(const std::vector<ScoredStream>& got,
                        const std::vector<ScoredStream>& want,
                        const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].stream, want[i].stream) << context << " rank " << i;
    // Bit-identical, not approximately equal: every path runs the same
    // exec:: score computation, only the traversal schedule differs.
    EXPECT_EQ(got[i].score, want[i].score) << context << " rank " << i;
  }
}

void ExpectSameStats(const QueryStats& got, const QueryStats& want,
                     const std::string& context) {
  EXPECT_EQ(got.components_visited, want.components_visited) << context;
  EXPECT_EQ(got.components_pruned, want.components_pruned) << context;
  EXPECT_EQ(got.components_skipped, want.components_skipped) << context;
  EXPECT_EQ(got.bloom_false_positives, want.bloom_false_positives) << context;
  EXPECT_EQ(got.postings_scanned, want.postings_scanned) << context;
  EXPECT_EQ(got.candidates_scored, want.candidates_scored) << context;
  EXPECT_EQ(got.candidates_screened, want.candidates_screened) << context;
  EXPECT_EQ(got.terminated_early, want.terminated_early) << context;
}

// One row of the parity matrix: an index configuration whose answers
// must match the full-walk oracle bit for bit.
struct MatrixRow {
  const char* name;
  BoundMode bound_mode;
};

// The row's workload, identical in every index of `indices`.
Timestamp BuildRowWorkload(const MatrixRow& row,
                           const std::vector<SearchIndex*>& indices) {
  Timestamp t = 0;
  if (row.bound_mode == BoundMode::kSnapshot) {
    // kSnapshot bounds are exact only without post-seal popularity or
    // freshness drift; write-once is the workload shape they are for.
    BuildWriteOnceWorkload(indices, /*seed=*/77, &t);
  } else {
    BuildWorkload(indices, /*seed=*/77, &t);
  }
  return t;
}

class PipelineMatrixTest : public ::testing::TestWithParam<MatrixRow> {};

TEST_P(PipelineMatrixTest, MatchesFullWalkOracleBitwise) {
  const MatrixRow row = GetParam();
  auto config = PipelineConfig(/*use_bound=*/true);
  config.bound_mode = row.bound_mode;
  // The oracle scores every posting of every component: no bound walk,
  // no skip headers. It shares the row's LSM shape — a stream's
  // relevance accumulates within the component that discovers it, so
  // component structure is part of the score; what the oracle removes is
  // every skipping and pruning mechanism.
  auto oracle_config = PipelineConfig(/*use_bound=*/false);
  auto index = std::make_unique<RtsiIndex>(config);
  auto oracle = std::make_unique<RtsiIndex>(oracle_config);

  const Timestamp t = BuildRowWorkload(row, {index.get(), oracle.get()});
  ASSERT_GE(index->tree().SealedSnapshot().size(), 2u)
      << "workload too small to exercise multi-component traversal";

  Rng rng(777);
  for (int qi = 0; qi < 60; ++qi) {
    const auto q = RandomQuery(rng);
    const int k = 1 + static_cast<int>(rng.NextUint64(15));
    const std::string context =
        std::string(row.name) + " query " + std::to_string(qi);
    ExpectBitIdentical(index->Query(q, k, t), oracle->Query(q, k, t),
                       context);

    QueryFilter filter;
    filter.live_only = rng.NextBool(0.5);
    if (rng.NextBool(0.5)) filter.min_frsh = t / 2;
    ExpectBitIdentical(index->QueryFiltered(q, k, t, filter),
                       oracle->QueryFiltered(q, k, t, filter),
                       context + " filtered");
  }
}

const MatrixRow kMatrixRows[] = {
    {"bound", BoundMode::kGlobalPop},
    {"snapshot", BoundMode::kSnapshot},
};

std::string RowName(const ::testing::TestParamInfo<MatrixRow>& info) {
  return std::string(info.param.name);
}

INSTANTIATE_TEST_SUITE_P(Matrix, PipelineMatrixTest,
                         ::testing::ValuesIn(kMatrixRows), RowName);

// Pruning soundness, not just path equivalence: with the kGlobalPop
// ceilings, early termination must never change the answer, so the
// bounded index has to match an unbounded full walk bit-for-bit. The
// workload re-inserts streams long after their early postings sealed, so
// live freshness runs ahead of everything the old components store — the
// exact regime where a component-local freshness bound silently
// under-estimates and drops top-k streams.
TEST(PipelineSoundnessTest, GlobalCeilingPruningMatchesFullWalk) {
  auto bounded_config = PipelineConfig(/*use_bound=*/true);
  bounded_config.bound_mode = BoundMode::kGlobalPop;
  auto bounded = std::make_unique<RtsiIndex>(bounded_config);
  auto full_walk =
      std::make_unique<RtsiIndex>(PipelineConfig(/*use_bound=*/false));
  Timestamp t = 0;
  BuildWorkload({bounded.get(), full_walk.get()}, 57, &t);

  Rng rng(5757);
  for (int qi = 0; qi < 120; ++qi) {
    std::vector<TermId> q;
    const int nterms = 1 + static_cast<int>(rng.NextUint64(4));
    for (int i = 0; i < nterms; ++i) {
      q.push_back(static_cast<TermId>(rng.NextUint64(50)));
    }
    // Large k keeps the k-th score low, where stale-bound undershoot
    // actually decides membership.
    const int k = 10 + static_cast<int>(rng.NextUint64(40));
    ExpectBitIdentical(bounded->Query(q, k, t), full_walk->Query(q, k, t),
                       "full-walk query " + std::to_string(qi));
  }
}

// Inserts, background merge cascades, popularity updates and deletions racing
// three concurrent queriers on one index. Asserts structural sanity of
// every answer; the real assertion is a clean TSan run
// (tools/run_sanitizers.sh tsan).
TEST(PipelineConcurrencyTest, ConcurrentStress) {
  auto config = PipelineConfig(/*use_bound=*/true);
  config.lsm.delta = 500;
  RtsiIndex index(config);

  std::atomic<bool> stop{false};
  std::atomic<Timestamp> now{1000};

  std::thread inserter([&] {
    Rng rng(101);
    for (int step = 0; step < 4000 && !stop.load(); ++step) {
      const Timestamp t = now.fetch_add(kMicrosPerSecond);
      const auto stream = static_cast<StreamId>(rng.NextUint64(200));
      std::vector<TermCount> terms;
      std::set<TermId> used;
      for (int i = 0; i < 4; ++i) {
        const auto term = static_cast<TermId>(rng.NextUint64(40));
        if (!used.insert(term).second) continue;
        terms.push_back({term, 1 + static_cast<TermFreq>(rng.NextUint64(3))});
      }
      index.InsertWindow(stream, t, terms, rng.NextBool(0.6));
      if (rng.NextBool(0.05)) index.FinishStream(stream);
      if (rng.NextBool(0.02)) index.DeleteStream(stream);
    }
    stop.store(true);
  });

  std::thread updater([&] {
    Rng rng(202);
    while (!stop.load()) {
      index.UpdatePopularity(static_cast<StreamId>(rng.NextUint64(200)),
                             1 + rng.NextUint64(20));
    }
  });

  std::vector<std::thread> queriers;
  for (int qt = 0; qt < 3; ++qt) {
    queriers.emplace_back([&, qt] {
      Rng rng(303 + qt);
      while (!stop.load()) {
        std::vector<TermId> q = {
            static_cast<TermId>(rng.NextUint64(40)),
            static_cast<TermId>(rng.NextUint64(40))};
        const int k = 1 + static_cast<int>(rng.NextUint64(10));
        const auto results = index.Query(q, k, now.load());
        ASSERT_LE(results.size(), static_cast<std::size_t>(k));
        for (std::size_t i = 0; i < results.size(); ++i) {
          ASSERT_TRUE(std::isfinite(results[i].score));
          if (i > 0) {
            // Descending total order (score, then stream id).
            ASSERT_TRUE(results[i - 1].score > results[i].score ||
                        (results[i - 1].score == results[i].score &&
                         results[i - 1].stream < results[i].stream));
          }
        }
      }
    });
  }

  inserter.join();
  updater.join();
  for (auto& th : queriers) th.join();
  index.WaitForMerges();

  // The index still answers exactly once quiescent.
  const auto results = index.Query({1, 2}, 10, now.load());
  for (const auto& r : results) EXPECT_TRUE(std::isfinite(r.score));
}

// QueryStats must be a pure function of (index contents, query): the
// same query repeated — and the same query against an identically-built
// twin — reports identical counters. A stats divergence is how a
// traversal-order regression shows up before results drift.
TEST(PipelineStatsTest, StatsDeterministicAcrossRunsAndTwins) {
  auto config = PipelineConfig(/*use_bound=*/true);
  config.bound_mode = BoundMode::kGlobalPop;
  auto index = std::make_unique<RtsiIndex>(config);
  auto twin = std::make_unique<RtsiIndex>(config);
  Timestamp t = 0;
  BuildWorkload({index.get(), twin.get()}, 21, &t);

  Rng rng(2121);
  for (int qi = 0; qi < 40; ++qi) {
    const auto q = RandomQuery(rng);
    const int k = 1 + static_cast<int>(rng.NextUint64(10));
    const std::string context = "stats query " + std::to_string(qi);
    QueryStats first, again, twin_stats;
    const auto results = index->Query(q, k, t, &first);
    ExpectBitIdentical(index->Query(q, k, t, &again), results, context);
    ExpectBitIdentical(twin->Query(q, k, t, &twin_stats), results, context);
    ExpectSameStats(again, first, context + " repeat");
    ExpectSameStats(twin_stats, first, context + " twin");
  }
}

// ExplainQuery is Query's own walk with a breakdown recorder attached, on
// every row of the matrix: its ranked results must be bit-identical to
// Query's, each breakdown must decompose the reported score exactly, and
// its component fates must agree with the QueryStats Query reports.
class PipelineExplainTest : public ::testing::TestWithParam<MatrixRow> {};

TEST_P(PipelineExplainTest, ExplainResultsMatchQueryBitwise) {
  const MatrixRow row = GetParam();
  auto config = PipelineConfig(/*use_bound=*/true);
  config.bound_mode = row.bound_mode;
  auto index = std::make_unique<RtsiIndex>(config);
  const Timestamp t = BuildRowWorkload(row, {index.get()});
  const Scorer scorer(config.weights, config.freshness_tau_seconds);

  Rng rng(3333);
  for (int qi = 0; qi < 40; ++qi) {
    const auto q = RandomQuery(rng);
    const int k = 1 + static_cast<int>(rng.NextUint64(10));
    QueryFilter filter;
    if (rng.NextBool(0.5)) filter.live_only = rng.NextBool(0.5);
    if (rng.NextBool(0.3)) filter.min_frsh = t / 2;
    const std::string context =
        std::string(row.name) + " explain query " + std::to_string(qi);
    QueryStats stats;
    const auto want = index->QueryFiltered(q, k, t, filter, &stats);
    const auto explained = index->ExplainQuery(q, k, t, filter);
    ASSERT_EQ(explained.results.size(), want.size()) << context;
    for (std::size_t i = 0; i < want.size(); ++i) {
      const ScoreBreakdown& b = explained.results[i];
      EXPECT_EQ(b.stream, want[i].stream) << context << " rank " << i;
      EXPECT_EQ(b.total, want[i].score) << context << " rank " << i;
      EXPECT_EQ(b.total, scorer.Combine(b.pop_score, b.rel_score,
                                        b.frsh_score))
          << context << " rank " << i;
      EXPECT_EQ(b.term_tfs.size(), explained.terms.size()) << context;
    }
    std::size_t visited = 0, skipped = 0;
    for (const ComponentExplanation& c : explained.components) {
      visited += c.visited ? 1 : 0;
      skipped += c.skipped ? 1 : 0;
    }
    EXPECT_EQ(visited, stats.components_visited) << context;
    EXPECT_EQ(skipped, stats.components_skipped) << context;
  }
}

INSTANTIATE_TEST_SUITE_P(Matrix, PipelineExplainTest,
                         ::testing::ValuesIn(kMatrixRows), RowName);

// The standing-query seam: BuildPlan + ExecutePlan through a TopKSink is
// exactly Query, and a sink carried across executions accumulates (the
// contract future standing queries / fuzzy expansion lean on).
TEST(PipelinePlanTest, ExecutePlanMatchesQueryAndSinkAccumulates) {
  auto config = PipelineConfig(/*use_bound=*/true);
  config.bound_mode = BoundMode::kGlobalPop;
  auto index = std::make_unique<RtsiIndex>(config);
  Timestamp t = 0;
  BuildWorkload({index.get()}, 47, &t);

  Rng rng(4747);
  for (int qi = 0; qi < 20; ++qi) {
    const auto q = RandomQuery(rng);
    const int k = 1 + static_cast<int>(rng.NextUint64(10));
    const std::string context = "plan query " + std::to_string(qi);
    QueryStats want_stats, plan_stats;
    const auto want = index->Query(q, k, t, &want_stats);
    const auto plan = index->BuildPlan(q, k, t);
    exec::TopKSink sink(k);
    ExpectBitIdentical(index->ExecutePlan(plan, sink, &plan_stats), want,
                       context);
    ExpectSameStats(plan_stats, want_stats, context);

    // Re-execution keeps the sink's contents: re-running the same plan
    // into the same sink must not change what it holds.
    const auto again = index->ExecutePlan(plan, sink);
    ExpectBitIdentical(again, want, context + " re-executed");
  }
}

// The LSII baseline rides the same pipeline drivers; its bound-pruned
// walk must match its own full walk bit for bit (LSII semantics differ
// from RTSI — >= pruning, BigTable scores — so it gets its own oracle).
TEST(PipelineLsiiTest, LsiiBoundMatchesLsiiFullWalkBitwise) {
  auto bound_config = PipelineConfig(/*use_bound=*/true);
  bound_config.bound_mode = BoundMode::kGlobalPop;
  auto walk_config = PipelineConfig(/*use_bound=*/false);
  auto bounded = std::make_unique<baseline::LsiiIndex>(bound_config);
  auto walker = std::make_unique<baseline::LsiiIndex>(walk_config);
  Timestamp t = 0;
  BuildWorkload({bounded.get(), walker.get()}, 61, &t);

  Rng rng(6161);
  for (int qi = 0; qi < 60; ++qi) {
    const auto q = RandomQuery(rng);
    const int k = 1 + static_cast<int>(rng.NextUint64(15));
    ExpectBitIdentical(bounded->Query(q, k, t), walker->Query(q, k, t),
                       "lsii query " + std::to_string(qi));
  }
}

// The exact-scored stream set (phases 1-2) and the per-component dedup
// are epoch-stamped sets inside the leased scratch, which the next query
// recycles. A stale stamp surviving into the next query would make the
// sealed walk skip a stream phase 1 no longer scores: the live-table set
// here changes between queries (new streams, finishes, evictions) while
// one scratch serves them all. Every answer must equal the full walk of
// a twin index that runs each query on a fresh scratch, and explain's
// live_table_candidates must count the live-table matches. One stream id
// lies beyond the dense range, and both sets are driven across an epoch
// wrap mid-run.
TEST(StampedSetReuseTest, RecycledScratchMatchesFullWalk) {
  RtsiConfig config = PipelineConfig(/*use_bound=*/true);
  config.bound_mode = BoundMode::kGlobalPop;
  RtsiIndex index(config);
  RtsiIndex oracle(PipelineConfig(/*use_bound=*/false));
  const StreamId kHighStream = StampedStreamSet::kDenseLimit + 5;
  constexpr int kRounds = 40;
  constexpr int kWrapRound = 12;
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();

  Rng rng(4242);
  Timestamp t = 1000;
  std::set<StreamId> previous_table;
  int table_changes = 0;
  int high_matches = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (int w = 0; w < 25; ++w) {
      t += kMicrosPerSecond;
      // The id range grows, so streams no set has stamped keep arriving.
      const StreamId stream =
          rng.NextBool(0.1)
              ? kHighStream
              : static_cast<StreamId>(rng.NextUint64(60 + 2 * round));
      std::vector<TermCount> terms;
      std::set<TermId> used;
      for (int i = 0; i < 4; ++i) {
        const auto term = static_cast<TermId>(rng.NextUint64(50));
        if (!used.insert(term).second) continue;
        terms.push_back({term, 1 + static_cast<TermFreq>(rng.NextUint64(4))});
      }
      for (RtsiIndex* target : {&index, &oracle}) {
        target->InsertWindow(stream, t, terms, /*live=*/true);
      }
    }
    // Finishing evicts single-component streams from the live table now,
    // the rest at their consolidating merge. Settling first keeps the
    // twins' evictions in step.
    std::vector<StreamId> finished;
    for (int f = 0; f < 4; ++f) {
      finished.push_back(static_cast<StreamId>(rng.NextUint64(60)));
    }
    if (round % 5 == 4) finished.push_back(kHighStream);
    for (RtsiIndex* target : {&index, &oracle}) {
      target->WaitForMerges();
      for (const StreamId stream : finished) target->FinishStream(stream);
      target->WaitForMerges();
    }

    if (round == kWrapRound) {
      // Park both sets just short of the wrap in the scratch the next
      // queries lease (single-threaded: the pool hands it straight back).
      // Release's Clear() takes each one step further: the component
      // dedup wraps inside the next query, the exact set at its release.
      auto scratch = index.scratch_pool().Acquire();
      scratch->exact_scored.AdvanceEpochForTesting(kMax - 1);
      scratch->component_seen.AdvanceEpochForTesting(kMax - 3);
      index.scratch_pool().Release(std::move(scratch));
    }

    std::set<StreamId> table;
    index.live_table().ForEachStream(
        [&](StreamId stream, const auto&) { table.insert(stream); });
    if (round > 0 && table != previous_table) ++table_changes;
    previous_table = table;

    for (int qi = 0; qi < 6; ++qi) {
      const auto q = RandomQuery(rng);
      const int k = 1 + static_cast<int>(rng.NextUint64(10));
      const std::string context = "round " + std::to_string(round) +
                                  " query " + std::to_string(qi);
      // Drop whatever scratch the oracle's pool holds, so its query runs
      // on a freshly built one.
      oracle.scratch_pool().Acquire();
      ExpectBitIdentical(index.Query(q, k, t), oracle.Query(q, k, t),
                         context);

      std::set<StreamId> matches;
      for (const TermId term : q) {
        index.live_table().ForEachStreamOfTerm(
            term, [&](StreamId stream, TermFreq) { matches.insert(stream); });
      }
      if (matches.count(kHighStream) > 0) ++high_matches;
      const QueryExplanation explain =
          index.ExplainQuery(q, k, t, QueryFilter{});
      EXPECT_EQ(explain.live_table_candidates, matches.size()) << context;
    }
  }
  EXPECT_GE(table_changes, kRounds / 2) << "the live-table set barely moved";
  EXPECT_GT(high_matches, 0) << "the overflow id never reached phase 1";
  // The wrap happened: both epochs restarted from 1 and stayed small.
  auto scratch = index.scratch_pool().Acquire();
  EXPECT_LT(scratch->exact_scored.epoch(), 1000u);
  EXPECT_LT(scratch->component_seen.epoch(), 100000u);
  index.scratch_pool().Release(std::move(scratch));
}

// The set on its own: Clear() empties it, an epoch wrap re-zeroes the
// stamps (a zero stamp must not read as a member of epoch 0), and ids past
// the dense range go through the overflow set.
TEST(StampedStreamSetTest, ClearWrapAndOverflow) {
  StampedStreamSet set;
  set.Reserve(99);
  const StreamId high = StampedStreamSet::kDenseLimit + 1;
  EXPECT_FALSE(set.Contains(7));
  EXPECT_TRUE(set.Insert(7));
  EXPECT_FALSE(set.Insert(7));
  EXPECT_TRUE(set.Insert(high));
  EXPECT_FALSE(set.Insert(high));
  EXPECT_TRUE(set.Contains(7));
  EXPECT_TRUE(set.Contains(high));
  EXPECT_FALSE(set.Contains(8));
  set.Clear();
  EXPECT_FALSE(set.Contains(7));
  EXPECT_FALSE(set.Contains(high));

  set.AdvanceEpochForTesting(std::numeric_limits<std::uint32_t>::max());
  EXPECT_TRUE(set.Insert(5));
  set.Clear();  // Wraps.
  EXPECT_EQ(set.epoch(), 1u);
  for (StreamId stream = 0; stream < 100; ++stream) {
    EXPECT_FALSE(set.Contains(stream)) << stream;
  }
  EXPECT_TRUE(set.Insert(5));
  EXPECT_TRUE(set.Insert(6));
  EXPECT_FALSE(set.Insert(5));
}

// Sharded scatter-gather runs one set-wide plan on every shard and
// gathers through the pipeline's sink. A set of any shard count accepts
// what one index accepts, stream ids reused after FinishStream (the
// stream resumes) and after DeleteStream (the window is dropped)
// included: BuildWorkload does both freely. The results must stay
// bit-identical to one index, and the shards' summed df must equal its
// df. Runs on the full walk and under kGlobalPop; kSnapshot is left out because its stale
// per-list bounds already drop true hits on one index (the known pruning
// defect, ROADMAP "Sound by default"), so shard-count parity under it
// would test the defect, not the routing.
TEST(ShardIdReuseTest, EveryShardCountMatchesOneIndex) {
  struct Mode {
    const char* name;
    bool use_bound;
  };
  const Mode modes[] = {
      {"full walk", false},
      {"globalpop", true},
  };
  for (const Mode& mode : modes) {
    for (const int seed : {91, 92}) {
      RtsiConfig config = PipelineConfig(mode.use_bound);
      config.bound_mode = BoundMode::kGlobalPop;
      auto single = std::make_unique<RtsiIndex>(config);
      std::vector<std::unique_ptr<shard::IndexShardSet>> sets;
      std::vector<SearchIndex*> indices = {single.get()};
      for (const int n : {1, 2, 3, 4}) {
        shard::ShardSetConfig shard_config;
        shard_config.index = config;
        shard_config.num_shards = n;
        sets.push_back(std::make_unique<shard::IndexShardSet>(shard_config));
        indices.push_back(sets.back().get());
      }
      Timestamp t = 0;
      BuildWorkload(indices, seed, &t);

      for (const auto& set : sets) {
        const std::string context = std::string(mode.name) + " seed " +
                                    std::to_string(seed) + " shards " +
                                    std::to_string(set->num_shards());
        std::uint64_t documents = 0;
        for (int s = 0; s < set->num_shards(); ++s) {
          documents += set->shard_index(s).doc_freq().num_documents();
        }
        EXPECT_EQ(documents, single->doc_freq().num_documents()) << context;
        for (TermId term = 0; term < 50; ++term) {
          std::uint64_t df = 0;
          for (int s = 0; s < set->num_shards(); ++s) {
            df += set->shard_index(s).doc_freq().DocumentFrequency(term);
          }
          EXPECT_EQ(df, single->doc_freq().DocumentFrequency(term))
              << context << " term " << term;
        }
        Rng rng(seed * 100);
        for (int qi = 0; qi < 40; ++qi) {
          const auto q = RandomQuery(rng);
          const int k = 1 + static_cast<int>(rng.NextUint64(15));
          ExpectBitIdentical(set->Query(q, k, t), single->Query(q, k, t),
                             context + " query " + std::to_string(qi));
        }
      }
    }
  }
}

}  // namespace
}  // namespace rtsi::core
