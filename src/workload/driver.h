// Workload driver: runs the paper's experiment phases (initialization,
// insertion, query, update, mixed) against any SearchIndex and reports
// latency statistics.

#ifndef RTSI_WORKLOAD_DRIVER_H_
#define RTSI_WORKLOAD_DRIVER_H_

#include <cstdint>
#include <vector>

#include "common/clock.h"
#include "common/latency_stats.h"
#include "core/search_index.h"
#include "workload/corpus.h"
#include "workload/query_gen.h"

namespace rtsi::workload {

struct InitResult {
  double elapsed_micros = 0.0;
  std::size_t index_bytes = 0;   // Logical index memory after init.
  std::size_t windows_inserted = 0;
};

/// Builds the index from streams [first, first+count): inserts every
/// window (advancing the simulated clock by 60 s per round) and finishes
/// each stream, then waits for merges, so the elapsed time and memory
/// are those of a settled index. Windows are interleaved round-robin
/// within a cohort of `live_cohort` concurrently-live streams — platforms
/// host many archived streams but only a bounded number of live
/// broadcasts at any instant.
InitResult InitializeIndex(core::SearchIndex& index,
                           const SyntheticCorpus& corpus, StreamId first,
                           std::size_t count, SimulatedClock& clock,
                           bool set_initial_popularity = true,
                           std::size_t live_cohort = 64);

/// Inserts the windows of streams [first, first+count) one window per op,
/// recording per-insertion latency. An insert is timed together with the
/// merge cascade it started (SearchIndex::WaitForMerges), so merge
/// spikes show as in the paper's insertion figures.
LatencyStats MeasureInsertions(core::SearchIndex& index,
                               const SyntheticCorpus& corpus, StreamId first,
                               std::size_t count, SimulatedClock& clock);

/// Runs `num_queries` top-k queries, recording per-query latency.
LatencyStats MeasureQueries(core::SearchIndex& index, QueryGenerator& gen,
                            std::size_t num_queries, int k,
                            const Clock& clock);

/// Applies `num_updates` popularity increments to random streams in
/// [0, num_streams).
LatencyStats MeasureUpdates(core::SearchIndex& index,
                            std::size_t num_updates,
                            std::size_t num_streams, const Clock& clock,
                            std::uint64_t seed = 99);

struct MixedResult {
  LatencyStats queries;
  LatencyStats insertions;
};

/// Interleaves queries and window insertions: `query_percent` of
/// `total_ops` are queries, the rest are insertions of fresh streams
/// starting at `first_new_stream` (Figure 6). Insertions are timed with
/// the cascade they started, as in MeasureInsertions.
MixedResult RunMixedWorkload(core::SearchIndex& index,
                             const SyntheticCorpus& corpus,
                             QueryGenerator& gen, std::size_t total_ops,
                             int query_percent, int k,
                             StreamId first_new_stream,
                             SimulatedClock& clock);

}  // namespace rtsi::workload

#endif  // RTSI_WORKLOAD_DRIVER_H_
