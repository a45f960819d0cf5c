#include "workload/driver.h"

#include <algorithm>

#include "common/rng.h"

namespace rtsi::workload {

InitResult InitializeIndex(core::SearchIndex& index,
                           const SyntheticCorpus& corpus, StreamId first,
                           std::size_t count, SimulatedClock& clock,
                           bool set_initial_popularity,
                           std::size_t live_cohort) {
  InitResult result;
  Stopwatch watch;
  if (live_cohort == 0) live_cohort = 1;

  if (set_initial_popularity) {
    for (std::size_t i = 0; i < count; ++i) {
      index.UpdatePopularity(first + i, corpus.InitialPopularity(first + i));
    }
  }

  // Cohorts of `live_cohort` streams broadcast concurrently; within a
  // cohort every live stream delivers one window per simulated minute.
  for (std::size_t cohort_start = 0; cohort_start < count;
       cohort_start += live_cohort) {
    const std::size_t cohort_size =
        std::min(live_cohort, count - cohort_start);
    std::vector<int> windows_left(cohort_size);
    int max_windows = 0;
    for (std::size_t i = 0; i < cohort_size; ++i) {
      windows_left[i] = corpus.NumWindows(first + cohort_start + i);
      max_windows = std::max(max_windows, windows_left[i]);
    }
    for (int w = 0; w < max_windows; ++w) {
      for (std::size_t i = 0; i < cohort_size; ++i) {
        if (w >= windows_left[i]) continue;
        const StreamId stream = first + cohort_start + i;
        const bool last_window = (w + 1 == windows_left[i]);
        index.InsertWindow(stream, clock.Now(),
                           corpus.WindowTerms(stream, w), !last_window);
        if (last_window) index.FinishStream(stream);
        ++result.windows_inserted;
      }
      clock.Advance(60 * kMicrosPerSecond);
    }
  }

  index.WaitForMerges();
  result.elapsed_micros = watch.ElapsedMicros();
  result.index_bytes = index.MemoryBytes();
  return result;
}

LatencyStats MeasureInsertions(core::SearchIndex& index,
                               const SyntheticCorpus& corpus, StreamId first,
                               std::size_t count, SimulatedClock& clock) {
  LatencyStats stats;
  Stopwatch watch;
  for (std::size_t i = 0; i < count; ++i) {
    const StreamId stream = first + i;
    const int windows = corpus.NumWindows(stream);
    for (int w = 0; w < windows; ++w) {
      const auto terms = corpus.WindowTerms(stream, w);
      clock.Advance(kMicrosPerSecond);
      watch.Restart();
      index.InsertWindow(stream, clock.Now(), terms, w + 1 < windows);
      index.WaitForMerges();  // Charge the insert with its cascade.
      stats.Record(watch.ElapsedMicros());
    }
    index.FinishStream(stream);
  }
  return stats;
}

LatencyStats MeasureQueries(core::SearchIndex& index, QueryGenerator& gen,
                            std::size_t num_queries, int k,
                            const Clock& clock) {
  LatencyStats stats;
  Stopwatch watch;
  for (std::size_t i = 0; i < num_queries; ++i) {
    const std::vector<TermId> terms = gen.Next();
    watch.Restart();
    const auto results = index.Query(terms, k, clock.Now());
    stats.Record(watch.ElapsedMicros());
    (void)results;
  }
  return stats;
}

LatencyStats MeasureUpdates(core::SearchIndex& index,
                            std::size_t num_updates,
                            std::size_t num_streams, const Clock& clock,
                            std::uint64_t seed) {
  (void)clock;
  LatencyStats stats;
  Rng rng(seed);
  Stopwatch watch;
  for (std::size_t i = 0; i < num_updates; ++i) {
    const StreamId stream = rng.NextUint64(std::max<std::size_t>(1,
                                                                 num_streams));
    const std::uint64_t delta = 1 + rng.NextUint64(10);
    watch.Restart();
    index.UpdatePopularity(stream, delta);
    stats.Record(watch.ElapsedMicros());
  }
  return stats;
}

MixedResult RunMixedWorkload(core::SearchIndex& index,
                             const SyntheticCorpus& corpus,
                             QueryGenerator& gen, std::size_t total_ops,
                             int query_percent, int k,
                             StreamId first_new_stream,
                             SimulatedClock& clock) {
  MixedResult result;
  Rng rng(0xC0FFEE ^ total_ops ^ query_percent);
  Stopwatch watch;

  StreamId stream = first_new_stream;
  int window = 0;
  int windows_in_stream = corpus.NumWindows(stream);

  for (std::size_t op = 0; op < total_ops; ++op) {
    clock.Advance(100'000);  // 100 ms between operations.
    if (rng.NextBool(query_percent / 100.0)) {
      const std::vector<TermId> terms = gen.Next();
      watch.Restart();
      index.Query(terms, k, clock.Now());
      result.queries.Record(watch.ElapsedMicros());
    } else {
      const auto terms = corpus.WindowTerms(stream, window);
      const bool last = (window + 1 >= windows_in_stream);
      watch.Restart();
      index.InsertWindow(stream, clock.Now(), terms, !last);
      index.WaitForMerges();  // Charge the insert with its cascade.
      result.insertions.Record(watch.ElapsedMicros());
      if (last) {
        index.FinishStream(stream);
        ++stream;
        window = 0;
        windows_in_stream = corpus.NumWindows(stream);
      } else {
        ++window;
      }
    }
  }
  return result;
}

}  // namespace rtsi::workload
