// Figure 8: insertion cost versus the number of insertions (window
// batches), RTSI vs LSII, on top of an initialized index.
//
// RTSI's live ingest path is arena-backed (per-window WindowArenas); each
// row also reports the arena's allocation requests per insert and how
// many of them reached operator new, plus a checksum folded over a
// post-insert query stream so a change to what ingest stores shows up
// as a checksum change. Emits BENCH_fig8_insert.json so the live ingest
// path has a tracked perf trajectory (throughput, allocations-per-insert).
// Each insert is timed together with the merge cascade it started
// (workload::MeasureInsertions), so totals include every merge.

#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/clock.h"
#include "common/latency_stats.h"
#include "common/window_arena.h"
#include "core/rtsi_index.h"
#include "workload/driver.h"
#include "workload/report.h"

namespace {

using rtsi::bench::HashMix;
using rtsi::bench::ResultChecksum;

struct InsertPass {
  double total_us = 0.0;
  double median_us = 0.0;
  double inserts_per_sec = 0.0;
  double requests_per_insert = 0.0;  // Arena allocation requests.
  double upstream_per_insert = 0.0;  // Requests that reached operator new.
};

InsertPass MeasureArenaPass(rtsi::core::RtsiIndex& index,
                            const rtsi::workload::SyntheticCorpus& corpus,
                            rtsi::StreamId first, std::size_t count,
                            rtsi::SimulatedClock& clock) {
  using namespace rtsi;
  const WindowArena::Stats before = index.LiveArenaStats();
  const auto stats =
      workload::MeasureInsertions(index, corpus, first, count, clock);
  const WindowArena::Stats after = index.LiveArenaStats();
  InsertPass pass;
  pass.total_us = stats.sum_micros();
  pass.median_us = stats.PercentileMicros(0.5);
  pass.inserts_per_sec =
      pass.total_us > 0.0 ? stats.count() * 1e6 / pass.total_us : 0.0;
  if (stats.count() > 0) {
    pass.requests_per_insert =
        static_cast<double>(after.requests - before.requests) / stats.count();
    pass.upstream_per_insert =
        static_cast<double>(after.upstream_allocations -
                            before.upstream_allocations) /
        stats.count();
  }
  return pass;
}

}  // namespace

int main() {
  using namespace rtsi;
  const std::size_t init_streams = bench::Scaled(2000);

  workload::ReportTable table(
      "Figure 8: insertion cost vs #inserted streams (on top of " +
          std::to_string(init_streams) + " initial streams)",
      {"#new streams", "RTSI total", "LSII total", "ins/s RTSI",
       "alloc/ins", "upstream/ins"});

  bench::JsonReport report("fig8_insert");
  report.Field("scale", bench::Scale());
  report.Field("init_streams", static_cast<double>(init_streams));
  report.Field("nproc",
               static_cast<double>(std::thread::hardware_concurrency()));

  for (const std::size_t base : {250, 500, 1000, 2000}) {
    const std::size_t n = bench::Scaled(base);
    const workload::SyntheticCorpus corpus(
        bench::DefaultCorpusConfig(init_streams + n));

    core::RtsiIndex rtsi_index(bench::DefaultIndexConfig());
    SimulatedClock clock_rtsi;
    workload::InitializeIndex(rtsi_index, corpus, 0, init_streams,
                              clock_rtsi);
    const InsertPass pass =
        MeasureArenaPass(rtsi_index, corpus, init_streams, n, clock_rtsi);

    // Result fingerprint of a fixed query stream over what was ingested.
    workload::QueryGenerator gen(
        bench::DefaultQueryConfig(corpus.vocab_size()));
    const Timestamp now = clock_rtsi.Now();
    std::uint64_t checksum = bench::kChecksumSeed;
    for (int q = 0; q < 200; ++q) {
      checksum = HashMix(checksum, ResultChecksum(rtsi_index.Query(
                                   gen.Next(), 10, now, nullptr)));
    }

    // LSII reference series (the figure's original comparison).
    auto lsii_index = bench::MakeIndex("LSII", bench::DefaultIndexConfig());
    SimulatedClock clock_lsii;
    workload::InitializeIndex(*lsii_index, corpus, 0, init_streams,
                              clock_lsii);
    const auto lsii_stats = workload::MeasureInsertions(
        *lsii_index, corpus, init_streams, n, clock_lsii);

    char checksum_hex[32];
    std::snprintf(checksum_hex, sizeof(checksum_hex), "%016llx",
                  static_cast<unsigned long long>(checksum));
    table.AddRow({std::to_string(n), workload::FormatMicros(pass.total_us),
                  workload::FormatMicros(lsii_stats.sum_micros()),
                  workload::FormatDouble(pass.inserts_per_sec, 0),
                  workload::FormatDouble(pass.requests_per_insert, 1),
                  workload::FormatDouble(pass.upstream_per_insert, 3)});

    auto& row = report.AddRow();
    row.Field("streams", static_cast<double>(n))
        .Field("total_us", pass.total_us)
        .Field("median_us", pass.median_us)
        .Field("inserts_per_sec", pass.inserts_per_sec)
        .Field("arena_requests_per_insert", pass.requests_per_insert)
        .Field("arena_upstream_per_insert", pass.upstream_per_insert)
        .Field("lsii_total_us", lsii_stats.sum_micros())
        .Field("checksum", checksum_hex);
  }
  table.Print();
  report.Write("BENCH_fig8_insert.json");
  return 0;
}
