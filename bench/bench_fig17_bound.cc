// Figure 17: effectiveness of the top-k upper bound — mean query latency
// versus the number of audio streams, with the bound enabled and
// disabled. The paper's finding: with the bound, query time stays nearly
// flat as the index grows.
//
// Extended with the bound-mode dimension: kSnapshot prunes with the
// component-local stored maxima (fast but stale under post-seal updates),
// kGlobalPop with sound live ceilings. The per-component live-freshness
// ceilings exist so that the sound mode prices in at ~the component-local
// cost instead of the 2.5x regression a table-global freshness ceiling
// caused; the "global/snap" column is that acceptance ratio.
//
// Skip headers (Bloom + summary bounds + admission screen) are on in
// every bound mode and off in the nobound mode only as a side effect of
// the screen being gated on use_bound; the per-mode skipped/visited/
// screened counters land in BENCH_fig17_bound.json alongside latency.
//
// Soundness audit: kGlobalPop's pruning must never change an answer, so
// its pass is replayed on the same index as the full walk (use_bound
// off, no pruning structure consulted) and every query's result
// checksum is compared. Each diverging query prints a DIVERGENCE line
// and the bench exits 1: a divergence is a pruning or merge bug.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/clock.h"
#include "core/rtsi_index.h"
#include "workload/driver.h"
#include "workload/report.h"

namespace {

using namespace rtsi;

struct Mode {
  const char* name;
  bool use_bound;
  core::BoundMode bound_mode;
};

constexpr Mode kModes[] = {
    {"snapshot", true, core::BoundMode::kSnapshot},
    {"globalpop", true, core::BoundMode::kGlobalPop},
    {"nobound", false, core::BoundMode::kSnapshot},
};
constexpr std::size_t kNumModes = sizeof(kModes) / sizeof(kModes[0]);

struct Row {
  double mean_micros[kNumModes] = {};
  core::QueryStats stats[kNumModes] = {};  // summed over the pass
  std::size_t audit_diverging = 0;  // kGlobalPop queries != full walk
};

Row Run(std::size_t num_streams, std::size_t num_queries) {
  const workload::SyntheticCorpus corpus(
      bench::DefaultCorpusConfig(num_streams));
  Row row{};
  for (std::size_t m = 0; m < kNumModes; ++m) {
    auto config = bench::DefaultIndexConfig();
    config.use_bound = kModes[m].use_bound;
    config.bound_mode = kModes[m].bound_mode;
    core::RtsiIndex index(config);
    SimulatedClock clock;
    workload::InitializeIndex(index, corpus, 0, num_streams, clock);
    const Timestamp now = clock.Now();
    const auto query_config = bench::DefaultQueryConfig(corpus.vocab_size());
    const bool audit = kModes[m].use_bound &&
                       kModes[m].bound_mode == core::BoundMode::kGlobalPop;

    workload::QueryGenerator gen(query_config);
    LatencyStats stats;
    Stopwatch watch;
    core::QueryStats& sum = row.stats[m];
    std::vector<std::uint64_t> checksums;
    for (std::size_t i = 0; i < num_queries; ++i) {
      const auto q = gen.Next();
      core::QueryStats qs;
      watch.Restart();
      const auto results = index.Query(q, 10, now, &qs);
      stats.Record(watch.ElapsedMicros());
      if (audit) checksums.push_back(bench::ResultChecksum(results));
      sum.components_visited += qs.components_visited;
      sum.components_pruned += qs.components_pruned;
      sum.components_skipped += qs.components_skipped;
      sum.bloom_false_positives += qs.bloom_false_positives;
      sum.candidates_screened += qs.candidates_screened;
      sum.candidates_scored += qs.candidates_scored;
    }
    row.mean_micros[m] = stats.mean_micros();
    if (!audit) continue;

    index.SetUseBound(false);
    workload::QueryGenerator replay(query_config);
    for (std::size_t i = 0; i < num_queries; ++i) {
      const std::uint64_t walk =
          bench::ResultChecksum(index.Query(replay.Next(), 10, now));
      if (walk == checksums[i]) continue;
      ++row.audit_diverging;
      std::fprintf(stderr,
                   "DIVERGENCE streams=%zu mode=%s query=%zu "
                   "(pruned=%016llx walk=%016llx)\n",
                   num_streams, kModes[m].name, i,
                   static_cast<unsigned long long>(checksums[i]),
                   static_cast<unsigned long long>(walk));
    }
  }
  return row;
}

}  // namespace

int main() {
  const std::size_t num_queries = bench::Scaled(1000);
  workload::ReportTable table(
      "Figure 17: query latency by bound mode (snapshot = stale "
      "component-local, globalpop = sound live ceilings)",
      {"#streams", "snapshot", "globalpop", "nobound", "global/snap",
       "speedup vs nobound", "pruned (snap/global)", "skipped/visited",
       "globalpop audit"});

  bench::JsonReport report("fig17_bound");
  report.Field("scale", bench::Scale());
  report.Field("queries_per_point", static_cast<double>(num_queries));
  report.Field("k", 10.0);

  std::size_t diverging = 0;
  for (const std::size_t base : {1000, 2000, 4000, 8000}) {
    const std::size_t n = bench::Scaled(base);
    const Row row = Run(n, num_queries);
    table.AddRow(
        {std::to_string(n), workload::FormatMicros(row.mean_micros[0]),
         workload::FormatMicros(row.mean_micros[1]),
         workload::FormatMicros(row.mean_micros[2]),
         workload::FormatDouble(row.mean_micros[1] / row.mean_micros[0], 2) +
             "x",
         workload::FormatDouble(row.mean_micros[2] / row.mean_micros[1], 2) +
             "x",
         std::to_string(row.stats[0].components_pruned) + "/" +
             std::to_string(row.stats[1].components_pruned),
         std::to_string(row.stats[1].components_skipped) + "/" +
             std::to_string(row.stats[1].components_visited),
         row.audit_diverging == 0
             ? "ok"
             : "MISMATCH " + std::to_string(row.audit_diverging)});
    diverging += row.audit_diverging;

    for (std::size_t m = 0; m < kNumModes; ++m) {
      auto& json_row = report.AddRow();
      json_row.Field("streams", static_cast<double>(n))
          .Field("mode", kModes[m].name)
          .Field("mean_us", row.mean_micros[m])
          .Field("components_visited",
                 static_cast<double>(row.stats[m].components_visited))
          .Field("components_pruned",
                 static_cast<double>(row.stats[m].components_pruned))
          .Field("components_skipped",
                 static_cast<double>(row.stats[m].components_skipped))
          .Field("bloom_false_positives",
                 static_cast<double>(row.stats[m].bloom_false_positives))
          .Field("candidates_screened",
                 static_cast<double>(row.stats[m].candidates_screened))
          .Field("candidates_scored",
                 static_cast<double>(row.stats[m].candidates_scored));
      if (kModes[m].bound_mode == core::BoundMode::kGlobalPop) {
        json_row.Field("audit_diverging_queries",
                       static_cast<double>(row.audit_diverging));
      }
    }
  }
  table.Print();
  report.Write("BENCH_fig17_bound.json");
  if (diverging > 0) {
    std::fprintf(stderr,
                 "error: %zu kGlobalPop queries diverged from the full "
                 "walk\n",
                 diverging);
    return 1;
  }
  return 0;
}
