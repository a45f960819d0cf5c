// Figure 10: query cost versus the number of queries, RTSI vs LSII.
//
// Extended with a full-walk audit: every query count is measured on the
// pruned path (bound walk with the skip headers consulted: Bloom +
// summary bounds + admission screen) and on the full walk (use_bound
// off: every component to exhaustion, no pruning structure consulted).
// The two passes must produce bit-identical per-query results — pruning
// and skipping are pure traversal optimizations — so each query's result
// checksum is audited against the full walk, the folded checksums are
// emitted per row with every diverging query id and their count, and a
// divergence exits nonzero. Emits BENCH_fig10_query.json so the sealed-phase read path has a
// tracked perf trajectory.

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/clock.h"
#include "common/latency_stats.h"
#include "core/rtsi_index.h"
#include "workload/driver.h"
#include "workload/report.h"

namespace {

using rtsi::bench::HashMix;
using rtsi::bench::ResultChecksum;

struct Pass {
  double mean_us = 0.0;
  double total_us = 0.0;
  std::uint64_t checksum = 0;
  std::vector<std::uint64_t> per_query;
  rtsi::core::QueryStats stats;  // summed over the pass
};

Pass MeasureRtsi(rtsi::core::RtsiIndex& index,
                 const rtsi::workload::QueryGenConfig& query_config,
                 std::size_t num_queries, int k, rtsi::Timestamp now) {
  using namespace rtsi;
  // Warm-up (scratch-pool growth, branch warm-up) outside the clock.
  workload::QueryGenerator warm(query_config);
  for (int w = 0; w < 50; ++w) index.Query(warm.Next(), k, now);

  workload::QueryGenerator gen(query_config);
  Pass pass;
  pass.checksum = bench::kChecksumSeed;
  pass.per_query.reserve(num_queries);
  LatencyStats lat;
  Stopwatch watch;
  for (std::size_t i = 0; i < num_queries; ++i) {
    const auto q = gen.Next();
    core::QueryStats qs;
    watch.Restart();
    const auto results = index.Query(q, k, now, &qs);
    lat.Record(watch.ElapsedMicros());
    const std::uint64_t qsum = ResultChecksum(results);
    pass.per_query.push_back(qsum);
    pass.checksum = HashMix(pass.checksum, qsum);
    pass.stats.components_visited += qs.components_visited;
    pass.stats.components_pruned += qs.components_pruned;
    pass.stats.components_skipped += qs.components_skipped;
    pass.stats.bloom_false_positives += qs.bloom_false_positives;
    pass.stats.candidates_screened += qs.candidates_screened;
    pass.stats.candidates_scored += qs.candidates_scored;
    pass.stats.postings_scanned += qs.postings_scanned;
  }
  pass.mean_us = lat.mean_micros();
  pass.total_us = lat.sum_micros();
  return pass;
}

}  // namespace

int main() {
  using namespace rtsi;
  // Past the big-table cache crossover (see EXPERIMENTS.md); the query
  // gap between RTSI and LSII is cache-driven and needs corpus volume.
  const std::size_t init_streams = bench::Scaled(10000);
  const workload::SyntheticCorpus corpus(
      bench::DefaultCorpusConfig(init_streams));
  const int k = 10;

  workload::ReportTable table(
      "Figure 10: query cost vs #queries (" + std::to_string(init_streams) +
          " streams, k=10; RTSI = bound walk + skip headers; pre = "
          "committed pre-pipeline baseline)",
      {"mix/#queries", "RTSI", "pre", "drift", "full walk", "gain",
       "LSII mean", "skipped/visited", "screened", "match"});

  // Before/after the exec:: pipeline refactor: the committed baseline
  // (bench/baselines/) was recorded just before the unified pipeline
  // landed. Comparable only when this run's scale and corpus match the
  // recording; then the per-row checksums must be identical (the
  // refactor is required to be bit-preserving — a mismatch is fatal) and
  // the sealed-phase mean must hold within the 5% no-regression budget.
  const bench::BaselineReport baseline =
      bench::LoadBaseline("BENCH_fig10_query.json");
  const bool baseline_comparable =
      baseline.loaded && baseline.MetaNum("scale") == bench::Scale() &&
      baseline.MetaNum("streams") == static_cast<double>(init_streams);

  // Build the indices once; sweep the query count. The same RTSI index
  // serves the pruned pass and the full-walk audit (queries are
  // read-only; SetUseBound flips the walk only).
  core::RtsiIndex rtsi_index(bench::DefaultIndexConfig());
  auto lsii_index = bench::MakeIndex("LSII", bench::DefaultIndexConfig());
  SimulatedClock clock_a, clock_b;
  workload::InitializeIndex(rtsi_index, corpus, 0, init_streams, clock_a);
  workload::InitializeIndex(*lsii_index, corpus, 0, init_streams, clock_b);
  const std::size_t components = rtsi_index.tree().SealedSnapshot().size();

  bench::JsonReport report("fig10_query");
  report.Field("scale", bench::Scale());
  report.Field("streams", static_cast<double>(init_streams));
  report.Field("sealed_components", static_cast<double>(components));
  report.Field("k", static_cast<double>(k));

  // Two query mixes. "in_vocab" is the paper's fig-10 workload: every
  // term exists somewhere, so sealed components are near-saturated and
  // whole-component Bloom skips are rare — the win comes from the
  // admission screen. "oov" doubles the query vocabulary (the ASR-noise
  // regime: transcribed voice queries carry terms the corpus never
  // produced), where the Bloom filter proves terms absent and skips
  // components outright.
  struct Mix {
    const char* name;
    double vocab_factor;
  };
  constexpr Mix kMixes[] = {{"in_vocab", 1.0}, {"oov", 2.0}};

  bool all_match = true;
  bool baseline_checksums_match = true;
  double baseline_total_us = 0.0;  // Summed over rows the baseline covers.
  double current_total_us = 0.0;
  for (const Mix& mix : kMixes)
  for (const std::size_t base : {500, 1000, 2000, 4000}) {
    const std::size_t n = bench::Scaled(base);
    auto query_config = bench::DefaultQueryConfig(corpus.vocab_size());
    query_config.vocab_size = static_cast<std::size_t>(
        static_cast<double>(corpus.vocab_size()) * mix.vocab_factor);

    const Pass pruned =
        MeasureRtsi(rtsi_index, query_config, n, k, clock_a.Now());
    rtsi_index.SetUseBound(false);
    const Pass walk =
        MeasureRtsi(rtsi_index, query_config, n, k, clock_a.Now());
    rtsi_index.SetUseBound(true);

    // Bit-identity audit: every query whose pruned result differs from
    // the full walk's, one line each, then the row's count.
    std::size_t diverging = 0;
    std::string diverging_ids;
    for (std::size_t i = 0; i < pruned.per_query.size(); ++i) {
      if (pruned.per_query[i] == walk.per_query[i]) continue;
      std::fprintf(stderr,
                   "DIVERGENCE mix=%s queries=%zu query=%zu "
                   "(pruned=%016llx walk=%016llx)\n",
                   mix.name, n, i,
                   static_cast<unsigned long long>(pruned.per_query[i]),
                   static_cast<unsigned long long>(walk.per_query[i]));
      if (diverging++ > 0) diverging_ids += ",";
      diverging_ids += std::to_string(i);
    }
    if (diverging > 0) {
      std::fprintf(stderr, "DIVERGENCE mix=%s queries=%zu count=%zu\n",
                   mix.name, n, diverging);
    }
    const bool match = diverging == 0;
    all_match = all_match && match;

    workload::QueryGenerator lsii_gen(query_config);
    const auto lsii_stats =
        workload::MeasureQueries(*lsii_index, lsii_gen, n, k, clock_b);

    const double gain =
        walk.mean_us > 0.0 ? (walk.mean_us - pruned.mean_us) / walk.mean_us
                           : 0.0;
    char checksum_hex[32];
    std::snprintf(checksum_hex, sizeof(checksum_hex), "%016llx",
                  static_cast<unsigned long long>(pruned.checksum));

    // The pre-pipeline column: this (mix, queries) row in the baseline.
    const std::map<std::string, std::string>* base_row = nullptr;
    if (baseline_comparable) {
      for (const auto& row : baseline.rows) {
        if (bench::BaselineReport::Str(row, "mix") == mix.name &&
            bench::BaselineReport::Num(row, "queries") ==
                static_cast<double>(n)) {
          base_row = &row;
          break;
        }
      }
    }
    double base_mean = 0.0, drift = 0.0;
    if (base_row != nullptr) {
      base_mean = bench::BaselineReport::Num(*base_row, "mean_us_skip");
      drift = base_mean > 0.0 ? (pruned.mean_us - base_mean) / base_mean
                              : 0.0;
      baseline_total_us +=
          bench::BaselineReport::Num(*base_row, "total_us_skip");
      current_total_us += pruned.total_us;
      const std::string base_checksum =
          bench::BaselineReport::Str(*base_row, "checksum");
      if (!base_checksum.empty() && base_checksum != checksum_hex) {
        std::fprintf(stderr,
                     "DIVERGENCE vs pre-pipeline baseline mix=%s "
                     "queries=%zu (baseline=%s current=%s)\n",
                     mix.name, n, base_checksum.c_str(), checksum_hex);
        baseline_checksums_match = false;
      }
    }

    table.AddRow(
        {std::string(mix.name) + "/" + std::to_string(n),
         workload::FormatMicros(pruned.mean_us),
         base_row != nullptr ? workload::FormatMicros(base_mean) : "-",
         base_row != nullptr
             ? workload::FormatDouble(drift * 100.0, 1) + "%"
             : "-",
         workload::FormatMicros(walk.mean_us),
         workload::FormatDouble(gain * 100.0, 1) + "%",
         workload::FormatMicros(lsii_stats.mean_micros()),
         std::to_string(pruned.stats.components_skipped) + "/" +
             std::to_string(pruned.stats.components_visited),
         std::to_string(pruned.stats.candidates_screened),
         match ? "ok" : "MISMATCH " + std::to_string(diverging)});

    auto& row = report.AddRow();
    row.Field("mix", mix.name)
        .Field("queries", static_cast<double>(n))
        .Field("mean_us_skip", pruned.mean_us)
        .Field("mean_us_walk", walk.mean_us)
        .Field("total_us_skip", pruned.total_us)
        .Field("total_us_walk", walk.total_us)
        .Field("improvement", gain)
        .Field("lsii_mean_us", lsii_stats.mean_micros())
        .Field("components_visited",
               static_cast<double>(pruned.stats.components_visited))
        .Field("components_pruned",
               static_cast<double>(pruned.stats.components_pruned))
        .Field("components_skipped",
               static_cast<double>(pruned.stats.components_skipped))
        .Field("bloom_false_positives",
               static_cast<double>(pruned.stats.bloom_false_positives))
        .Field("candidates_screened",
               static_cast<double>(pruned.stats.candidates_screened))
        .Field("candidates_scored",
               static_cast<double>(pruned.stats.candidates_scored))
        .Field("checksum", checksum_hex)
        .Field("results_match", match ? "yes" : "NO")
        .Field("diverging_queries", static_cast<double>(diverging))
        .Field("diverging_query_ids", diverging_ids);
    if (base_row != nullptr) {
      row.Field("baseline_mean_us_skip", base_mean)
          .Field("baseline_drift", drift);
    }
  }
  table.Print();

  // Before/after-pipeline summary and the no-regression gate, over the
  // rows the committed baseline covers (see bench/baselines/README.md).
  if (baseline_comparable && baseline_total_us > 0.0) {
    const double regression = current_total_us / baseline_total_us - 1.0;
    report.Field("baseline_total_us_skip", baseline_total_us);
    report.Field("total_us_skip_vs_baseline", regression);
    std::printf(
        "pipeline before/after: pre=%.0fus post=%.0fus (%+.1f%%), "
        "checksums %s\n",
        baseline_total_us, current_total_us, regression * 100.0,
        baseline_checksums_match ? "identical" : "DIVERGED");
    if (regression > 0.05) {
      std::fprintf(stderr,
                   "%s: sealed-phase query time regressed %.1f%% vs the "
                   "pre-pipeline baseline (budget 5%%)\n",
                   bench::LatencyGateEnforced() ? "error" : "warning",
                   regression * 100.0);
      if (bench::LatencyGateEnforced()) {
        report.Write("BENCH_fig10_query.json");
        return 1;
      }
    }
  }
  report.Write("BENCH_fig10_query.json");
  if (!all_match) {
    std::fprintf(stderr,
                 "error: pruned results diverged from the full walk\n");
    return 1;
  }
  if (!baseline_checksums_match) {
    std::fprintf(stderr,
                 "error: results diverged from the committed pre-pipeline "
                 "baseline (bench/baselines/BENCH_fig10_query.json)\n");
    return 1;
  }
  return 0;
}
