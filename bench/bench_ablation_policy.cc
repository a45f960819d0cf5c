// Ablation: the three compaction policies head-to-head — the paper's
// geometric cascade (Algorithm 1), size-tiered (accumulate tier_runs
// runs per level, then one multi-way fold), and full compaction (one
// component, maximum write amplification). Measures the write side
// (merge work in postings, merge stall time folded into build time) and
// the read side (query mean/p99 and the skip-header planner counters —
// more runs means more components for the Bloom/summary screen to
// dismiss).
//
// Correctness audit: for every policy, the optimized pass (kGlobalPop
// pruning + skip headers) is checksum-compared against an exhaustive
// full walk of the SAME index — pruning and skipping are lossless, so
// any divergence is a merge or planner bug and the bench exits nonzero.
// The audit is within-layout on purpose: a stream whose postings still
// span several sealed runs is scored per component with partial tfs
// (keep-best-per-stream, see rtsi_index.cc phase 3), so cross-policy
// scores only converge once merges consolidate — the per-policy
// checksums are emitted for cross-PR tracking, with geometric as the
// tracked baseline. Emits BENCH_ablation_policy.json.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/clock.h"
#include "common/latency_stats.h"
#include "core/rtsi_index.h"
#include "workload/driver.h"
#include "workload/report.h"

namespace {

std::uint64_t Mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

struct PolicyRun {
  const char* label = "";
  double build_us = 0.0;
  rtsi::lsm::MergeStats merge;
  double query_mean_us = 0.0;
  double query_p99_us = 0.0;
  std::uint64_t checksum = 0;       // optimized pass
  std::uint64_t walk_checksum = 0;  // exhaustive full walk
  rtsi::core::QueryStats qstats;    // summed over the optimized pass
  std::size_t runs = 0;
  std::size_t levels = 0;
  std::size_t postings = 0;
};

struct Pass {
  double mean_us = 0.0;
  double p99_us = 0.0;
  std::uint64_t checksum = 0;
  rtsi::core::QueryStats qstats;
};

Pass MeasurePass(rtsi::core::RtsiIndex& index,
                 const rtsi::workload::QueryGenConfig& query_config,
                 std::size_t num_queries, int k, rtsi::Timestamp now) {
  using namespace rtsi;
  workload::QueryGenerator warm(query_config);
  for (int w = 0; w < 50; ++w) index.Query(warm.Next(), k, now);

  workload::QueryGenerator gen(query_config);
  Pass pass;
  pass.checksum = 1469598103934665603ull;
  LatencyStats lat;
  Stopwatch watch;
  for (std::size_t i = 0; i < num_queries; ++i) {
    const auto q = gen.Next();
    core::QueryStats qs;
    watch.Restart();
    const auto results = index.Query(q, k, now, &qs);
    lat.Record(watch.ElapsedMicros());
    std::uint64_t qsum = 1469598103934665603ull;
    for (const auto& r : results) {
      std::uint64_t bits = 0;
      static_assert(sizeof(bits) == sizeof(r.score));
      std::memcpy(&bits, &r.score, sizeof(bits));
      qsum = Mix(qsum, r.stream);
      qsum = Mix(qsum, bits);
    }
    pass.checksum = Mix(pass.checksum, qsum);
    pass.qstats.components_visited += qs.components_visited;
    pass.qstats.components_pruned += qs.components_pruned;
    pass.qstats.components_skipped += qs.components_skipped;
    pass.qstats.postings_scanned += qs.postings_scanned;
  }
  pass.mean_us = lat.mean_micros();
  pass.p99_us = lat.PercentileMicros(0.99);
  return pass;
}

PolicyRun RunPolicy(rtsi::lsm::MergePolicy policy, const char* label,
                    const rtsi::workload::SyntheticCorpus& corpus,
                    std::size_t num_streams, std::size_t num_queries,
                    int k) {
  using namespace rtsi;
  auto config = bench::DefaultIndexConfig();
  config.lsm.policy = policy;
  // Sound, layout-blind pruning for the audited pass.
  config.bound_mode = core::BoundMode::kGlobalPop;
  core::RtsiIndex index(config);
  SimulatedClock clock;

  PolicyRun run;
  run.label = label;
  run.build_us =
      workload::InitializeIndex(index, corpus, 0, num_streams, clock)
          .elapsed_micros;
  run.merge = index.GetMergeStats();
  run.runs = index.tree().num_runs();
  run.levels = index.tree().num_levels();
  run.postings = index.tree().total_postings();

  const auto query_config = bench::DefaultQueryConfig(corpus.vocab_size());
  const Timestamp now = clock.Now();
  const Pass optimized =
      MeasurePass(index, query_config, num_queries, k, now);
  run.query_mean_us = optimized.mean_us;
  run.query_p99_us = optimized.p99_us;
  run.checksum = optimized.checksum;
  run.qstats = optimized.qstats;

  // Audit pass: exhaustive walk, no pruning, no skip headers.
  index.SetUseBound(false);
  run.walk_checksum =
      MeasurePass(index, query_config, num_queries, k, now).checksum;
  return run;
}

}  // namespace

int main() {
  using namespace rtsi;
  const std::size_t num_streams = bench::Scaled(3000);
  const std::size_t num_queries = bench::Scaled(1000);
  const int k = 10;
  const workload::SyntheticCorpus corpus(
      bench::DefaultCorpusConfig(num_streams));

  const PolicyRun runs[] = {
      RunPolicy(lsm::MergePolicy::kGeometric, "geometric (paper)", corpus,
                num_streams, num_queries, k),
      RunPolicy(lsm::MergePolicy::kTiered, "tiered", corpus, num_streams,
                num_queries, k),
      RunPolicy(lsm::MergePolicy::kFullCompaction, "full compaction",
                corpus, num_streams, num_queries, k),
  };

  bench::JsonReport report("ablation_policy");
  report.Field("scale", bench::Scale());
  report.Field("streams", static_cast<double>(num_streams));
  report.Field("queries", static_cast<double>(num_queries));
  report.Field("k", static_cast<double>(k));

  workload::ReportTable table(
      "Ablation: compaction policy (" + std::to_string(num_streams) +
          " streams; write amp = merged postings / resident postings)",
      {"policy", "build time", "write amp", "merge stall", "runs/levels",
       "query mean", "query p99", "skipped/visited", "audit"});

  bool diverged = false;
  for (const PolicyRun& run : runs) {
    const double write_amp =
        run.postings == 0
            ? 0.0
            : static_cast<double>(run.merge.postings_in) /
                  static_cast<double>(run.postings);
    const bool audit_ok = run.checksum == run.walk_checksum;
    if (!audit_ok) diverged = true;

    char amp[32], hex[32];
    std::snprintf(amp, sizeof(amp), "%.2f", write_amp);
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(run.checksum));
    table.AddRow(
        {run.label, workload::FormatMicros(run.build_us), amp,
         workload::FormatMicros(run.merge.total_micros),
         std::to_string(run.runs) + "/" + std::to_string(run.levels),
         workload::FormatMicros(run.query_mean_us),
         workload::FormatMicros(run.query_p99_us),
         std::to_string(run.qstats.components_skipped) + "/" +
             std::to_string(run.qstats.components_visited),
         audit_ok ? "ok" : "DIVERGED"});

    report.AddRow()
        .Field("policy", run.label)
        .Field("build_us", run.build_us)
        .Field("merges", static_cast<double>(run.merge.merges))
        .Field("merge_postings_in",
               static_cast<double>(run.merge.postings_in))
        .Field("merge_postings_out",
               static_cast<double>(run.merge.postings_out))
        .Field("merge_stall_us", run.merge.total_micros)
        .Field("write_amplification", write_amp)
        .Field("resident_postings", static_cast<double>(run.postings))
        .Field("runs", static_cast<double>(run.runs))
        .Field("levels", static_cast<double>(run.levels))
        .Field("query_mean_us", run.query_mean_us)
        .Field("query_p99_us", run.query_p99_us)
        .Field("components_visited",
               static_cast<double>(run.qstats.components_visited))
        .Field("components_pruned",
               static_cast<double>(run.qstats.components_pruned))
        .Field("components_skipped",
               static_cast<double>(run.qstats.components_skipped))
        .Field("postings_scanned",
               static_cast<double>(run.qstats.postings_scanned))
        .Field("checksum", hex)
        .Field("audit_ok", audit_ok ? 1.0 : 0.0);
  }
  table.Print();
  report.Write("BENCH_ablation_policy.json");

  if (diverged) {
    std::fprintf(stderr,
                 "FAIL: optimized pass diverged from the exhaustive walk "
                 "— merge or planner correctness bug\n");
    return 1;
  }
  return 0;
}
