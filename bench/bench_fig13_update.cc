// Figure 13: update cost (popularity increments) versus the number of
// updates and the index size, RTSI vs LSII. RTSI touches only the small
// per-stream table; LSII touches the big hash table.
//
// Emits BENCH_fig13_update.json so the update path has a tracked perf
// trajectory.

#include <string>

#include "bench_util.h"
#include "common/clock.h"
#include "workload/driver.h"
#include "workload/report.h"

int main() {
  using namespace rtsi;

  bench::JsonReport report("fig13_update");
  report.Field("scale", bench::Scale());

  {
    const std::size_t init_streams = bench::Scaled(4000);
    const workload::SyntheticCorpus corpus(
        bench::DefaultCorpusConfig(init_streams));
    core::RtsiIndex rtsi_index(bench::DefaultIndexConfig());
    auto lsii_index = bench::MakeIndex("LSII", bench::DefaultIndexConfig());
    SimulatedClock clock_r, clock_b;
    workload::InitializeIndex(rtsi_index, corpus, 0, init_streams, clock_r);
    workload::InitializeIndex(*lsii_index, corpus, 0, init_streams, clock_b);

    workload::ReportTable table(
        "Figure 13a: update cost vs #updates (" +
            std::to_string(init_streams) + " streams)",
        {"#updates", "RTSI total", "LSII total"});
    for (const std::size_t base : {20000, 50000, 100000, 200000}) {
      const std::size_t n = bench::Scaled(base);
      const auto rtsi_stats = workload::MeasureUpdates(
          rtsi_index, n, init_streams, clock_r, /*seed=*/n);
      const auto lsii_stats = workload::MeasureUpdates(
          *lsii_index, n, init_streams, clock_b, /*seed=*/n);
      table.AddRow({std::to_string(n),
                    workload::FormatMicros(rtsi_stats.sum_micros()),
                    workload::FormatMicros(lsii_stats.sum_micros())});
      report.AddRow()
          .Field("sweep", "updates")
          .Field("updates", static_cast<double>(n))
          .Field("streams", static_cast<double>(init_streams))
          .Field("total_us_rtsi", rtsi_stats.sum_micros())
          .Field("mean_us_rtsi", rtsi_stats.mean_micros())
          .Field("lsii_total_us", lsii_stats.sum_micros());
    }
    table.Print();
  }

  {
    workload::ReportTable table(
        "Figure 13b: update cost vs index size (100k updates)",
        {"#streams", "RTSI total", "LSII total"});
    for (const std::size_t base : {1000, 2000, 4000, 8000}) {
      const std::size_t n = bench::Scaled(base);
      const std::size_t num_updates = bench::Scaled(100000);
      const workload::SyntheticCorpus corpus(bench::DefaultCorpusConfig(n));

      double totals[2];
      int slot = 0;
      for (const char* name : {"RTSI", "LSII"}) {
        auto index = bench::MakeIndex(name, bench::DefaultIndexConfig());
        SimulatedClock clock;
        workload::InitializeIndex(*index, corpus, 0, n, clock);
        totals[slot++] = workload::MeasureUpdates(*index, num_updates, n,
                                                  clock, /*seed=*/n)
                             .sum_micros();
      }
      table.AddRow({std::to_string(n), workload::FormatMicros(totals[0]),
                    workload::FormatMicros(totals[1])});
      report.AddRow()
          .Field("sweep", "index_size")
          .Field("updates", static_cast<double>(num_updates))
          .Field("streams", static_cast<double>(n))
          .Field("total_us_rtsi", totals[0])
          .Field("total_us_lsii", totals[1]);
    }
    table.Print();
  }
  report.Write("BENCH_fig13_update.json");
  return 0;
}
