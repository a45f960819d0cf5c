// Table III: the variables of the experiments and their default values.
// (The paper's table is partially garbled in the available text; these are
// the documented defaults of this reproduction — DESIGN.md §4.)

#include <string>

#include "bench_util.h"
#include "workload/report.h"

int main() {
  const auto config = rtsi::bench::DefaultIndexConfig();
  const auto corpus = rtsi::bench::DefaultCorpusConfig(8000);

  rtsi::workload::ReportTable table(
      "Table III: experiment variables and default values",
      {"variable", "default", "meaning"});
  table.AddRow({"delta (size of I0)", std::to_string(config.lsm.delta),
                "postings in I0 before a merge triggers"});
  table.AddRow({"rho (LSM ratio)",
                rtsi::workload::FormatDouble(config.lsm.rho, 1),
                "size ratio between adjacent levels"});
  table.AddRow({"w_p", rtsi::workload::FormatDouble(config.weights.pop, 2),
                "popularity weight (Eq. 1)"});
  table.AddRow({"w_r", rtsi::workload::FormatDouble(config.weights.rel, 2),
                "relevance weight (Eq. 1)"});
  table.AddRow({"w_f", rtsi::workload::FormatDouble(config.weights.frsh, 2),
                "freshness weight (Eq. 1)"});
  table.AddRow({"k", std::to_string(rtsi::bench::kDefaultK), "top-k results"});
  table.AddRow({"freshness tau",
                rtsi::workload::FormatDouble(
                    config.freshness_tau_seconds / 3600.0, 1) + "h",
                "exponential freshness decay scale"});
  table.AddRow({"#streams (bench default)",
                std::to_string(rtsi::bench::Scaled(corpus.num_streams)),
                "corpus size at RTSI_BENCH_SCALE=1"});
  table.AddRow({"vocabulary", std::to_string(corpus.vocab_size),
                "distinct words, Zipf(1.0)"});
  table.AddRow({"window length", "60s",
                "insertion batch = one audio minute"});
  table.AddRow({"words per window", std::to_string(corpus.words_per_window),
                "tokens after stop-word removal"});
  table.AddRow({"windows per stream",
                std::to_string(corpus.avg_windows_per_stream) + " avg",
                "~16 minutes per stream in the paper"});
  table.Print();
  return 0;
}
