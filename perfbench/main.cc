// The repository benchmark program.
//
//   perfbench --workload <archive_search|live_ingest|http_mix> --seed <n>
//             --seconds <s> --trace <0|1> --work-dir <dir>
//
// Runs one workload against the library's public API in this process and
// prints one JSON report line (see Report::ToJson); run.py checks it
// against BENCHMARK.json and prints the benchmark's result line. With
// --trace 0 the end-to-end metrics are measured with no tracing at all;
// --trace 1 adds a traced pass that splits the same operations into their
// layers' calls and reports the per-layer metrics and the tracing
// overhead.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common.h"
#include "workloads.h"

namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload archive_search|live_ingest|"
               "http_mix --seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--spans-dir DIR]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::atof(value);
    } else if (key == "--trace") {
      options.trace = std::atoi(value) != 0;
    } else if (key == "--work-dir") {
      options.work_dir = value;
    } else if (key == "--spans-dir") {
      options.spans_dir = value;
    } else {
      return Usage();
    }
  }
  if (options.work_dir.empty() || options.seconds <= 0.0) return Usage();
  std::filesystem::create_directories(options.work_dir);

  Report report;
  if (options.workload == "archive_search") {
    RunArchiveSearch(options, report);
  } else if (options.workload == "live_ingest") {
    RunLiveIngest(options, report);
  } else if (options.workload == "http_mix") {
    RunHttpMix(options, report);
  } else {
    return Usage();
  }

  std::printf("%s\n", report.ToJson(options).c_str());
  return 0;
}
