// The benchmark's workloads: each runs one traffic mix against the
// library and records what it measured into `report`.

#ifndef RTSI_PERFBENCH_WORKLOADS_H_
#define RTSI_PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

void RunArchiveSearch(const Options& options, Report& report);
void RunLiveIngest(const Options& options, Report& report);
void RunHttpMix(const Options& options, Report& report);

}  // namespace perfbench

#endif  // RTSI_PERFBENCH_WORKLOADS_H_
