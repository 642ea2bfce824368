// Output of one benchmark run: the human-readable report lines, the single
// JSON result line that ends standard output, and the full result file.
#ifndef PERFBENCH_SRC_REPORT_H_
#define PERFBENCH_SRC_REPORT_H_

#include <string>

#include "perfbench/src/workloads.h"

namespace perfbench {

// The result line: {"correct", "attempted", "failed", "metrics"} where
// metrics holds exactly the catalogue's end-to-end metrics (untraced run) or
// per-layer metrics (traced run), each as {"value", "unit"}. Returns false
// and names the culprit in *error when a metric is missing or not finite.
bool ResultLine(const WorkloadResult& result, bool trace, std::string* line, std::string* error);

// One line per measured catalogue metric ("metric <name> <value> <unit>
// samples=<n>"), then the digest and notes.
std::string ReportLines(const RunConfig& config, const WorkloadResult& result);

// Every measured metric, sample counts, digest, notes and host facts as one
// JSON object.
std::string ResultJson(const RunConfig& config, const WorkloadResult& result,
                       const std::string& host_facts);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REPORT_H_
