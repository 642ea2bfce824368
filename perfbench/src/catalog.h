// Every number the benchmark prints, by name, with its unit and direction.
//
//   kEndToEnd — what a user of the engine sees. Every workload measures
//               every one of these, and an untraced run (--trace 0) prints
//               exactly this set in its result line; BENCHMARK.json lists
//               them with their regression bounds.
//   kReport   — end-to-end numbers that exist on only some workloads (MIPS
//               and model error of the paper experiment, compile p99s,
//               serving goodput), that are 0 on a healthy run (the failure
//               share), or that moved too much between runs to hold a bound
//               (e2e p90, CPU per operation). Printed in the report lines
//               above the result, never in it.
//   kLayer    — per-layer costs and counts from the traced run (--trace 1),
//               which prints exactly this set. A layer the workload does not
//               exercise reports 0.
#ifndef PERFBENCH_SRC_CATALOG_H_
#define PERFBENCH_SRC_CATALOG_H_

#include <string>
#include <vector>

namespace perfbench {

enum class MetricGroup { kEndToEnd, kReport, kLayer };

struct MetricDef {
  std::string name;
  std::string unit;
  std::string better;  // "lower" or "higher"
  MetricGroup group;
};

const std::vector<MetricDef>& MetricCatalog();

// Names of one group, in catalogue order.
std::vector<std::string> MetricNames(MetricGroup group);

// Null when `name` is not in the catalogue.
const MetricDef* FindMetric(const std::string& name);

// Names are 1-64 characters of [A-Za-z0-9_.-] starting with a letter or a
// digit; units are 1-16 characters of [A-Za-z0-9_/%.-].
bool ValidMetricName(const std::string& name);
bool ValidUnit(const std::string& unit);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_CATALOG_H_
