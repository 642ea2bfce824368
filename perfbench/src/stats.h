// Pure helpers the benchmark's numbers rest on: exact percentiles with the
// "at least ten samples beyond" rule, and the seeded streams that fix every
// order, mix draw and arrival schedule. No timing, no I/O — unit-tested in
// perfbench/tests/perfbench_test.cc.
#ifndef PERFBENCH_SRC_STATS_H_
#define PERFBENCH_SRC_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// A percentile is reported only when at least this many samples lie beyond
// it; otherwise the tail it claims to describe is a handful of outliers.
inline constexpr size_t kMinSamplesBeyond = 10;

// Samples ranked strictly above the nearest-rank p-th percentile of n
// samples: n - ceil(p/100 * n).
size_t SamplesBeyond(size_t n, double p);

// True when the p-th percentile of n samples has >= kMinSamplesBeyond
// samples beyond it.
bool PercentileReportable(size_t n, double p);

// The highest of {50, 90, 95, 99, 99.9} that PercentileReportable allows for
// n samples, or 0 when not even the median qualifies.
double HighestReportablePercentile(size_t n);

// Nearest-rank percentile (an actual sample, never an interpolation):
// sorted[ceil(p/100 * n) - 1]. 0 for an empty input.
double Percentile(std::vector<double> samples, double p);

struct PercentileValue {
  double value = 0;
  size_t samples = 0;
  size_t beyond = 0;
  bool reportable = false;
};
PercentileValue MeasurePercentile(const std::vector<double>& samples, double p);

// Independent 64-bit seed for stream `stream` of run seed `seed`.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

// Fisher-Yates permutation of [0, n) driven by `seed`.
std::vector<size_t> SeededPermutation(size_t n, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STATS_H_
