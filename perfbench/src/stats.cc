#include "perfbench/src/stats.h"

#include <algorithm>
#include <cmath>

#include "src/support/rng.h"

namespace perfbench {

namespace {

size_t NearestRank(size_t n, double p) {
  // The epsilon keeps binary rounding (99.9% of 10000 = 9990.000000000002)
  // from pushing an exact rank up by one.
  double rank = std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9);
  return static_cast<size_t>(std::clamp(rank, 1.0, static_cast<double>(n)));
}

}  // namespace

size_t SamplesBeyond(size_t n, double p) { return n == 0 ? 0 : n - NearestRank(n, p); }

bool PercentileReportable(size_t n, double p) { return SamplesBeyond(n, p) >= kMinSamplesBeyond; }

double HighestReportablePercentile(size_t n) {
  double best = 0;
  for (double p : {50.0, 90.0, 95.0, 99.0, 99.9}) {
    if (PercentileReportable(n, p)) {
      best = p;
    }
  }
  return best;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0;
  }
  size_t k = NearestRank(samples.size(), p) - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(k),
                   samples.end());
  return samples[k];
}

PercentileValue MeasurePercentile(const std::vector<double>& samples, double p) {
  PercentileValue v;
  v.samples = samples.size();
  v.beyond = SamplesBeyond(samples.size(), p);
  v.reportable = PercentileReportable(samples.size(), p);
  v.value = Percentile(samples, p);
  return v;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  nsf::SplitMix64 mix(seed ^ (stream * 0xd1b54a32d192ed03ull));
  mix.Next();
  return mix.Next();
}

std::vector<size_t> SeededPermutation(size_t n, uint64_t seed) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; i++) {
    order[i] = i;
  }
  nsf::Rng rng(seed);
  for (size_t i = n; i > 1; i--) {
    std::swap(order[i - 1], order[rng.NextBelow(i)]);
  }
  return order;
}

}  // namespace perfbench
