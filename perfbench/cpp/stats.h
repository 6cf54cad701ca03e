// Percentiles for the serving benchmark.
//
// A percentile is only as good as the samples beyond it: the p99 of 48
// samples is their maximum. Percentile() uses the nearest-rank
// definition and refuses any percentile with fewer than `min_beyond`
// samples strictly above its rank, so a reported tail always rests on
// at least ten observations. Every result carries its sample count and
// its tail count so the report can print both.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace mvtee::perfbench {

struct PercentileValue {
  double value = 0.0;
  size_t samples = 0;  // observations the percentile was taken over
  size_t beyond = 0;   // observations ranked strictly above it
};

// Nearest-rank percentile `q` in (0, 1] of `samples`: the value at
// 0-based rank ceil(q * n) - 1 of the sorted samples. Returns nullopt
// when fewer than `min_beyond` samples rank above it (including when
// `samples` is empty).
std::optional<PercentileValue> Percentile(std::vector<double> samples,
                                          double q, size_t min_beyond = 10);

// Smallest sample count for which Percentile(q) is defined.
size_t SamplesNeeded(double q, size_t min_beyond = 10);

double Median(std::vector<double> values);

}  // namespace mvtee::perfbench
