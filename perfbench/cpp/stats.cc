#include "cpp/stats.h"

#include <algorithm>
#include <cmath>

namespace mvtee::perfbench {
namespace {

// 0-based nearest rank; clamped so q close to 0 still names a sample.
// The epsilon keeps q * n from rounding up past an exact rank
// (0.99 * 1000 must name rank 990, not 991).
size_t RankIndex(double q, size_t n) {
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  return rank < 1.0 ? 0 : std::min(n, static_cast<size_t>(rank)) - 1;
}

}  // namespace

std::optional<PercentileValue> Percentile(std::vector<double> samples,
                                          double q, size_t min_beyond) {
  const size_t n = samples.size();
  if (n == 0 || q <= 0.0 || q > 1.0) return std::nullopt;
  const size_t idx = RankIndex(q, n);
  const size_t beyond = n - 1 - idx;
  if (beyond < min_beyond) return std::nullopt;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(idx),
                   samples.end());
  return PercentileValue{samples[idx], n, beyond};
}

size_t SamplesNeeded(double q, size_t min_beyond) {
  size_t n = min_beyond + 1;
  while (n - 1 - RankIndex(q, n) < min_beyond) ++n;
  return n;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace mvtee::perfbench
