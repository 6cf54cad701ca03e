// Unit test for the benchmark's percentile helper. Run it with
// `ctest --test-dir .bench_build/cmake` or directly; run.py also runs it
// before every benchmark run.
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <vector>

#include "cpp/stats.h"

namespace mvtee::perfbench {
namespace {

int failures = 0;

void Expect(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

std::vector<double> OneTo(int n) {
  std::vector<double> v(static_cast<size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

void TestRefusesThinTails() {
  // The old "p99 of 48 samples" was their maximum: refused now.
  Expect(!Percentile(OneTo(48), 0.99).has_value(), "p99 of 48 refused");
  Expect(!Percentile(OneTo(999), 0.99).has_value(), "p99 of 999 refused");
  Expect(!Percentile({}, 0.5).has_value(), "empty refused");
  Expect(!Percentile(OneTo(19), 0.5).has_value(), "p50 of 19 refused");
  Expect(!Percentile(OneTo(100), 0.0).has_value(), "q=0 refused");
  Expect(!Percentile(OneTo(100), 1.0).has_value(), "max refused");
}

void TestNearestRankWithCounts() {
  auto p99 = Percentile(OneTo(1000), 0.99);
  Expect(p99.has_value(), "p99 of 1000 defined");
  if (p99) {
    Expect(p99->value == 990.0, "p99 of 1..1000 is 990");
    Expect(p99->samples == 1000, "p99 sample count");
    Expect(p99->beyond == 10, "p99 tail count");
  }
  auto p50 = Percentile(OneTo(20), 0.5);
  Expect(p50.has_value() && p50->value == 10.0 && p50->beyond == 10,
         "p50 of 1..20 is 10 with 10 beyond");
  // Order of the input does not matter.
  std::vector<double> shuffled = {5, 3, 9, 1, 7, 2, 8, 4, 6, 10,
                                  15, 13, 19, 11, 17, 12, 18, 14, 16, 20};
  auto s = Percentile(shuffled, 0.5);
  Expect(s.has_value() && s->value == 10.0, "p50 of shuffled 1..20");
  auto loose = Percentile(OneTo(10), 0.9, /*min_beyond=*/1);
  Expect(loose.has_value() && loose->value == 9.0, "custom min_beyond");
}

void TestSamplesNeeded() {
  Expect(SamplesNeeded(0.99) == 1000, "p99 needs 1000 samples");
  Expect(SamplesNeeded(0.95) == 200, "p95 needs 200 samples");
  Expect(SamplesNeeded(0.5) == 20, "p50 needs 20 samples");
}

void TestMedian() {
  Expect(Median({3, 1, 2}) == 2.0, "odd median");
  Expect(Median({4, 1, 3, 2}) == 2.5, "even median");
}

}  // namespace
}  // namespace mvtee::perfbench

int main() {
  using namespace mvtee::perfbench;
  TestRefusesThinTails();
  TestNearestRankWithCounts();
  TestSamplesNeeded();
  TestMedian();
  if (failures == 0) std::printf("perfbench_stats_test: all passed\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
