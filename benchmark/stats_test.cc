// Pins the percentile rule of stats.h: nearest rank ceil(q * n) over the raw
// samples, refusal when fewer than kMinBeyond samples rank above it, and the
// median every repeated measurement is reduced with.
// run.sh runs this before measuring; any failure stops the benchmark.

#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "stats_test FAILED: %s\n", what);
    ++failures;
  }
}

// Samples 1..n in scrambled order.
std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = 0; i < n; ++i) v.push_back(static_cast<double>((i * 7919) % n + 1));
  return v;
}

}  // namespace

int main() {
  using ptpbench::ExactPercentile;
  using ptpbench::NearestRank;

  Check(NearestRank(200, 0.95) == 190, "rank of p95 in 200 is 190");
  Check(NearestRank(1000, 0.99) == 990, "rank of p99 in 1000 is 990");
  Check(NearestRank(21, 0.5) == 11, "rank of p50 in 21 is 11");
  Check(NearestRank(20, 0.5) == 10, "rank of p50 in 20 is the lower middle");
  Check(NearestRank(3, 0.01) == 1, "rank is at least 1");

  // 200 samples: p95 is the 190th smallest with exactly 10 above it.
  auto p95 = ExactPercentile(Ramp(200), 0.95);
  Check(p95.has_value() && *p95 == 190.0, "p95 of 1..200 is 190");
  // One sample fewer leaves 9 above rank 190: refused.
  Check(!ExactPercentile(Ramp(199), 0.95).has_value(),
        "p95 of 199 samples is refused");
  // p99 needs 1000 samples.
  Check(!ExactPercentile(Ramp(999), 0.99).has_value(),
        "p99 of 999 samples is refused");
  auto p99 = ExactPercentile(Ramp(1000), 0.99);
  Check(p99.has_value() && *p99 == 990.0, "p99 of 1..1000 is 990");

  auto p50 = ExactPercentile(Ramp(21), 0.5);
  Check(p50.has_value() && *p50 == 11.0, "median of 1..21 is 11");
  auto p50_even = ExactPercentile(Ramp(20), 0.5);
  Check(p50_even.has_value() && *p50_even == 10.0,
        "median of 1..20 is the lower middle sample");
  Check(!ExactPercentile(Ramp(19), 0.5).has_value(),
        "median of 19 samples has 9 above it and is refused");

  // Ties are samples like any other.
  std::vector<double> ties(30, 5.0);
  ties[29] = 9.0;
  auto tie_p50 = ExactPercentile(ties, 0.5);
  Check(tie_p50.has_value() && *tie_p50 == 5.0, "ties keep their value");

  Check(!ExactPercentile({}, 0.5).has_value(), "empty sample is refused");
  Check(!ExactPercentile(Ramp(100), 0.0).has_value(), "q = 0 is refused");
  Check(!ExactPercentile(Ramp(100), 1.5).has_value(), "q > 1 is refused");
  auto max = ExactPercentile(Ramp(5), 1.0, /*min_beyond=*/0);
  Check(max.has_value() && *max == 5.0, "q = 1 without the rule is the max");

  Check(ptpbench::Median(Ramp(4)) == 2.0,
        "Median of 4 samples is the lower middle one");
  Check(ptpbench::Median(Ramp(3)) == 2.0, "Median of 3 samples");
  Check(ptpbench::Median({}) == 0.0, "Median of no samples is 0");

  if (failures == 0) std::printf("stats_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
