// Exact order statistics over raw samples, as every latency the benchmark
// reports is computed. No histogram buckets: a bucketed estimator reads the
// same value for a p50 and a p99 that share a bucket.
#ifndef PTPBENCH_STATS_H_
#define PTPBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace ptpbench {

/// Samples that must lie strictly above a reported percentile. With fewer,
/// the tail is decided by a handful of requests and moves from run to run,
/// so the percentile is refused rather than printed.
inline constexpr size_t kMinBeyond = 10;

/// 1-based nearest rank of quantile `q` in `n` sorted samples: ceil(q * n).
/// Computed in integer parts-per-million so that, e.g., 0.95 * 200 is rank
/// 190 and not 191 through floating-point rounding.
inline size_t NearestRank(size_t n, double q) {
  const uint64_t ppm = static_cast<uint64_t>(std::llround(q * 1e6));
  const uint64_t rank = (ppm * n + 999999) / 1000000;
  return static_cast<size_t>(std::max<uint64_t>(rank, 1));
}

/// Nearest-rank percentile: the sample of 1-based rank ceil(q * n) in sorted
/// order, q in (0, 1]. Returns nullopt for an empty sample, an out-of-range
/// q, or when fewer than `min_beyond` samples rank above it.
inline std::optional<double> ExactPercentile(std::vector<double> samples,
                                             double q,
                                             size_t min_beyond = kMinBeyond) {
  const size_t n = samples.size();
  if (n == 0 || !(q > 0.0) || q > 1.0) return std::nullopt;
  const size_t rank = NearestRank(n, q);
  if (n - rank < min_beyond) return std::nullopt;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

/// The one median rule of the benchmark, for reported metrics and repeated
/// measurements alike: the nearest-rank p50 (the lower middle sample for an
/// even count), with no minimum sample count; 0 for no samples.
inline double Median(const std::vector<double>& samples) {
  return ExactPercentile(samples, 0.5, /*min_beyond=*/0).value_or(0.0);
}

}  // namespace ptpbench

#endif  // PTPBENCH_STATS_H_
