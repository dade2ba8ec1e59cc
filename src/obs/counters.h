#ifndef PTP_OBS_COUNTERS_H_
#define PTP_OBS_COUNTERS_H_

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "runtime/thread_pool.h"

namespace ptp {

/// Power-of-two bucketed histogram of non-negative integer samples (per-
/// channel shuffle loads, per-join output sizes). Bucket i holds samples
/// whose bit width is i, i.e. [2^(i-1), 2^i); bucket 0 holds zeros.
class Histogram {
 public:
  void Record(uint64_t value);

  /// Adds all of `other`'s samples to this histogram (shard merging).
  void Merge(const Histogram& other);
  /// Forgets all samples.
  void Reset() { *this = Histogram(); }

  size_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  double Mean() const;
  const std::array<uint64_t, 65>& buckets() const { return buckets_; }

  /// Quantile estimate from the pow2 buckets (0 <= q <= 1, clamped).
  /// Deterministic and pinned (tests/obs_test.cc): the continuous rank
  /// q * (count - 1) is located by cumulative bucket counts; within bucket
  /// i the n samples are assumed evenly spaced over [2^(i-1), 2^i), so the
  /// estimate is lo + (hi - lo) * offset / n; bucket 0 estimates 0. The
  /// result is clamped to the exact [min, max] the histogram tracked, so a
  /// single-sample histogram returns that sample for every q. Returns 0
  /// when empty. Worst-case relative error is one bucket width (2x).
  double Quantile(double q) const;

  /// "count=8 sum=120 min=3 max=40 mean=15.0"
  std::string ToString() const;

 private:
  std::array<uint64_t, 65> buckets_{};
  size_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = ~uint64_t{0};
  uint64_t max_ = 0;
};

/// Registry of named monotonic counters and histograms. Counter names are
/// dotted lowercase paths, optionally suffixed with a dimension:
/// "shuffle.tuples_sent", "tj.seeks.x" (see docs/OBSERVABILITY.md).
///
/// Hot paths consult ActiveCounterRegistry() (single nullptr branch when
/// disabled) and publish aggregated deltas — per shuffle, per join — rather
/// than incrementing per tuple, so the name lookup never sits inside a
/// per-tuple loop.
///
/// Thread safety: writes are sharded per runtime pool thread. A pool worker
/// (runtime::CurrentThreadIndex() >= 0) writes its own shard without
/// locking; any other thread writes the base maps under a mutex. Reads
/// (Value, snapshots, serialization) fold the shards into the base maps
/// ("merge on read") and must not overlap a running parallel region — in
/// the engine they happen on the coordinator after ParallelFor returned,
/// which establishes the necessary happens-before edge. Counter values are
/// plain sums, so the merged totals are independent of the thread count.
class CounterRegistry {
 public:
  /// Find-or-create; the returned pointer stays valid for the registry's
  /// lifetime and addresses the *calling thread's* shard (or the base map
  /// for non-pool threads), so repeat publishers can cache it on the
  /// thread they obtained it from.
  uint64_t* Counter(std::string_view name);
  /// Adds `delta` to the named counter (counters only ever increase).
  void Add(std::string_view name, uint64_t delta);
  /// Current merged value, 0 when the counter does not exist.
  uint64_t Value(std::string_view name) const;

  /// Same sharding rules as Counter(): the histogram belongs to the
  /// calling thread's shard and is folded into the merged view on read.
  Histogram* Hist(std::string_view name);

  /// Counters in name order.
  std::vector<std::pair<std::string, uint64_t>> CounterSnapshot() const;
  /// Counters whose name starts with `prefix`, in name order.
  std::vector<std::pair<std::string, uint64_t>> CountersWithPrefix(
      std::string_view prefix) const;

  /// One "name = value" line per counter, then histogram summaries.
  std::string ToString() const;
  /// {"counters":{...},"histograms":{...}} — an object, embeddable in a
  /// larger JSON document.
  void WriteJson(std::ostream& os) const;

  void Clear();

 private:
  struct Shard {
    std::map<std::string, uint64_t, std::less<>> counters;
    std::map<std::string, Histogram, std::less<>> hists;
  };

  /// Folds every shard into the base maps. Values are drained in place
  /// (counters zeroed, histograms reset) so cached Counter()/Hist()
  /// pointers stay valid and keep accumulating fresh deltas.
  void MergeShardsLocked() const;

  mutable std::mutex mu_;  // guards the base maps and shard merging
  mutable std::map<std::string, uint64_t, std::less<>> counters_;
  mutable std::map<std::string, Histogram, std::less<>> hists_;
  mutable std::array<Shard, runtime::kMaxThreads> shards_;
};

/// Replaces the calling thread's publish target (nullptr disables
/// collection) and returns the previous registry. Install sinks with
/// runtime::ScopedQueryContext; this exchange stays for benchmark/ptpbench.cc.
CounterRegistry* SetActiveCounterRegistry(CounterRegistry* registry);
/// The collecting registry, or nullptr when collection is off.
inline CounterRegistry* ActiveCounterRegistry() {
  return runtime::CurrentQueryContext().counters;
}

}  // namespace ptp

#endif  // PTP_OBS_COUNTERS_H_
