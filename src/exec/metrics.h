#ifndef PTP_EXEC_METRICS_H_
#define PTP_EXEC_METRICS_H_

#include <string>
#include <vector>

#include "common/status.h"

namespace ptp {

/// Per-shuffle accounting: how many tuples crossed the (simulated) network
/// and how evenly producers/consumers were loaded. Skew factor is the
/// paper's definition: max load / average load over workers (1.0 = perfectly
/// balanced).
struct ShuffleMetrics {
  std::string label;
  size_t tuples_sent = 0;
  double producer_skew = 1.0;
  double consumer_skew = 1.0;
  /// Delivery attempts beyond the first (lost-partition recoveries).
  size_t retries = 0;
  /// Duplicate channel deliveries discarded by sequence-tag dedup.
  size_t dups_deduped = 0;
  /// Sideways-information-passing accounting (0/0 when no bloom filter was
  /// pushed into this exchange's producers): tuples tested against the
  /// build-side filter, tuples it proved unable to join and dropped before
  /// any row was placed, and the payload bytes that never shipped. The
  /// conservation invariant is over rows before replication:
  ///   input rows == rows routed + bloom_filtered
  /// checked at the scatter whenever a filter is pushed. tuples_sent equals
  /// the routed rows except where routing replicates: the skew-aware right
  /// side's tuples_sent also counts its heavy-key broadcast replicas.
  size_t bloom_tested = 0;
  size_t bloom_filtered = 0;
  size_t bloom_bytes_saved = 0;

  std::string ToString() const;
};

/// Per-operator timing breakdown (Table 5: sort time vs. join time etc.).
struct StageMetrics {
  std::string label;
  /// Measured wall clock of the stage barrier (elapsed time of the parallel
  /// region that ran the per-worker bodies).
  double wall_seconds = 0;
  /// Total CPU: sum over workers.
  double cpu_seconds = 0;
  /// Tuples this stage produced (across all workers).
  size_t output_tuples = 0;
  /// True when the stage aborted the query (budget exceeded / out of
  /// memory). Set consistently at every thread count: all workers run to
  /// completion, then the failure decision is made in worker index order,
  /// so the stage books the same output count whether or not the engine
  /// executed the workers concurrently.
  bool failed = false;
  /// Re-executions after transient worker faults. A retried-then-succeeded
  /// stage has retries > 0 and failed == false.
  size_t retries = 0;
  /// True when the stage exhausted its retries and the planner fell back to
  /// a more robust operator (HyperCube -> hash shuffle, Tributary ->
  /// symmetric hash join) instead of aborting.
  bool degraded = false;
  /// Peak bytes simultaneously live across the stage's workers (sum of the
  /// per-worker peaks); 0 when no ResourceMeter was active.
  size_t peak_bytes = 0;
};

/// End-to-end metrics of one query execution on the simulated cluster.
///
/// The engine runs the W logical workers of every barrier on the runtime
/// thread pool (see docs/RUNTIME.md) and defines
///   wall clock  = sum over barriers of the measured elapsed time of the
///                 barrier's parallel region (true wall time)
///   total CPU   = sum over workers of their measured in-body time
/// With --threads=1 the pool serializes the workers, so wall approaches
/// CPU; with more threads the gap between wall*threads and CPU shows the
/// achieved overlap, and skew shows up as stragglers inside a barrier.
struct QueryMetrics {
  std::vector<ShuffleMetrics> shuffles;
  std::vector<StageMetrics> stages;

  /// Per-worker accumulated compute seconds (all stages).
  std::vector<double> worker_seconds;
  /// Per-worker seconds spent sorting (Tributary-join sort phase).
  std::vector<double> worker_sort_seconds;
  /// Per-worker seconds spent in join execution proper.
  std::vector<double> worker_join_seconds;

  double wall_seconds = 0;
  /// Virtual exponential-backoff delay booked by retries (already included
  /// in wall_seconds; broken out so recovery cost is visible).
  double backoff_seconds = 0;
  /// Largest total intermediate-result size (tuples) seen at a barrier.
  size_t max_intermediate_tuples = 0;
  size_t output_tuples = 0;
  /// Query-wide high-water mark of accounted bytes (coordinator-held
  /// fragments plus the in-flight stage's worker peaks) and cumulative
  /// bytes charged; both 0 when no ResourceMeter was active. Absorb takes
  /// the max of peaks (residency doesn't add across sequential plans) and
  /// sums charges.
  size_t peak_bytes = 0;
  size_t charged_bytes = 0;

  bool failed = false;
  std::string fail_reason;
  /// Machine-readable failure class for graceful FAILs (kOk when the query
  /// succeeded): kResourceExhausted for budget-driven aborts (the serving
  /// layer maps it to a retry-after response), kUnavailable when a stage
  /// exhausted its fault retries. Ignored when failed == false.
  StatusCode fail_code = StatusCode::kOk;
  /// One entry per plan degradation ("hypercube -> hash shuffle", ...).
  std::vector<std::string> degradations;

  /// Sum of tuples_sent over all shuffles.
  size_t TuplesShuffled() const;
  /// Sum of worker_seconds.
  double TotalCpuSeconds() const;
  /// Max over shuffles of consumer skew.
  double MaxShuffleSkew() const;

  void EnsureWorkers(size_t num_workers);

  /// Accumulates `other` into this (shuffles/stages appended, per-worker
  /// times summed, wall clocks added, failure state propagated).
  void Absorb(const QueryMetrics& other);

  std::string ToString() const;
};

/// Computes max/avg over `loads`, treating an all-zero vector as skew 1.
double SkewFactor(const std::vector<size_t>& loads);

}  // namespace ptp

#endif  // PTP_EXEC_METRICS_H_
