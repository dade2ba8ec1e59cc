#ifndef PTP_SERVER_PLAN_CACHE_H_
#define PTP_SERVER_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/feedback.h"
#include "plan/advisor.h"
#include "query/query.h"
#include "storage/catalog.h"

namespace ptp {

/// The feedback-independent half of a prepared plan: the normalized query
/// and every planning decision that depends on its data alone. Shared by
/// all executions of a cache entry (and by in-flight executions of an
/// evicted one) and immutable once built — except the Tributary-join
/// variable order, which PlanCache::VarOrder optimizes on first use, at
/// most once, because only broadcast/HyperCube Tributary runs need it.
class PreparedPlan {
 public:
  /// Runs the advisor's relation scans (BlindAdvice) for `workers`.
  PreparedPlan(NormalizedQuery normalized, int workers);

  PreparedPlan(const PreparedPlan&) = delete;
  PreparedPlan& operator=(const PreparedPlan&) = delete;

  const NormalizedQuery& normalized() const { return normalized_; }
  /// Blind estimates plus the greedy left-deep order and its sizes.
  const BlindEstimates& blind() const { return blind_; }

 private:
  friend class PlanCache;  // fills the variable order (PlanCache::VarOrder)

  const NormalizedQuery normalized_;
  const BlindEstimates blind_;
  mutable std::once_flag var_order_once_;
  mutable std::vector<std::string> var_order_;
};

/// Prepared-plan cache of the serving layer: parse + normalize + plan once
/// per distinct (normalized query text, cluster size), execute many.
///
/// The key is (NormalizeQueryText(text), workers, catalog), so
/// whitespace/case/atom-order respellings of a query share one entry. The
/// catalog is part of the key because preparation binds relation data into
/// the normalized plan: reusing an entry across catalogs would execute the
/// wrong data and misclassify the query's appetite.
///
/// An entry holds one shared PreparedPlan (normalization, the advisor's
/// blind estimates with the greedy join order, and the lazily optimized
/// Tributary-join variable order) and the current advice. A hit scans its
/// text once, for the key, and returns the entry without interning,
/// validating, normalizing or touching any relation: no advisor scan, and
/// no order optimization once the entry's first Tributary run computed
/// one. stats() makes that observable (tests assert parses,
/// blind_advisories and order_optimizations stay at the number of
/// distinct queries while hits grow).
///
/// Entries fold execution feedback back in via Refresh(): the caller
/// applies the measured QueryFeedback to the entry's blind estimates
/// (ApplyFeedback — arithmetic only, no relation scan), so the second
/// execution of a hot query runs the strategy its first execution proved
/// out, and the admission controller sees the measured peak instead of the
/// estimate. Entries are bounded by an LRU cap (`max_entries`, default
/// generous): every hit/refresh moves its entry to most-recently-used, and
/// an insert past the cap evicts the least recently used entry — ad-hoc
/// query text can no longer grow the cache without bound. An evicted query
/// is simply re-prepared on its next submission; stats().evictions makes
/// the churn observable.
class PlanCache {
 public:
  static constexpr size_t kDefaultMaxEntries = 1024;

  explicit PlanCache(size_t max_entries = kDefaultMaxEntries)
      : max_entries_(max_entries == 0 ? 1 : max_entries) {}

  struct Entry {
    /// Cache key: NormalizeQueryText of the submitted text, plus the
    /// cluster size and the catalog the plan was prepared against.
    std::string key;
    int workers = 0;
    const Catalog* catalog = nullptr;
    /// Shared, immutable after preparation: concurrent executions of the
    /// same entry read one normalization, one set of blind estimates and
    /// one variable order.
    std::shared_ptr<const PreparedPlan> prepared;
    /// ApplyFeedback(prepared->blind(), the latest measured feedback).
    StrategyAdvice advice;
    /// Admission-control peak estimate: the advisor's byte guess until a
    /// run measured the real peak (then `measured` flips).
    uint64_t est_peak_bytes = 0;
    bool measured = false;
    /// Measured wall-clock of the entry's last successful execution, for
    /// the admission controller's retry_after hint (0 until measured).
    double est_exec_seconds = 0;
    size_t executions = 0;
  };

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    /// Misses that prepared successfully: each built its query from the
    /// text, validated, normalized and advised it. A hit only renders the
    /// text's key.
    uint64_t parses = 0;
    /// Advisor relation scans (BlindAdvice), one per prepared entry:
    /// neither a hit nor a feedback refresh re-scans the data.
    uint64_t blind_advisories = 0;
    /// Tributary-join variable-order optimizations, at most one per
    /// prepared entry (its first broadcast/HyperCube Tributary dispatch).
    uint64_t order_optimizations = 0;
    /// Feedback-driven advice refreshes.
    uint64_t refreshes = 0;
    /// Entries dropped by the LRU cap (each costs a re-parse on return).
    uint64_t evictions = 0;
  };

  /// The entry for (text, workers), preparing it on miss: parse against
  /// `catalog` (its dictionary interns new string literals), validate,
  /// normalize, scan for the blind estimates, and apply `feedback` when
  /// non-null. Returns a copy of the entry (the PreparedPlan is shared, not
  /// copied).
  /// Serialized internally — concurrent submitters race on neither the
  /// cache nor the catalog dictionary. `*was_hit` (optional) reports
  /// whether the entry came from the cache.
  Result<Entry> Prepare(std::string_view text, int workers, Catalog* catalog,
                        const FeedbackStore* feedback,
                        bool* was_hit = nullptr);

  /// Folds a measured run into the entry for (key, workers, catalog): new
  /// advice (ApplyFeedback over the entry's blind estimates), measured
  /// peak bytes, measured runtime, execution count.
  /// Zero-valued measurements leave the previous value alone (a FAILed run
  /// teaches the advisor but not the admission controller). Missing entries
  /// are ignored (the cache never resurrects evicted state).
  void Refresh(std::string_view key, int workers, const Catalog* catalog,
               const StrategyAdvice& advice, uint64_t measured_peak_bytes,
               double measured_exec_seconds = 0);

  /// Snapshot of the entry for (key, workers, catalog); false when absent.
  bool Lookup(std::string_view key, int workers, const Catalog* catalog,
              Entry* out) const;

  /// `plan`'s Sec. 5 cost-model variable order (OptimizeVariableOrder).
  /// The first call computes it on the caller's thread, outside the cache
  /// lock, and counts it in stats().order_optimizations; concurrent first
  /// callers wait for that result instead of recomputing it.
  const std::vector<std::string>& VarOrder(const PreparedPlan& plan);

  Stats stats() const;
  size_t size() const;

 private:
  /// Entries kept in LRU order: front = least recently used, back = most.
  /// Requires mu_; the caller passes the index of the entry just touched.
  void TouchLocked(size_t index);

  mutable std::mutex mu_;
  const size_t max_entries_;
  std::vector<Entry> entries_;
  Stats stats_;
  /// Kept outside stats_: VarOrder runs without mu_.
  std::atomic<uint64_t> order_optimizations_{0};
};

/// Deterministic byte estimate of a strategy run's peak residency, derived
/// from the advisor's tuple estimates: materialized inputs plus the chosen
/// shuffle family's volume plus the worst intermediate, at the query's row
/// width. Coarse by design — admission control needs a stable ordering of
/// queries by appetite, not accuracy; Refresh() replaces it with the
/// measured peak after the first execution.
uint64_t EstimatePeakBytes(const NormalizedQuery& query,
                           const StrategyAdvice& advice);

}  // namespace ptp

#endif  // PTP_SERVER_PLAN_CACHE_H_
