#ifndef PTP_PLAN_STRATEGIES_H_
#define PTP_PLAN_STRATEGIES_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/cluster.h"
#include "exec/metrics.h"
#include "exec/recovery.h"
#include "fault/fault.h"
#include "hypercube/optimizer.h"
#include "query/query.h"

namespace ptp {

/// The three shuffle algorithms compared in Sec. 3.
enum class ShuffleKind {
  kRegular,    // per-join hash repartitioning (RS)
  kBroadcast,  // largest relation stays, others broadcast (BR)
  kHypercube,  // single-round HyperCube shuffle (HC)
};

/// The two local join algorithms compared in Sec. 3.
enum class JoinKind {
  kHashJoin,   // (left-deep tree of) hash joins (HJ)
  kTributary,  // Tributary join (TJ)
};

/// "RS_HJ", "HC_TJ", ...
const char* StrategyName(ShuffleKind shuffle, JoinKind join);

struct StrategyOptions {
  int num_workers = 16;
  uint64_t salt = 0x9e1f;

  /// FAIL the plan once any intermediate result (total across workers for
  /// shuffled rounds; per worker for local pipelines) exceeds this many
  /// tuples — models the paper's out-of-memory failures.
  size_t intermediate_budget = 20'000'000;

  /// Stricter budget for *intermediate* relations a Tributary join must
  /// sort: sorting requires the whole input materialized in memory, whereas
  /// the pipelined hash join streams it (this asymmetry is why RS_TJ FAILs
  /// on Q4/Q5 in the paper while RS_HJ completes). Base relations are
  /// exempt. 0 means intermediate_budget / 4.
  size_t sort_budget = 0;

  /// Explicit left-deep join order (indices into query atoms); empty =
  /// greedy optimizer.
  std::vector<int> join_order;

  /// Explicit Tributary-join variable order; empty = Sec. 5 cost-model
  /// optimizer.
  std::vector<std::string> var_order;

  /// Algorithm 1 options for the HyperCube configuration.
  OptimizerOptions hc_options;

  /// If true, use the naive round-down share configuration instead of
  /// Algorithm 1 (ablation).
  bool hc_round_down = false;

  /// Regular-shuffle rounds detect heavy hitters and treat them specially
  /// (paper footnote 2): heavy keys on the left side spread round-robin,
  /// matching right tuples broadcast. Costs extra replication, bounds skew.
  bool rs_skew_aware = false;
  /// A key is heavy when its left-side frequency exceeds this multiple of
  /// the average per-worker load.
  double skew_threshold = 2.0;

  /// Sideways information passing for regular-shuffle rounds: before the
  /// probe side (relation k+1) of each binary join is shuffled, build a
  /// split-block bloom filter over the accumulated side's join keys
  /// (exec/bloom.h) and drop probe tuples the filter proves unable to join
  /// at the producer, before they are copied anywhere. Pure
  /// network/CPU optimization — outputs are bit-identical on/off (the
  /// filter has no false negatives, and false positives merely ship and
  /// get dropped by the join as before).
  bool bloom = false;

  /// Stage-level retry/degradation policy (only observable when a fault
  /// injector is active or an invariant check trips; see docs/ROBUSTNESS.md).
  RecoveryOptions recovery;
};

/// Barrier checkpoint of a suspended regular-shuffle run: everything needed
/// to resume the query later with output bit-identical to an uninterrupted
/// run. Captured by RunStrategy when the active QueryLifecycle consumes a
/// suspend request at a round barrier (regular shuffle only — the single-
/// round families run to completion instead); consumed by ResumeStrategy.
///
/// The base relations are NOT captured: the resumed run recomputes their
/// round-robin placement deterministically from the query, so a checkpoint
/// holds only the accumulated fragments plus coordinator state (round
/// index, pending predicates, memory account, partial metrics with the
/// virtual clock, and the fault-injector site cursor).
struct QueryCheckpoint {
  /// StrategyName of the suspended run ("RS_HJ"/"RS_TJ") for validation.
  std::string strategy;
  /// Join-order index of the next round to execute.
  size_t next_step = 1;
  /// Join order in use (resume must not re-run the order optimizer — the
  /// advisor could have learned something in between).
  std::vector<int> order;
  /// Accumulated fragments at the barrier (the previous round's output).
  DistributedRelation acc;
  /// Predicates not yet applied.
  std::vector<Predicate> pending;
  /// Meter bytes charged for `acc` (the query's own meter section stays
  /// open across a suspension; only the server-level pool reservation is
  /// released).
  uint64_t carried_bytes = 0;
  /// Partial account so far, including the virtual clock and booked stages.
  QueryMetrics metrics;
  /// Fault-site numbering at capture, restored on resume so remaining
  /// sites get the ordinals an uninterrupted run would assign.
  FaultInjector::SiteCursor fault_cursor;
};

/// Outcome of executing one (shuffle, join) configuration.
struct StrategyResult {
  /// Final result, gathered and projected to the head variables (set
  /// semantics when the head projects). Empty when metrics.failed.
  Relation output;
  QueryMetrics metrics;

  /// Populated for HyperCube runs.
  HypercubeConfig hc_config;
  /// TJ variable order actually used (TJ runs).
  std::vector<std::string> var_order_used;
  /// Left-deep join order actually used (HJ runs and RS rounds).
  std::vector<int> join_order_used;

  /// Non-null when the run suspended at a round barrier instead of
  /// completing: output/metrics are partial and the query must be finished
  /// with ResumeStrategy. Null for every completed run (including FAILs).
  std::shared_ptr<QueryCheckpoint> checkpoint;
};

/// Executes `query` on the simulated cluster with the given shuffle/join
/// configuration. Budget exhaustion is reported as success with
/// metrics.failed = true (a FAIL data point, as in Figure 9); a non-OK
/// Status indicates an invalid query/plan instead.
///
/// Under an active fault injector (fault/fault.h) every stage barrier and
/// shuffle exchange runs inside the recovery loop of options.recovery:
/// transient faults are replayed from the barrier's immutable inputs with
/// virtual exponential backoff; after max_retries the plan degrades
/// (HyperCube -> hash shuffle, Tributary -> symmetric hash join) or, when
/// no cheaper plan exists, FAILs gracefully with metrics.failed = true.
/// Recovery is deterministic: same fault schedule => same retry sequence
/// => bit-identical output at any thread count.
/// With an active QueryLifecycle (exec/lifecycle.h) the run additionally
/// polls for cancellation/deadlines before every recovery attempt, after
/// every exchange step and stage barrier, and at round barriers — the same
/// points with or without a ResourceMeter. A trip produces a graceful FAIL
/// with metrics.fail_code kCancelled/kDeadlineExceeded — and honors suspend
/// requests at regular-shuffle round barriers by returning a partial result
/// carrying a QueryCheckpoint (see ResumeStrategy).
Result<StrategyResult> RunStrategy(const NormalizedQuery& query,
                                   ShuffleKind shuffle, JoinKind join,
                                   const StrategyOptions& options);

/// Resumes a run suspended at a round barrier. `query`, `shuffle`, `join`,
/// and `options` must be the ones the suspended run was started with
/// (shuffle must be kRegular — the only family with barrier suspension
/// points). The resumed run continues the checkpoint's metrics and memory
/// account and may itself suspend again; once it completes, its output,
/// counters, and memory peaks are bit-identical to an uninterrupted run at
/// any thread count.
Result<StrategyResult> ResumeStrategy(const NormalizedQuery& query,
                                      ShuffleKind shuffle, JoinKind join,
                                      const StrategyOptions& options,
                                      const QueryCheckpoint& checkpoint);

/// Runs all six configurations (RS/BR/HC x HJ/TJ) and returns the results
/// in the paper's column order: RS_HJ, RS_TJ, BR_HJ, BR_TJ, HC_HJ, HC_TJ.
/// A non-OK Status (invalid query/plan) from any strategy is propagated —
/// FAIL data points are still successes with metrics.failed set.
Result<std::vector<StrategyResult>> RunAllStrategies(
    const NormalizedQuery& query, const StrategyOptions& options);

/// Order of the six configurations as reported in the figures.
std::vector<std::pair<ShuffleKind, JoinKind>> AllStrategies();

}  // namespace ptp

#endif  // PTP_PLAN_STRATEGIES_H_
