#ifndef PTP_PLAN_SEMIJOIN_PLAN_H_
#define PTP_PLAN_SEMIJOIN_PLAN_H_

#include "common/status.h"
#include "plan/strategies.h"
#include "query/hypergraph.h"
#include "query/query.h"

namespace ptp {

/// Breakdown of the distributed semijoin reduction (Sec. 3.6 / GYM [4]).
struct SemijoinBreakdown {
  /// Tuples shuffled that belong to projected key tables (the S.B columns).
  size_t projected_tuples_shuffled = 0;
  /// Tuples shuffled that belong to the input tables themselves.
  size_t input_tuples_shuffled = 0;
  /// Dangling tuples removed per atom (input size -> reduced size).
  std::vector<std::pair<size_t, size_t>> reduction_per_atom;
};

/// Runs the three-step distributed Yannakakis plan on an acyclic query:
///   1. bottom-up semijoins along a GYO join tree,
///   2. top-down semijoins,
///   3. final join of the reduced relations (regular shuffle + hash joins).
/// Each distributed semijoin R ⋉ S shuffles both R and the deduplicated
/// projection of S onto the shared attributes (in our setting every relation
/// is distributed — the paper's point about the extra cost).
///
/// The plan is one run named "SEMIJOIN", like one RunStrategy call: one
/// fault-site numbering, one profile section and one meter section cover
/// the reduction and the final join. Its stages ("project keys …",
/// "semijoin … ⋉ …") and exchanges run under the same recovery, watchdog,
/// control polls and per-stage memory booking as the six strategies: an
/// exhausted stage or exchange, a cancel, or a deadline is a graceful FAIL
/// (metrics.failed with fail_code kUnavailable / kCancelled /
/// kDeadlineExceeded), not an error. The final join runs to completion; it
/// never suspends. Returns InvalidArgument for cyclic queries (no full
/// reduction exists).
Result<StrategyResult> RunSemijoinPlan(const ConjunctiveQuery& query,
                                       const NormalizedQuery& normalized,
                                       const StrategyOptions& options,
                                       SemijoinBreakdown* breakdown = nullptr);

}  // namespace ptp

#endif  // PTP_PLAN_SEMIJOIN_PLAN_H_
