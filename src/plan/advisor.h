#ifndef PTP_PLAN_ADVISOR_H_
#define PTP_PLAN_ADVISOR_H_

#include <string>
#include <vector>

#include "obs/feedback.h"
#include "plan/strategies.h"
#include "query/query.h"

namespace ptp {

/// Communication-cost estimates behind a strategy recommendation.
struct StrategyAdvice {
  ShuffleKind shuffle = ShuffleKind::kHypercube;
  JoinKind join = JoinKind::kTributary;

  /// Estimated tuples moved by each shuffle family.
  double est_rs_tuples = 0;  // inputs + every estimated intermediate
  double est_br_tuples = 0;  // (total - largest) * W
  double est_hc_tuples = 0;  // sum of inputs * replication factors
  /// Estimated max intermediate of the left-deep plan.
  double est_max_intermediate = 0;
  /// Heavy-hitter proxy for the first regular-shuffle round: the largest
  /// single-value frequency on a join column divided by the average
  /// per-worker load (> 1 means one worker gets more than its share).
  double est_rs_skew = 1.0;

  /// Algorithm-1 share configuration behind est_hc_tuples — what a
  /// HyperCube run following this advice should use.
  ConfigChoice hc_config;

  /// Estimated fraction of the first regular-shuffle round's probe side a
  /// build-side bloom filter would drop at the producer (0 = useless,
  /// 1 = everything doomed). Computed from exact key-membership of the
  /// probe side against the predicate-filtered first atom; replaced by the
  /// measured filtered/tested ratio when feedback from a bloom-enabled run
  /// is available.
  double est_bloom_reduction = 0;
  /// True when est_bloom_reduction clears the worth-it threshold — the
  /// --bloom=auto decision (StrategyOptions::bloom).
  bool use_bloom = false;

  /// True when measured feedback replaced at least one estimate above.
  bool used_feedback = false;
  /// Worst q-error of the blind estimates against the measurements the
  /// feedback provided, and the same after the substitution (1.0 by
  /// construction for every replaced quantity). Both 1.0 when no feedback
  /// was supplied or nothing in it was measurable.
  double blind_max_qerror = 1.0;
  double feedback_max_qerror = 1.0;

  std::string rationale;
};

/// Everything the advisor derives from the data alone — the result of every
/// relation scan it makes. Depends only on (query, cluster size), so a
/// prepared plan computes it once and re-applies feedback to it as often as
/// measurements arrive (ApplyFeedback), without touching the relations.
struct BlindEstimates {
  /// The blind estimates (est_* fields and hc_config). The decision fields
  /// (shuffle, join, use_bloom, rationale) are left at their defaults;
  /// ApplyFeedback fills them.
  StrategyAdvice advice;
  /// Sum of the input cardinalities (the Table 6 thresholds scale by it).
  double total_input = 0;
  /// Greedy left-deep join order and the estimated size after each prefix
  /// of it (EstimateLeftDeepSizes) — the plan the regular shuffle runs when
  /// no explicit order is given.
  std::vector<int> order;
  std::vector<double> sizes;
};

/// The relation scans behind a strategy recommendation: the greedy
/// left-deep order and its size estimates, the exact first-join size, the
/// Algorithm-1 share configuration, the bloom-filter reduction, and the
/// heavy-hitter skew proxy.
BlindEstimates BlindAdvice(const NormalizedQuery& query, int num_workers);

/// Implements the decision logic the paper's Table 6 summary distills:
///  * small intermediates + low skew  -> regular shuffle (TJ when the
///    per-round sorted data stays below the inputs, else HJ);
///  * large intermediates             -> single-round plans with the
///    Tributary join; HyperCube when its replication beats broadcast,
///    broadcast otherwise (the Q4 regime: high-dimensional cubes);
///  * HyperCube degenerates to broadcast-the-small-relation automatically
///    via its share configuration (the Q7 regime), so "HC" covers it.
/// Pure arithmetic over `blind` — no relation is read.
///
/// When `feedback` (a prior measured run of the same query at the same
/// cluster size, loaded from a feedback store) is supplied, measured values
/// replace the corresponding guesses before the decision: each family's
/// tuples_shuffled, the max intermediate from recorded stage outputs, and
/// the measured consumer skew of the regular-shuffle exchanges. A family
/// whose every recorded run failed is never picked.
StrategyAdvice ApplyFeedback(const BlindEstimates& blind,
                             const QueryFeedback* feedback = nullptr);

/// ApplyFeedback(BlindAdvice(query, num_workers), feedback). Pure
/// estimation — nothing is executed.
StrategyAdvice AdviseStrategy(const NormalizedQuery& query, int num_workers,
                              const QueryFeedback* feedback = nullptr);

/// Distills one executed strategy into the estimate-vs-actual record the
/// feedback store keeps: one stage op per booked stage (non-final joins
/// carry the planner's left-deep estimate at the same point), one exchange
/// op per shuffle with measured volume and consumer skew. When `blind` (the
/// query's BlindAdvice) is given and the run executed its left-deep order,
/// the recorded sizes are reused instead of re-estimated; the record is the
/// same either way.
StrategyFeedback CollectStrategyFeedback(const NormalizedQuery& query,
                                         const std::string& strategy_name,
                                         const StrategyResult& result,
                                         const BlindEstimates* blind = nullptr);

}  // namespace ptp

#endif  // PTP_PLAN_ADVISOR_H_
