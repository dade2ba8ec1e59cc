#include "plan/advisor.h"

#include <algorithm>
#include <cstdlib>

#include "common/hash.h"
#include "common/str_util.h"
#include "exec/join_hash_table.h"
#include "exec/local_ops.h"
#include "hypercube/optimizer.h"
#include "lp/shares_lp.h"
#include "query/planner.h"

namespace ptp {
namespace {

// Exact size of the binary join of `a` and `b` on all shared variables:
// sum over shared keys of freq_a * freq_b. O(|a| + |b|) with hash maps —
// cheap enough for the advisor and immune to the independence-assumption
// underestimation that plagues skewed graphs (Ioannidis/Christodoulakis).
double ExactFirstJoinSize(const NormalizedAtom& a, const NormalizedAtom& b) {
  std::vector<size_t> cols_a, cols_b;
  for (size_t i = 0; i < a.variables.size(); ++i) {
    for (size_t j = 0; j < b.variables.size(); ++j) {
      if (a.variables[i] == b.variables[j]) {
        cols_a.push_back(i);
        cols_b.push_back(j);
      }
    }
  }
  if (cols_a.empty()) {
    return static_cast<double>(a.relation.NumTuples()) *
           static_cast<double>(b.relation.NumTuples());
  }
  // Count by 64-bit key hash on a flat table instead of std::map<Tuple, _>:
  // no per-row Tuple allocation, no tree rebalancing. The estimate is a
  // double anyway, so the astronomically unlikely hash collision would only
  // nudge the estimate, never correctness.
  auto freq = [](const Relation& rel, const std::vector<size_t>& cols) {
    FlatCounter counts;
    counts.Reserve(rel.NumTuples());
    for (size_t row = 0; row < rel.NumTuples(); ++row) {
      uint64_t h = 0;
      for (size_t c : cols) {
        h = HashCombine(h, HashWithSalt(rel.At(row, c), /*salt=*/0));
      }
      counts.Add(h, 1);
    }
    return counts;
  };
  const FlatCounter fa = freq(a.relation, cols_a);
  const FlatCounter fb = freq(b.relation, cols_b);
  double total = 0;
  for (size_t e = 0; e < fa.size(); ++e) {
    const uint64_t other = fb.Count(fa.keys()[e]);
    if (other != 0) {
      total += static_cast<double>(fa.counts()[e]) *
               static_cast<double>(other);
    }
  }
  return total;
}

// Fraction of the second atom's tuples whose join-key value never occurs on
// the first atom after the predicates decidable there are applied — an
// exact stand-in for what a build-side bloom filter would drop at the first
// regular-shuffle round's producers (minus false positives). Applying the
// predicates first matters: a constant bound on the first atom (Q3's
// ObjectName constants) is precisely what makes the filter selective.
double EstimateBloomReduction(const NormalizedQuery& q,
                              const std::vector<int>& order) {
  if (order.size() < 2) return 0.0;
  const NormalizedAtom& a = q.atoms[static_cast<size_t>(order[0])];
  const NormalizedAtom& b = q.atoms[static_cast<size_t>(order[1])];
  std::vector<size_t> cols_a, cols_b;
  for (size_t i = 0; i < a.variables.size(); ++i) {
    for (size_t j = 0; j < b.variables.size(); ++j) {
      if (a.variables[i] == b.variables[j]) {
        cols_a.push_back(i);
        cols_b.push_back(j);
      }
    }
  }
  if (cols_a.empty()) return 0.0;

  std::vector<Predicate> applicable, rest;
  SplitApplicablePredicates(q.predicates, a.relation.schema(), &applicable,
                            &rest);
  const Relation filtered_a = applicable.empty()
                                  ? a.relation
                                  : FilterByPredicates(a.relation, applicable);

  auto key_of = [](const Relation& rel, const std::vector<size_t>& cols,
                   size_t row) {
    uint64_t h = 0;
    for (size_t c : cols) {
      h = HashCombine(h, HashWithSalt(rel.At(row, c), 0));
    }
    return h;
  };
  FlatCounter build;
  build.Reserve(filtered_a.NumTuples());
  for (size_t row = 0; row < filtered_a.NumTuples(); ++row) {
    build.Add(key_of(filtered_a, cols_a, row), 1);
  }
  const size_t total = b.relation.NumTuples();
  if (total == 0) return 0.0;
  size_t matched = 0;
  for (size_t row = 0; row < total; ++row) {
    if (build.Count(key_of(b.relation, cols_b, row)) != 0) ++matched;
  }
  return 1.0 - static_cast<double>(matched) / static_cast<double>(total);
}

// Parses the join index k out of a booked stage label — "join_2",
// "join_2 (degraded to HJ)", "pipeline join 2" — so the stage can be lined
// up with the planner's left-deep estimate sizes[k]. Returns -1 for stages
// that aren't per-join ("local TJ", sort phases, ...).
int JoinIndexFromLabel(const std::string& label) {
  std::string_view rest;
  if (StartsWith(label, "join_")) {
    rest = std::string_view(label).substr(5);
  } else if (StartsWith(label, "pipeline join ")) {
    rest = std::string_view(label).substr(14);
  } else {
    return -1;
  }
  if (rest.empty() || rest[0] < '0' || rest[0] > '9') return -1;
  return std::atoi(std::string(rest).c_str());
}

}  // namespace

BlindEstimates BlindAdvice(const NormalizedQuery& query, int num_workers) {
  BlindEstimates blind;
  StrategyAdvice& advice = blind.advice;
  const double w = static_cast<double>(num_workers);

  double largest = 0;
  for (const NormalizedAtom& atom : query.atoms) {
    const double card = static_cast<double>(atom.relation.NumTuples());
    blind.total_input += card;
    largest = std::max(largest, card);
  }
  const double total_input = blind.total_input;

  // Regular shuffle: inputs plus every estimated intermediate is reshuffled.
  blind.order = GreedyLeftDeepOrder(query);
  blind.sizes = EstimateLeftDeepSizes(query, blind.order);
  const std::vector<int>& order = blind.order;
  const std::vector<double>& sizes = blind.sizes;
  advice.est_rs_tuples = total_input;
  for (size_t i = 1; i + 1 < sizes.size(); ++i) {
    advice.est_rs_tuples += sizes[i];
    advice.est_max_intermediate =
        std::max(advice.est_max_intermediate, sizes[i]);
  }
  // The independence assumption badly underestimates the first join on
  // skewed data; replace its estimate with the exact frequency-vector size.
  if (order.size() >= 2) {
    const double exact = ExactFirstJoinSize(
        query.atoms[static_cast<size_t>(order[0])],
        query.atoms[static_cast<size_t>(order[1])]);
    if (sizes.size() > 1 && exact > sizes[1]) {
      advice.est_rs_tuples += exact - (sizes.size() > 2 ? sizes[1] : 0.0);
      advice.est_max_intermediate =
          std::max(advice.est_max_intermediate, exact);
    }
  }

  // Broadcast: everything but the largest relation goes to all workers.
  advice.est_br_tuples = (total_input - largest) * w;

  // HyperCube: per-atom replication under the Algorithm-1 configuration.
  ShareProblem problem = MakeShareProblem(query);
  ConfigChoice config = OptimizeShares(problem, num_workers);
  advice.hc_config = config;
  advice.est_hc_tuples = 0;
  for (const NormalizedAtom& atom : query.atoms) {
    HypercubeRouter router(config.config, atom.variables);
    advice.est_hc_tuples += static_cast<double>(atom.relation.NumTuples()) *
                            router.ReplicationFactor();
  }

  // Probe-side reduction a sideways-passing bloom filter would buy on the
  // first regular-shuffle round (refined from measured selectivity by
  // ApplyFeedback when feedback from a bloom-enabled run exists).
  advice.est_bloom_reduction = EstimateBloomReduction(query, order);

  // Heavy-hitter skew proxy on the first binary join's shared columns.
  if (order.size() >= 2) {
    const NormalizedAtom& first = query.atoms[static_cast<size_t>(order[0])];
    const NormalizedAtom& second = query.atoms[static_cast<size_t>(order[1])];
    for (size_t col = 0; col < first.variables.size(); ++col) {
      const std::string& var = first.variables[col];
      if (std::find(second.variables.begin(), second.variables.end(), var) ==
          second.variables.end()) {
        continue;
      }
      const double avg_load =
          std::max(1.0, static_cast<double>(first.relation.NumTuples()) / w);
      advice.est_rs_skew = std::max(
          advice.est_rs_skew,
          static_cast<double>(
              AtomColumnStats(first, {static_cast<int>(col)}).max_frequency) /
              avg_load);
    }
  }
  return blind;
}

StrategyAdvice ApplyFeedback(const BlindEstimates& blind,
                             const QueryFeedback* feedback) {
  StrategyAdvice advice = blind.advice;
  const double total_input = blind.total_input;

  // Replace the guesses with measurements where the feedback has them.
  // Substituted values have q-error 1 by construction, so the blind-vs-
  // feedback pair quantifies how much error the replay removed.
  bool rs_known_failed = false;
  if (feedback != nullptr) {
    double blind_q = 1.0;
    auto substitute = [&](double* est, double measured) {
      blind_q = std::max(blind_q, QError(*est, measured));
      *est = measured;
      advice.used_feedback = true;
    };
    bool any_rs_recorded = false;
    for (const StrategyFeedback& sf : feedback->strategies) {
      if (StartsWith(sf.strategy, "RS_")) any_rs_recorded = true;
    }
    if (const StrategyFeedback* rs = feedback->FindFamily("RS_")) {
      substitute(&advice.est_rs_tuples, rs->tuples_shuffled);
      const double skew = rs->MaxExchangeSkew();
      if (skew > 0) advice.est_rs_skew = skew;
      if (rs->bloom_tested > 0) {
        // A measured bloom-enabled run knows the true end-to-end filter
        // selectivity (every filtered exchange, not just round 1); it
        // replaces the estimate outright.
        advice.est_bloom_reduction = rs->bloom_filtered / rs->bloom_tested;
        advice.used_feedback = true;
      }
    } else if (any_rs_recorded) {
      // Every recorded regular-shuffle run failed (budget / sort memory):
      // nothing measurable, but the family is known bad — never re-pick it.
      rs_known_failed = true;
    }
    if (const StrategyFeedback* br = feedback->FindFamily("BR_")) {
      substitute(&advice.est_br_tuples, br->tuples_shuffled);
    }
    if (const StrategyFeedback* hc = feedback->FindFamily("HC_")) {
      substitute(&advice.est_hc_tuples, hc->tuples_shuffled);
    }
    // Measured max intermediate: non-final join stages of a regular-shuffle
    // run measure the true global intermediates. Pipeline joins of
    // replicated plans are the fallback — their per-worker sums can
    // overcount under replication, but they are measurements all the same.
    double measured_max = -1;
    for (int pass = 0; pass < 2 && measured_max < 0; ++pass) {
      for (const StrategyFeedback& sf : feedback->strategies) {
        if (sf.failed) continue;
        const bool is_rs = StartsWith(sf.strategy, "RS_");
        if ((pass == 0) != is_rs) continue;
        for (const FeedbackOp& op : sf.ops) {
          if (op.kind != FeedbackOp::Kind::kStage || op.estimated < 0) {
            continue;
          }
          measured_max = std::max(measured_max, op.actual);
        }
      }
    }
    if (measured_max >= 0) {
      substitute(&advice.est_max_intermediate, measured_max);
    }
    advice.blind_max_qerror = blind_q;
    advice.feedback_max_qerror = advice.used_feedback ? 1.0 : blind_q;
  }

  // The filter pays for itself when it kills a solid fraction of the probe
  // side; below the threshold the build + per-tuple probe is pure overhead.
  constexpr double kBloomWorthItReduction = 0.25;
  advice.use_bloom = advice.est_bloom_reduction >= kBloomWorthItReduction;

  // Decision logic (Table 6 regimes).
  const bool small_intermediates =
      advice.est_max_intermediate <= 2.0 * total_input;
  const bool low_skew = advice.est_rs_skew <= 4.0;
  const bool rs_cheapest =
      advice.est_rs_tuples <=
      std::min(advice.est_hc_tuples, advice.est_br_tuples);

  if (small_intermediates && low_skew && rs_cheapest && !rs_known_failed) {
    advice.shuffle = ShuffleKind::kRegular;
    // Per-round sorting pays off only while the sorted data stays small.
    advice.join = advice.est_max_intermediate <= total_input
                      ? JoinKind::kTributary
                      : JoinKind::kHashJoin;
    advice.rationale = StrFormat(
        "small intermediates (est max %.0f <= 2x input %.0f), low skew "
        "(%.1f) and cheapest shuffle -> regular shuffle",
        advice.est_max_intermediate, total_input, advice.est_rs_skew);
    if (advice.use_bloom) {
      advice.rationale += StrFormat(
          " + bloom SIP (est probe reduction %.0f%%)",
          advice.est_bloom_reduction * 100.0);
    }
    if (advice.used_feedback) {
      advice.rationale += StrFormat(" [measured; blind q-error %.2f -> %.2f]",
                                    advice.blind_max_qerror,
                                    advice.feedback_max_qerror);
    }
    return advice;
  }

  advice.join = JoinKind::kTributary;  // TJ wins whenever data is replicated
  if (advice.est_hc_tuples <= advice.est_br_tuples) {
    advice.shuffle = ShuffleKind::kHypercube;
    advice.rationale = StrFormat(
        "large intermediates or skew; HyperCube replication (%.0f tuples) "
        "beats broadcast (%.0f)",
        advice.est_hc_tuples, advice.est_br_tuples);
  } else {
    advice.shuffle = ShuffleKind::kBroadcast;
    advice.rationale = StrFormat(
        "large intermediates but a high-dimensional cube: broadcast "
        "(%.0f tuples) beats HyperCube replication (%.0f)",
        advice.est_br_tuples, advice.est_hc_tuples);
  }
  if (rs_known_failed) advice.rationale += " (regular shuffle FAILed before)";
  if (advice.used_feedback) {
    advice.rationale += StrFormat(" [measured; blind q-error %.2f -> %.2f]",
                                  advice.blind_max_qerror,
                                  advice.feedback_max_qerror);
  }
  return advice;
}

StrategyAdvice AdviseStrategy(const NormalizedQuery& query, int num_workers,
                              const QueryFeedback* feedback) {
  return ApplyFeedback(BlindAdvice(query, num_workers), feedback);
}

StrategyFeedback CollectStrategyFeedback(const NormalizedQuery& query,
                                         const std::string& strategy_name,
                                         const StrategyResult& result,
                                         const BlindEstimates* blind) {
  StrategyFeedback sf;
  sf.strategy = strategy_name;
  sf.failed = result.metrics.failed;
  sf.tuples_shuffled = static_cast<double>(result.metrics.TuplesShuffled());
  sf.output_tuples = static_cast<double>(result.metrics.output_tuples);
  sf.peak_bytes = static_cast<double>(result.metrics.peak_bytes);

  // Re-derive the planner's estimates along the order the run actually
  // executed, so every recorded stage can be audited against the estimate
  // the optimizer would have relied on at the same point.
  std::vector<int> order = result.join_order_used;
  if (order.size() != query.atoms.size()) {
    order = blind != nullptr ? blind->order : GreedyLeftDeepOrder(query);
  }
  std::vector<double> sizes;
  if (order.size() == query.atoms.size()) {
    sizes = blind != nullptr && order == blind->order
                ? blind->sizes
                : EstimateLeftDeepSizes(query, order);
  }

  for (const StageMetrics& stage : result.metrics.stages) {
    FeedbackOp op;
    op.kind = FeedbackOp::Kind::kStage;
    op.label = stage.label;
    op.actual = static_cast<double>(stage.output_tuples);
    const int k = JoinIndexFromLabel(stage.label);
    // Only intermediate joins carry an estimate: the final join's output is
    // already audited by output_tuples, and degradation-abandoned stages
    // (output 0) would poison the q-error report.
    if (k >= 1 && static_cast<size_t>(k) + 1 < sizes.size() &&
        !stage.degraded) {
      op.estimated = sizes[static_cast<size_t>(k)];
    }
    sf.ops.push_back(std::move(op));
  }
  for (const ShuffleMetrics& s : result.metrics.shuffles) {
    FeedbackOp op;
    op.kind = FeedbackOp::Kind::kExchange;
    op.label = s.label;
    op.actual = static_cast<double>(s.tuples_sent);
    op.skew = s.consumer_skew;
    sf.ops.push_back(std::move(op));
    // Measured sideways-passing selectivity, aggregated over the run's
    // filtered exchanges; 0/0 when the run had the filter off, which the
    // advisor treats as "no measurement".
    sf.bloom_tested += static_cast<double>(s.bloom_tested);
    sf.bloom_filtered += static_cast<double>(s.bloom_filtered);
  }
  return sf;
}

}  // namespace ptp
