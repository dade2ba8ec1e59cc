#ifndef PTP_OBS_FEEDBACK_H_
#define PTP_OBS_FEEDBACK_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace ptp {

/// Version of the feedback-file JSON schema; bumped on breaking changes.
/// Loaders reject files with a different major version.
inline constexpr int kFeedbackJsonVersion = 1;

/// The q-error of one cardinality estimate: max(est/act, act/est), the
/// standard symmetric multiplicative error (1.0 = exact). Zero/negative
/// sides are clamped to 1 tuple so degenerate operators don't divide by
/// zero; a missing estimate (est < 0) reports 1.0 (nothing to audit).
double QError(double estimated, double actual);

/// Measured (or estimated) cardinality of one operator or exchange of one
/// strategy run — the unit of the estimate-vs-actual audit.
struct FeedbackOp {
  enum class Kind { kStage, kExchange };
  Kind kind = Kind::kStage;
  /// Stage label ("join_1", "pipeline join 2") or exchange label
  /// ("R ->h[x]", "Intermediate_2 ->h[y]").
  std::string label;
  /// Planner estimate at the same point, < 0 when the planner had none
  /// (exchanges of pre-planned strategies, final outputs).
  double estimated = -1;
  /// Measured cardinality (stage output tuples / exchange tuples sent).
  double actual = 0;
  /// Exchanges only: measured consumer skew (max/mean tuples received).
  double skew = 0;
};

/// One strategy's measured run for a query.
struct StrategyFeedback {
  std::string strategy;
  bool failed = false;
  double tuples_shuffled = 0;
  double output_tuples = 0;
  double peak_bytes = 0;
  /// Measured sideways-passing bloom selectivity, summed over the run's
  /// filtered exchanges: tuples tested at producers and tuples dropped.
  /// Both 0 when the run had the filter off — the advisor treats that as
  /// "no measurement" (old stores parse as 0/0, no version bump needed).
  double bloom_tested = 0;
  double bloom_filtered = 0;
  std::vector<FeedbackOp> ops;

  /// The first op with this label, nullptr when absent.
  const FeedbackOp* FindOp(std::string_view label) const;
  /// Largest measured consumer skew over the exchange ops (0 when none).
  double MaxExchangeSkew() const;
};

/// All measured strategies for one (query, cluster-size) pair.
struct QueryFeedback {
  /// Canonical query text (NormalizeQueryText, query/normalize_text.h) —
  /// the lookup key. FindOrAdd and Parse canonicalize a key when it enters
  /// the store, and Find/FindOrAdd canonicalize only their argument, so any
  /// spelling of the query (Query::ToString(), hand-written text) resolves
  /// to the same entry. Code that fills `queries` directly must store
  /// canonical keys.
  std::string query_key;
  int workers = 0;
  std::vector<StrategyFeedback> strategies;

  /// The run of `strategy`, nullptr when absent.
  const StrategyFeedback* FindStrategy(std::string_view strategy) const;
  /// The first non-failed run whose strategy name starts with `prefix`
  /// ("RS_", "BR_", "HC_"), nullptr when absent — how the advisor reads a
  /// strategy family's measured shuffle volume.
  const StrategyFeedback* FindFamily(std::string_view prefix) const;
};

/// Versioned on-disk store of measured query runs: what --feedback-out=
/// writes and --feedback-in= loads. Re-recording a (query, workers) pair
/// replaces its previous entry, so iterating runs converge on the latest
/// measurements.
struct FeedbackStore {
  int version = kFeedbackJsonVersion;
  std::vector<QueryFeedback> queries;

  QueryFeedback* FindOrAdd(std::string_view query_key, int workers);
  /// Folds one measured run into a bounded store, the way the serving
  /// layer keeps it: replaces the entry's run of the same strategy (or
  /// appends it), moves the entry to most-recently-used (the back), and
  /// drops least-recently-used entries past `max_entries` (0 means 1).
  /// Returns the entry, valid until the store next changes.
  const QueryFeedback* Fold(std::string_view query_key, int workers,
                            StrategyFeedback run, size_t max_entries);
  const QueryFeedback* Find(std::string_view query_key, int workers) const;

  std::string ToJson() const;
  Status WriteFile(const std::string& path) const;
  static Result<FeedbackStore> Parse(std::string_view json);
  static Result<FeedbackStore> LoadFile(const std::string& path);
};

/// Human-readable q-error audit of one query's feedback: per strategy, each
/// op's estimate vs measurement with its q-error, worst first within kind.
std::string QErrorAuditText(const QueryFeedback& feedback);

}  // namespace ptp

#endif  // PTP_OBS_FEEDBACK_H_
