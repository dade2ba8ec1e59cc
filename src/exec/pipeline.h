#ifndef PTP_EXEC_PIPELINE_H_
#define PTP_EXEC_PIPELINE_H_

#include <vector>

#include "common/status.h"
#include "exec/local_ops.h"
#include "query/query.h"

namespace ptp {

/// Per-join accounting of a local left-deep pipeline.
struct PipelineStats {
  /// Output cardinality after each join (join i combines the running
  /// intermediate with input order[i+1]).
  std::vector<size_t> join_outputs;
  /// Seconds spent in each join (Table 5's per-operator breakdown).
  std::vector<double> join_seconds;
  /// Largest intermediate produced.
  size_t max_intermediate = 0;

  /// Element-wise accumulation (merging per-worker stats).
  void Merge(const PipelineStats& other);
};

/// Executes a left-deep tree of local hash joins over `inputs` following
/// `order` (indices into inputs). Comparison predicates are applied as soon
/// as all their variables are bound — the "state of the art optimizer"
/// behaviour the paper assumes: the ones decidable on the first input
/// filter it, and each later one is evaluated at emit by the first join
/// whose output binds it, so a failing row is never written. The inputs
/// are read in place and left untouched; each intermediate is written once.
/// Joins whose intermediate would exceed `max_intermediate_rows` abort with
/// ResourceExhausted (the paper's out-of-memory FAIL entries).
Result<Relation> LeftDeepJoinLocal(const std::vector<const Relation*>& inputs,
                                   const std::vector<int>& order,
                                   const std::vector<Predicate>& preds,
                                   size_t max_intermediate_rows,
                                   PipelineStats* stats = nullptr);

}  // namespace ptp

#endif  // PTP_EXEC_PIPELINE_H_
