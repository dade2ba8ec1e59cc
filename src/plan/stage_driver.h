#ifndef PTP_PLAN_STAGE_DRIVER_H_
#define PTP_PLAN_STAGE_DRIVER_H_

// Internal to src/plan/: the execution context, the run frame, and the two
// primitives every plan family is built from. An exchange step moves the
// inputs of one local stage; a worker stage runs one barrier over the W
// workers. Both own the recovery loop, control polls, and booking, so RS,
// BR, HC, and the semijoin plan supply only what differs: the shuffles and
// the per-worker body.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "exec/cluster.h"
#include "exec/metrics.h"
#include "exec/pipeline.h"
#include "exec/shuffle.h"
#include "obs/resource.h"
#include "plan/strategies.h"
#include "query/query.h"

namespace ptp {
namespace plan_internal {

std::vector<std::string> SharedVars(const Schema& a, const Schema& b);

std::vector<int> ColumnIndices(const Schema& schema,
                               const std::vector<std::string>& vars);

// Materialized bytes of a distributed relation's fragments — what the
// coordinator "holds" between rounds in the memory account.
uint64_t DistBytes(const DistributedRelation& frags);

// Execution context of one plan run.
struct Ctx {
  Ctx(const NormalizedQuery& query, const StrategyOptions& options);

  const NormalizedQuery* q;
  const StrategyOptions* opts;
  int W;
  StrategyResult result;

  QueryMetrics& metrics() { return result.metrics; }
  bool failed() const { return result.metrics.failed; }

  // Books a shuffle: records its metrics, counts its measured elapsed time
  // toward the query wall clock, and spreads the routing CPU evenly over
  // the workers (the shuffle itself ran on the runtime pool).
  void BookShuffle(const ShuffleMetrics& sm, double elapsed);

  // Books a barrier of per-worker compute times. `region_elapsed` is the
  // measured wall time of the parallel region(s) that ran the workers
  // (summed over replay attempts). A retried-then-succeeded stage books
  // retries > 0 with failed == false. Empty sort/join vectors book nothing
  // for that split; `worker_mem` (when a meter is active) books the stage's
  // folded worker peak.
  void BookStage(const std::string& label, double region_elapsed,
                 const std::vector<double>& worker_elapsed,
                 const std::vector<double>& sort_elapsed,
                 const std::vector<double>& join_elapsed,
                 size_t output_tuples, bool stage_failed, size_t retries = 0,
                 bool degraded = false,
                 const std::vector<MemStats>* worker_mem = nullptr);

  // Graceful FAIL: the run keeps its booked metrics and returns OK status;
  // `code` classifies the failure for callers that map it back to a
  // response (kUnavailable = retries exhausted, kResourceExhausted =
  // budget).
  void Fail(std::string reason, StatusCode code = StatusCode::kUnavailable);

  // Hard-budget breach then lifecycle, in that fixed order, at one
  // coordinator decision point: a latched hard-budget breach becomes a
  // kResourceExhausted FAIL, a pending cancellation/deadline a
  // kCancelled/kDeadlineExceeded FAIL (partial metrics intact). Decisions
  // land only at these fixed points, so they are deterministic at any
  // thread count. Returns true when the query is failed.
  bool FailOnControl(std::string_view where);

  // Post-exchange control point: charges `charged` to the meter as
  // intermediate memory (its consumer releases it), then FailOnControl.
  bool ChargeAndPoll(const std::vector<const DistributedRelation*>& charged,
                     std::string_view where);

  void TrackIntermediate(size_t tuples) {
    metrics().max_intermediate_tuples =
        std::max(metrics().max_intermediate_tuples, tuples);
  }
};

// ---------------------------------------------------------------------------
// Run frame.
// ---------------------------------------------------------------------------

// Runs `body` as one plan run named `name` (a StrategyName, or "SEMIJOIN").
// A fresh run (`resume` null) restarts fault-site numbering, so a schedule
// means the same thing for every run, and opens the run's profile and meter
// sections: everything recorded until the next frame, an in-flight plan
// degradation included, lands under `name`. A resumed run instead restores
// the checkpoint's fault cursor and continues the sections the suspended
// run left open. The run's span covers `body`, and a completed run closes
// its meter section and reports the peak and charged bytes in its metrics;
// a suspended run leaves the section open for ResumeStrategy to close.
Result<StrategyResult> RunInFrame(
    std::string_view name, const QueryCheckpoint* resume,
    const std::function<Result<StrategyResult>()>& body);

// Runs one (shuffle, join) configuration inside the caller's frame: the
// single-atom scan, the regular shuffle, or the single-round driver.
// `allow_suspend` is false when the run is the tail of another plan, whose
// name a checkpoint could not be resumed under. Defined in strategies.cc.
Result<StrategyResult> RunConfiguration(const NormalizedQuery& q,
                                        ShuffleKind shuffle, JoinKind join,
                                        const StrategyOptions& opts,
                                        bool allow_suspend = true);

// Records a graceful plan degradation (the recovery loop gave up on an
// operator and the planner fell back to a more robust one).
void BookDegradation(Ctx* ctx, std::string what);

// ---------------------------------------------------------------------------
// Exchange step.
// ---------------------------------------------------------------------------

// One exchange, i.e. one fault site. `deliver` runs one delivery attempt; on
// success it moves the data into caller-owned outputs and returns the
// shuffle metrics to book (two for the skew-aware pair, whose sides share
// one replay unit).
struct Exchange {
  std::string label;
  std::function<Result<std::vector<ShuffleMetrics>>(ShuffleAttempt)> deliver;
};

// The usual exchange: one shuffle whose data lands in `out`. A
// bloom-filtered probe side also keeps its virtual arrival map
// (ShuffleResult::arrival / unfiltered_rows).
Exchange ShuffleInto(
    std::string label,
    std::function<Result<ShuffleResult>(ShuffleAttempt)> shuffle,
    DistributedRelation* out,
    std::vector<std::vector<uint32_t>>* arrival = nullptr,
    std::vector<size_t>* unfiltered_rows = nullptr);

// Runs `exchanges` in order, each under its own RunWithRecovery(kExchange)
// site, and books each on success; then ChargeAndPoll(charged) at the last
// exchange's label. A lifecycle stop, or an exhausted exchange with no
// cheaper plan, FAILs the query gracefully and returns OK (check
// ctx->failed()). With `may_degrade` an exhausted exchange instead returns
// its retryable status, so the caller can fall back to a cheaper plan.
// Non-retryable errors propagate.
Status RunExchangeStep(Ctx* ctx, const std::vector<Exchange>& exchanges,
                       const std::vector<const DistributedRelation*>& charged,
                       bool may_degrade = false);

// ---------------------------------------------------------------------------
// Worker-stage driver.
// ---------------------------------------------------------------------------

// What one worker's join body produced on one attempt.
struct WorkerOut {
  Relation rel;
  PipelineStats pipeline;  // left-deep hash-join pipelines only
  // Measured seconds, before the injected delay factor scales them.
  double sort_seconds = 0;
  double join_seconds = 0;
};

// The per-worker join body of a stage: runs `join` on worker `w`'s inputs.
// Must be a pure function of its immutable inputs (lineage replay).
using JoinBody = std::function<Status(JoinKind join, size_t w, WorkerOut* out)>;

struct WorkerStage {
  std::string label;
  JoinKind join = JoinKind::kHashJoin;
  // A Tributary stage that exhausts its retries degrades to the hash join
  // on a fresh "<label> (degraded to HJ)" site, booked as the degradation
  // "<degrade_scope>: tributary join -> hash join". `on_degrade` (optional)
  // runs first, e.g. to pick the hash-join order.
  std::string degrade_scope;
  std::function<void()> on_degrade;
  // Cumulative output bound over the workers in index order; crossing it
  // FAILs the query with `cap_reason` (kResourceExhausted).
  size_t output_cap = std::numeric_limits<size_t>::max();
  std::string cap_reason;
};

struct StageOutput {
  DistributedRelation rel;  // per-worker outputs of the booked attempt
  size_t tuples = 0;
  PipelineStats pipeline;  // merged over the workers the scan reached
};

// Runs one barrier over the W workers under RunWithRecovery(kStage). Every
// worker runs to completion on the runtime pool, writing only its own
// slots; failures (injected faults, the watchdog, body errors) are decided
// after the barrier in worker index order, first error wins — identical at
// every thread count. The shuffled inputs are immutable, so the barrier is
// a replayable unit. The booked stage, the closing FailOnControl, and any
// graceful FAIL land in `ctx`; returns OK unless a non-retryable error must
// propagate. A lifecycle stop books nothing and leaves `out` empty.
Status RunWorkerStage(Ctx* ctx, const WorkerStage& stage, const JoinBody& body,
                      StageOutput* out);

}  // namespace plan_internal
}  // namespace ptp

#endif  // PTP_PLAN_STAGE_DRIVER_H_
