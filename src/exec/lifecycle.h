#ifndef PTP_EXEC_LIFECYCLE_H_
#define PTP_EXEC_LIFECYCLE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/timer.h"
#include "runtime/thread_pool.h"

namespace ptp {

/// Control-plane account of one query's run, snapshotted into the server
/// response and rendered by the EXPLAIN "lifecycle:" section. Poll and
/// suspend counts are deliberately NOT published to the query's counter
/// registry: a clean run with the lifecycle armed must keep counters
/// bit-identical to a run without it (the serving isolation audits compare
/// served counters against solo references).
struct LifecycleStats {
  /// Coordinator poll-point visits (recovery attempts, exchange steps, stage
  /// and round barriers) — the deterministic points where a cancel or
  /// deadline can take effect.
  uint64_t polls = 0;
  /// Barrier-checkpoint suspensions honored / resumes performed.
  uint64_t suspends = 0;
  uint64_t resumes = 0;
  /// Straggling stage attempts the watchdog converted into retryable
  /// failures (see RecoveryOptions::watchdog_straggle_factor).
  uint64_t watchdog_trips = 0;
  bool cancelled = false;
  bool deadline_exceeded = false;
};

/// Per-query cancel token + deadline + suspend request, installed as the
/// `lifecycle` field of a runtime::ScopedQueryContext exactly like the obs
/// sinks — pool workers and the coordinator observe the submitting query's
/// lifecycle, a concurrently-served neighbour never does.
///
/// The control surface (Cancel, SetDeadline, RequestSuspend) is thread-safe
/// and may be driven from any thread (e.g. QueryServer::Cancel from a client
/// thread). The poll surface (Poll, ConsumeSuspend) is coordinator-only: it
/// runs only at fixed coordinator points (docs/ROBUSTNESS.md), so the
/// set of possible decision points is bit-identical at every --threads
/// setting. Wall-clock deadlines pick WHICH of those points fires by time;
/// the *AfterPolls knobs pin it exactly for deterministic tests.
class QueryLifecycle {
 public:
  QueryLifecycle() = default;

  // --- control surface (any thread) ---

  /// Requests cooperative cancellation: the next coordinator poll returns
  /// kCancelled and the strategy layer converts it into a graceful FAIL
  /// (partial metrics intact — never an abort). Idempotent; the first
  /// reason wins.
  void Cancel(std::string reason);

  /// Arms a wall-clock deadline `seconds` from now; <= 0 fires at the next
  /// poll. Re-arming replaces the previous deadline.
  void SetDeadline(double seconds);

  /// Asks the query to suspend at its next round barrier (regular-shuffle
  /// rounds only — the other families run to completion and the request is
  /// simply never honored). Returns false when a request was already
  /// pending.
  bool RequestSuspend();

  // --- deterministic test knobs (set before the run) ---

  /// Trips cancellation (or the deadline) exactly at the n-th poll,
  /// 1-based — thread-count independent by construction.
  void CancelAfterPolls(uint64_t n);
  void DeadlineAfterPolls(uint64_t n);

  /// One-shot: honor a suspension at the k-th barrier suspension check
  /// (1-based), as if RequestSuspend had landed just before it.
  void SuspendAtBarrier(uint64_t k);

  // --- poll surface (coordinator only) ---

  /// The deterministic decision point: returns OK to keep running,
  /// kCancelled / kDeadlineExceeded (with `where` in the message) to stop.
  /// Once tripped, every later poll returns the same verdict.
  Status Poll(std::string_view where);

  /// Consumes a pending suspend request at a round barrier; true means the
  /// caller must capture a QueryCheckpoint and return. Books the suspension
  /// (stats + "suspend" trace instant).
  bool ConsumeSuspend();

  /// Books a resume (ResumeStrategy calls this before re-entering the run).
  void BookResume();

  /// Books a watchdog-converted straggler (the retry itself is booked by
  /// the recovery ladder).
  void BookWatchdogTrip();

  bool cancel_requested() const;
  LifecycleStats stats() const;

 private:
  /// Poll fast path: `polls_` counts outside the lock, and `attention_`
  /// stays false until something arms (cancel, deadline, *AfterPolls), so
  /// a clean run's polls never touch `mu_`. `stats_.polls` is unused
  /// internally — stats() snapshots `polls_` into the copy it returns.
  std::atomic<uint64_t> polls_{0};
  std::atomic<bool> attention_{false};

  mutable std::mutex mu_;
  LifecycleStats stats_;
  bool cancel_requested_ = false;
  std::string cancel_reason_;
  bool deadline_armed_ = false;
  double deadline_seconds_ = 0;
  Timer deadline_timer_;
  uint64_t cancel_after_polls_ = 0;
  uint64_t deadline_after_polls_ = 0;
  bool suspend_requested_ = false;
  uint64_t suspend_at_check_ = 0;
  uint64_t suspend_checks_ = 0;
};

/// The calling thread's active lifecycle (propagated to pool workers per
/// batch), or nullptr when none is installed.
inline QueryLifecycle* ActiveQueryLifecycle() {
  return runtime::CurrentQueryContext().lifecycle;
}

/// The "lifecycle:" section of EXPLAIN ANALYZE (two-space indented lines).
std::string LifecycleSectionText(const LifecycleStats& stats);

}  // namespace ptp

#endif  // PTP_EXEC_LIFECYCLE_H_
