#ifndef PTP_FAULT_FAULT_H_
#define PTP_FAULT_FAULT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "runtime/thread_pool.h"

namespace ptp {

/// The injectable fault kinds of the simulated cluster's fault model (see
/// docs/ROBUSTNESS.md). Stage faults hit one logical worker inside a stage
/// barrier; channel faults hit one (producer, consumer) channel of a
/// shuffle exchange.
enum class FaultKind {
  kCrashBefore,     // worker crashes before running its stage body
  kCrashDuring,     // worker crashes mid-stage: work done, output lost
  kOperatorError,   // local operator returns a transient error Status
  kStragglerDelay,  // worker's virtual cost is inflated `factor` x
  kShuffleDrop,     // a (producer, consumer) channel is never delivered
  kShuffleDup,      // a channel is delivered twice (same sequence tag)
};

/// "crash", "drop", ... — the schedule-grammar token for `kind`.
const char* FaultKindToString(FaultKind kind);

/// One scheduled fault. Matching fields left at -1 (or an empty label) are
/// wildcards. `attempt` selects the retry epoch the fault fires on;
/// kEveryAttempt makes it *persistent* — it survives every retry, forcing
/// the executor to degrade the plan or FAIL gracefully.
struct FaultSpec {
  static constexpr int kEveryAttempt = -1;

  FaultKind kind = FaultKind::kCrashBefore;
  /// Stage/exchange registration ordinal within the query (-1 = any).
  /// Sites are numbered by the coordinator in execution order, separately
  /// for stages and exchanges, so a schedule is thread-count-independent.
  int site = -1;
  std::string label;  // exact stage/exchange label, "" = any
  int worker = -1;    // stage faults: logical worker index, -1 = any
  int attempt = 0;    // epoch this fault fires on, kEveryAttempt = all
  double factor = 4.0;  // kStragglerDelay: virtual cost multiplier
  int producer = -1;    // channel faults: producing fragment, -1 = any
  int consumer = -1;    // channel faults: receiving worker, -1 = any

  std::string ToString() const;
};

/// A deterministic fault schedule, parsed from `--faults=` / PTP_FAULTS.
///
/// Grammar (docs/ROBUSTNESS.md):
///   schedule := event (';' event)*
///   event    := kind ['@' kv (',' kv)*]
///   kind     := crash | crashmid | err | slow | drop | dup | rand
///   kv       := key '=' value
/// Stage-fault keys: stage=<label> site=<n> worker=<n> attempt=<n|*>
/// factor=<f> (slow only). Channel-fault keys: x=<exchange ordinal>
/// label=<exchange label> p=<producer> c=<consumer> attempt=<n|*>.
/// A stage=/label= value runs to the end of the event (labels contain
/// spaces and commas, e.g. "HCS R(x, y)"), so it must be the last key.
/// `rand` expands to a seeded random schedule: n=<faults> seed=<s>
/// workers=<w> (same seed => same schedule, via common/rng.h).
struct FaultPlan {
  std::vector<FaultSpec> specs;

  static Result<FaultPlan> Parse(std::string_view text);
  /// `num_faults` specs drawn deterministically from `seed` over a cluster
  /// of `num_workers` workers and the first few sites of a query.
  static FaultPlan Random(uint64_t seed, int num_faults, int num_workers);

  bool empty() const { return specs.empty(); }
  std::string ToString() const;
};

/// Resolved stage faults for one (site, worker, attempt) probe.
struct StageFault {
  bool crash_before = false;
  bool crash_during = false;
  bool operator_error = false;
  double delay_factor = 1.0;

  bool any() const {
    return crash_before || crash_during || operator_error ||
           delay_factor != 1.0;
  }
};

/// Evaluates a FaultPlan against the executor's injection sites and books
/// every injected fault in the observability layer (fault.* counters,
/// "fault" trace instants).
///
/// Site registration (RegisterStage / RegisterExchange / Reset) happens on
/// the coordinator between barriers, so ordinals are deterministic. The
/// probe calls (OnStage / OnChannel) are pure functions of the plan and the
/// probe coordinates — safe to call concurrently from worker bodies, and
/// bit-identical at every thread count.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

  /// Assigns the next stage site ordinal. Coordinator only.
  int RegisterStage(std::string_view label);
  /// Assigns the next exchange site ordinal. Coordinator only.
  int RegisterExchange(std::string_view label);
  /// Restarts site numbering, so one schedule means the same thing for
  /// every query run under this injector (each RunStrategy and each
  /// RunSemijoinPlan resets at its start).
  void Reset();

  /// Site-numbering cursors (stage/exchange ordinals registered so far).
  /// Captured into a QueryCheckpoint at a barrier suspension and restored
  /// by ResumeStrategy, so the resumed run's remaining sites receive the
  /// ordinals an uninterrupted run would have assigned — a fault schedule
  /// addressed by site keeps meaning the same thing across a suspend/
  /// resume. Coordinator only.
  struct SiteCursor {
    int stage = 0;
    int exchange = 0;
  };
  SiteCursor cursor() const;
  void set_cursor(SiteCursor cursor);

  /// Faults to apply to `worker`'s body of stage `site` on retry epoch
  /// `attempt`. Books matched faults.
  StageFault OnStage(int site, std::string_view label, int worker,
                     int attempt);

  enum class ChannelFault { kNone, kDrop, kDuplicate };
  /// Fault to apply to the (producer, consumer) channel of exchange `site`
  /// on delivery epoch `attempt`. Books matched faults. Drop wins when a
  /// channel matches both a drop and a dup spec.
  ChannelFault OnChannel(int site, std::string_view label, int producer,
                         int consumer, int attempt);

  /// Total faults injected so far (all kinds).
  uint64_t injected() const { return injected_.load(); }
  const FaultPlan& plan() const { return plan_; }

 private:
  void Book(const FaultSpec& spec, std::string_view label, int worker,
            int attempt);

  FaultPlan plan_;
  std::atomic<int> next_stage_{0};
  std::atomic<int> next_exchange_{0};
  std::atomic<uint64_t> injected_{0};
};

/// The active injector, or nullptr when fault injection is off (the
/// per-site hook cost is then a single nullptr branch, like tracing).
inline FaultInjector* ActiveFaultInjector() {
  return runtime::CurrentQueryContext().faults;
}

}  // namespace ptp

#endif  // PTP_FAULT_FAULT_H_
