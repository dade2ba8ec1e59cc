// Query lifecycle robustness (docs/ROBUSTNESS.md): cooperative
// cancellation, deadlines, barrier-checkpoint suspension, and the stage
// watchdog. Under test:
//   (1) a run suspended at a round barrier and resumed finishes with
//       output, counters, and memory peaks bit-identical to an
//       uninterrupted run, at 1 and at 8 threads — including under an
//       injected fault (the checkpoint preserves the fault-site cursor);
//   (2) cancellation and deadlines at ANY poll point produce a graceful
//       kCancelled / kDeadlineExceeded FAIL (an OK Result with
//       metrics.failed, never an abort) across the workload x strategy
//       matrix, with decision points bit-identical across thread counts;
//   (3) the watchdog converts injected stragglers into deterministic
//       retries that converge to the clean answer, and a persistent
//       straggler degrades to a graceful FAIL;
//   (4) a clean run with the lifecycle armed keeps counters bit-identical
//       to a run without it (the serving isolation invariant).

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "data/workloads.h"
#include "exec/lifecycle.h"
#include "fault/fault.h"
#include "gtest/gtest.h"
#include "obs/counters.h"
#include "obs/explain.h"
#include "obs/resource.h"
#include "plan/strategies.h"
#include "runtime/parallel.h"
#include "test_util.h"

namespace ptp {
namespace {

using test::TinyScale;
using test::TotalRetries;

struct RunRecord {
  StrategyResult result;
  std::vector<std::pair<std::string, uint64_t>> counters;
  LifecycleStats lifecycle;
  uint64_t injected = 0;
};

// One strategy run with a private registry + armed meter (unless
// `install_meter` is false), an optional fault schedule, and an optionally
// caller-armed lifecycle. Suspensions are resumed until completion (the
// served resume loop, inlined).
RunRecord RunWith(int threads, const NormalizedQuery& q, ShuffleKind shuffle,
                  JoinKind join, const StrategyOptions& opts,
                  const std::function<void(QueryLifecycle*)>& arm = nullptr,
                  const std::string& faults = "",
                  bool install_lifecycle = true, bool install_meter = true) {
  runtime::SetThreads(threads);
  CounterRegistry registry;
  ResourceMeter meter;
  QueryLifecycle lifecycle;
  if (arm) arm(&lifecycle);
  std::unique_ptr<FaultInjector> injector;
  if (!faults.empty()) {
    auto plan = FaultPlan::Parse(faults);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    injector = std::make_unique<FaultInjector>(std::move(plan).value());
  }
  runtime::ScopedQueryContext sinks(
      {.counters = &registry, .meter = install_meter ? &meter : nullptr,
       .faults = injector.get(),
       .lifecycle = install_lifecycle ? &lifecycle : nullptr});
  Result<StrategyResult> result = RunStrategy(q, shuffle, join, opts);
  while (result.ok() && result->checkpoint != nullptr) {
    // Keep the checkpoint alive across the call that consumes it.
    std::shared_ptr<QueryCheckpoint> cp = result->checkpoint;
    result = ResumeStrategy(q, shuffle, join, opts, *cp);
  }
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  RunRecord record;
  if (result.ok()) record.result = std::move(result).value();
  record.counters = registry.CounterSnapshot();
  record.lifecycle = lifecycle.stats();
  if (injector != nullptr) record.injected = injector->injected();
  runtime::SetThreads(0);
  return record;
}

void ExpectIdenticalOutcome(const RunRecord& a, const RunRecord& b,
                            const std::string& context) {
  EXPECT_EQ(a.result.output.data(), b.result.output.data())
      << context << ": outputs differ";
  EXPECT_EQ(a.counters, b.counters) << context << ": counters differ";
  EXPECT_EQ(a.result.metrics.peak_bytes, b.result.metrics.peak_bytes)
      << context;
  EXPECT_EQ(a.result.metrics.charged_bytes, b.result.metrics.charged_bytes)
      << context;
  EXPECT_EQ(a.result.metrics.stages.size(), b.result.metrics.stages.size())
      << context;
  EXPECT_EQ(a.result.metrics.TuplesShuffled(),
            b.result.metrics.TuplesShuffled())
      << context;
  EXPECT_EQ(a.result.metrics.failed, b.result.metrics.failed) << context;
}

// ---------------------------------------------------------------------------
// (4) The armed-but-clean invariant.
// ---------------------------------------------------------------------------

TEST(LifecycleArmedTest, CleanRunWithLifecycleArmedIsBitIdentical) {
  WorkloadFactory factory(TinyScale());
  for (int q : {1, 3}) {
    auto wl = factory.Make(q);
    ASSERT_TRUE(wl.ok()) << wl.status().ToString();
    StrategyOptions opts;
    opts.num_workers = 16;
    for (const auto& [shuffle, join] : AllStrategies()) {
      const std::string context =
          wl->id + std::string(" ") + StrategyName(shuffle, join);
      RunRecord off = RunWith(1, wl->normalized, shuffle, join, opts,
                              nullptr, "", /*install_lifecycle=*/false);
      RunRecord on = RunWith(1, wl->normalized, shuffle, join, opts);
      ExpectIdenticalOutcome(off, on, context);
      // The armed run visits poll points; the point of the invariant is
      // that visiting them changes nothing observable.
      EXPECT_GT(on.lifecycle.polls, 0u) << context;
      EXPECT_EQ(off.lifecycle.polls, 0u) << context;
    }
  }
}

// ---------------------------------------------------------------------------
// (1) Suspend at a barrier, resume, finish bit-identically.
// ---------------------------------------------------------------------------

TEST(LifecycleSuspendTest, SuspendResumeIsBitIdenticalAtEveryBarrier) {
  WorkloadFactory factory(TinyScale());
  // Q3 (triangle) and Q5 (a longer join) both take multiple regular-shuffle
  // rounds, so they expose interior barriers, not just the first one.
  for (int q : {3, 5}) {
    auto wl = factory.Make(q);
    ASSERT_TRUE(wl.ok()) << wl.status().ToString();
    StrategyOptions opts;
    opts.num_workers = 16;
    for (JoinKind join : {JoinKind::kHashJoin, JoinKind::kTributary}) {
      const std::string name = StrategyName(ShuffleKind::kRegular, join);
      RunRecord clean =
          RunWith(1, wl->normalized, ShuffleKind::kRegular, join, opts);
      for (uint64_t k = 1; k <= 3; ++k) {
        for (int threads : {1, 8}) {
          const std::string context =
              wl->id + " " + name + " barrier " + std::to_string(k) + " @" +
              std::to_string(threads) + " threads";
          RunRecord run = RunWith(
              threads, wl->normalized, ShuffleKind::kRegular, join, opts,
              [&](QueryLifecycle* lc) { lc->SuspendAtBarrier(k); });
          ExpectIdenticalOutcome(clean, run, context);
          // The first barrier always exists, so k=1 must actually suspend;
          // a k past the last barrier simply never fires.
          if (k == 1) {
            EXPECT_EQ(run.lifecycle.suspends, 1u) << context;
          }
          EXPECT_EQ(run.lifecycle.suspends, run.lifecycle.resumes)
              << context;
        }
      }
    }
  }
}

TEST(LifecycleSuspendTest, SuspendPreservesFaultSiteCursorAcrossResume) {
  WorkloadFactory factory(TinyScale());
  auto wl = factory.Make(3);
  ASSERT_TRUE(wl.ok()) << wl.status().ToString();
  StrategyOptions opts;
  opts.num_workers = 16;

  // A transient crash addressed by site ordinal: if the resume renumbered
  // the remaining sites, the fault would hit a different stage (or none)
  // and the retry accounting would diverge from the uninterrupted run.
  const std::string schedule = "crash@site=1,worker=3,attempt=0";
  RunRecord clean = RunWith(1, wl->normalized, ShuffleKind::kRegular,
                            JoinKind::kHashJoin, opts, nullptr, schedule);
  EXPECT_GT(clean.injected, 0u);
  EXPECT_GE(TotalRetries(clean.result.metrics), 1u);

  for (uint64_t k : {1, 2}) {
    for (int threads : {1, 8}) {
      const std::string context = "suspend at barrier " + std::to_string(k) +
                                  " @" + std::to_string(threads) +
                                  " threads";
      RunRecord run = RunWith(
          threads, wl->normalized, ShuffleKind::kRegular,
          JoinKind::kHashJoin, opts,
          [&](QueryLifecycle* lc) { lc->SuspendAtBarrier(k); }, schedule);
      ExpectIdenticalOutcome(clean, run, context);
      EXPECT_EQ(run.injected, clean.injected) << context;
      EXPECT_EQ(TotalRetries(run.result.metrics),
                TotalRetries(clean.result.metrics))
          << context;
    }
  }
}

TEST(LifecycleSuspendTest, SingleRoundFamiliesNeverHonorSuspension) {
  WorkloadFactory factory(TinyScale());
  auto wl = factory.Make(3);
  ASSERT_TRUE(wl.ok()) << wl.status().ToString();
  StrategyOptions opts;
  opts.num_workers = 16;
  for (ShuffleKind shuffle :
       {ShuffleKind::kBroadcast, ShuffleKind::kHypercube}) {
    RunRecord run =
        RunWith(1, wl->normalized, shuffle, JoinKind::kHashJoin, opts,
                [](QueryLifecycle* lc) { lc->RequestSuspend(); });
    EXPECT_EQ(run.lifecycle.suspends, 0u);
    EXPECT_FALSE(run.result.metrics.failed) << run.result.metrics.fail_reason;
    EXPECT_GT(run.result.output.NumTuples(), 0u);
  }
}

// ---------------------------------------------------------------------------
// (2) Cancellation and deadlines: graceful FAIL at any poll point.
// ---------------------------------------------------------------------------

TEST(LifecycleCancelTest, CancelAtFirstPollFailsGracefullyAcrossMatrix) {
  WorkloadFactory factory(TinyScale());
  for (int q = 1; q <= 8; ++q) {
    auto wl = factory.Make(q);
    ASSERT_TRUE(wl.ok()) << wl.status().ToString();
    StrategyOptions opts;
    opts.num_workers = 16;
    for (const auto& [shuffle, join] : AllStrategies()) {
      const std::string context =
          wl->id + std::string(" ") + StrategyName(shuffle, join);
      RunRecord run =
          RunWith(1, wl->normalized, shuffle, join, opts,
                  [](QueryLifecycle* lc) { lc->CancelAfterPolls(1); });
      const QueryMetrics& m = run.result.metrics;
      EXPECT_TRUE(m.failed) << context;
      EXPECT_EQ(m.fail_code, StatusCode::kCancelled) << context;
      EXPECT_EQ(run.result.output.NumTuples(), 0u) << context;
      EXPECT_TRUE(run.lifecycle.cancelled) << context;
      EXPECT_EQ(run.lifecycle.polls, 1u) << context;
    }
  }
}

TEST(LifecycleCancelTest, CancelAtEveryPollPointIsDeterministic) {
  WorkloadFactory factory(TinyScale());
  auto wl = factory.Make(1);
  ASSERT_TRUE(wl.ok()) << wl.status().ToString();
  StrategyOptions opts;
  opts.num_workers = 16;

  for (const auto& [shuffle, join] :
       {std::pair{ShuffleKind::kRegular, JoinKind::kHashJoin},
        std::pair{ShuffleKind::kHypercube, JoinKind::kTributary}}) {
    const std::string name = StrategyName(shuffle, join);
    RunRecord clean = RunWith(1, wl->normalized, shuffle, join, opts);
    ASSERT_FALSE(clean.result.metrics.failed) << name;
    const uint64_t polls = clean.lifecycle.polls;
    ASSERT_GT(polls, 2u) << name;

    for (uint64_t n = 1; n <= polls; ++n) {
      const std::string context =
          name + " cancel at poll " + std::to_string(n) + "/" +
          std::to_string(polls);
      RunRecord at1 =
          RunWith(1, wl->normalized, shuffle, join, opts,
                  [&](QueryLifecycle* lc) { lc->CancelAfterPolls(n); });
      const QueryMetrics& m = at1.result.metrics;
      EXPECT_TRUE(m.failed) << context;
      EXPECT_EQ(m.fail_code, StatusCode::kCancelled) << context;
      EXPECT_EQ(at1.result.output.NumTuples(), 0u) << context;
      EXPECT_EQ(at1.lifecycle.polls, n) << context;

      // The decision point — and everything completed before it — is
      // bit-identical at any thread count: same partial counters, same
      // stage account.
      RunRecord at8 =
          RunWith(8, wl->normalized, shuffle, join, opts,
                  [&](QueryLifecycle* lc) { lc->CancelAfterPolls(n); });
      EXPECT_EQ(at8.result.metrics.fail_code, StatusCode::kCancelled)
          << context;
      EXPECT_EQ(at8.counters, at1.counters) << context;
      EXPECT_EQ(at8.result.metrics.stages.size(), m.stages.size())
          << context;
      EXPECT_EQ(at8.lifecycle.polls, n) << context;
    }
  }
}

// The poll points do not depend on whether a ResourceMeter is installed:
// the post-exchange poll runs with or without one, so CancelAfterPolls(n)
// stops at the same site either way.
TEST(LifecycleCancelTest, PollSequenceIsTheSameWithAndWithoutAMeter) {
  WorkloadFactory factory(TinyScale());
  auto wl = factory.Make(1);
  ASSERT_TRUE(wl.ok()) << wl.status().ToString();
  StrategyOptions opts;
  opts.num_workers = 16;

  for (const auto& [shuffle, join] :
       {std::pair{ShuffleKind::kRegular, JoinKind::kHashJoin},
        std::pair{ShuffleKind::kHypercube, JoinKind::kTributary}}) {
    const std::string name = StrategyName(shuffle, join);
    RunRecord metered = RunWith(1, wl->normalized, shuffle, join, opts);
    RunRecord bare = RunWith(1, wl->normalized, shuffle, join, opts, nullptr,
                             "", /*install_lifecycle=*/true,
                             /*install_meter=*/false);
    ASSERT_FALSE(metered.result.metrics.failed) << name;
    ASSERT_FALSE(bare.result.metrics.failed) << name;
    EXPECT_EQ(bare.lifecycle.polls, metered.lifecycle.polls) << name;

    for (uint64_t n = 1; n <= metered.lifecycle.polls; ++n) {
      const std::string context =
          name + " cancel at poll " + std::to_string(n);
      auto arm = [&](QueryLifecycle* lc) { lc->CancelAfterPolls(n); };
      RunRecord with = RunWith(1, wl->normalized, shuffle, join, opts, arm);
      RunRecord without =
          RunWith(1, wl->normalized, shuffle, join, opts, arm, "",
                  /*install_lifecycle=*/true, /*install_meter=*/false);
      EXPECT_EQ(without.result.metrics.fail_code, StatusCode::kCancelled)
          << context;
      EXPECT_EQ(without.lifecycle.polls, with.lifecycle.polls) << context;
      // The cancel message names the poll site.
      EXPECT_EQ(without.result.metrics.fail_reason,
                with.result.metrics.fail_reason)
          << context;
      EXPECT_EQ(without.result.metrics.stages.size(),
                with.result.metrics.stages.size())
          << context;
    }
  }
}

TEST(LifecycleDeadlineTest, DeadlineKnobTripsAsDeadlineExceeded) {
  WorkloadFactory factory(TinyScale());
  auto wl = factory.Make(3);
  ASSERT_TRUE(wl.ok()) << wl.status().ToString();
  StrategyOptions opts;
  opts.num_workers = 16;
  RunRecord run =
      RunWith(1, wl->normalized, ShuffleKind::kRegular, JoinKind::kHashJoin,
              opts, [](QueryLifecycle* lc) { lc->DeadlineAfterPolls(2); });
  const QueryMetrics& m = run.result.metrics;
  EXPECT_TRUE(m.failed);
  EXPECT_EQ(m.fail_code, StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(run.lifecycle.deadline_exceeded);
  EXPECT_EQ(run.lifecycle.polls, 2u);
}

TEST(LifecycleDeadlineTest, ExpiredWallClockDeadlineTripsAtFirstPoll) {
  WorkloadFactory factory(TinyScale());
  auto wl = factory.Make(1);
  ASSERT_TRUE(wl.ok()) << wl.status().ToString();
  StrategyOptions opts;
  opts.num_workers = 16;
  RunRecord run =
      RunWith(1, wl->normalized, ShuffleKind::kRegular, JoinKind::kHashJoin,
              opts, [](QueryLifecycle* lc) { lc->SetDeadline(0.0); });
  EXPECT_TRUE(run.result.metrics.failed);
  EXPECT_EQ(run.result.metrics.fail_code, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(run.lifecycle.polls, 1u);
}

TEST(LifecycleCancelTest, CancelledRunKeepsPartialMetrics) {
  WorkloadFactory factory(TinyScale());
  auto wl = factory.Make(3);
  ASSERT_TRUE(wl.ok()) << wl.status().ToString();
  StrategyOptions opts;
  opts.num_workers = 16;
  RunRecord clean = RunWith(1, wl->normalized, ShuffleKind::kRegular,
                            JoinKind::kHashJoin, opts);
  const uint64_t polls = clean.lifecycle.polls;
  ASSERT_GT(polls, 3u);
  // Cancelling late in the run leaves the completed rounds' account in the
  // metrics (the partial-metrics contract of a graceful FAIL).
  RunRecord late = RunWith(
      1, wl->normalized, ShuffleKind::kRegular, JoinKind::kHashJoin, opts,
      [&](QueryLifecycle* lc) { lc->CancelAfterPolls(polls - 1); });
  EXPECT_TRUE(late.result.metrics.failed);
  EXPECT_EQ(late.result.metrics.fail_code, StatusCode::kCancelled);
  EXPECT_GT(late.result.metrics.stages.size(), 0u);
  EXPECT_GT(late.result.metrics.TuplesShuffled(), 0u);
  EXPECT_FALSE(late.result.metrics.fail_reason.empty());
}

// ---------------------------------------------------------------------------
// (3) Stage watchdog.
// ---------------------------------------------------------------------------

TEST(WatchdogTest, TransientStragglerIsRetriedAndConvergesToCleanRun) {
  WorkloadFactory factory(TinyScale());
  auto wl = factory.Make(3);
  ASSERT_TRUE(wl.ok()) << wl.status().ToString();
  StrategyOptions opts;
  opts.num_workers = 16;
  RunRecord clean = RunWith(1, wl->normalized, ShuffleKind::kRegular,
                            JoinKind::kHashJoin, opts);

  // Worker 2's first attempt of every stage is 8x slow; the watchdog
  // (threshold 4x) treats it as hung and replays the stage. The retry's
  // attempt is fault-free, so the run converges to the clean answer.
  StrategyOptions wd = opts;
  wd.recovery.watchdog_straggle_factor = 4.0;
  for (int threads : {1, 8}) {
    RunRecord run =
        RunWith(threads, wl->normalized, ShuffleKind::kRegular,
                JoinKind::kHashJoin, wd, nullptr,
                "slow@worker=2,attempt=0,factor=8");
    const std::string context =
        "watchdog @" + std::to_string(threads) + " threads";
    EXPECT_FALSE(run.result.metrics.failed)
        << context << ": " << run.result.metrics.fail_reason;
    EXPECT_GE(run.lifecycle.watchdog_trips, 1u) << context;
    EXPECT_GE(TotalRetries(run.result.metrics), 1u) << context;
    EXPECT_EQ(run.result.output.data(), clean.result.output.data())
        << context;
    uint64_t trips = 0;
    for (const auto& [cname, value] : run.counters) {
      if (cname == "lifecycle.watchdog_trips") trips = value;
    }
    EXPECT_GE(trips, 1u) << context;
  }
}

TEST(WatchdogTest, PersistentStragglerFailsGracefully) {
  WorkloadFactory factory(TinyScale());
  auto wl = factory.Make(3);
  ASSERT_TRUE(wl.ok()) << wl.status().ToString();
  StrategyOptions opts;
  opts.num_workers = 16;
  opts.recovery.watchdog_straggle_factor = 4.0;
  // attempt=* makes the straggler survive every retry: the ladder runs out
  // and the run FAILs gracefully, naming the watchdog.
  RunRecord run = RunWith(1, wl->normalized, ShuffleKind::kRegular,
                          JoinKind::kHashJoin, opts, nullptr,
                          "slow@worker=2,attempt=*,factor=8");
  EXPECT_TRUE(run.result.metrics.failed);
  EXPECT_NE(run.result.metrics.fail_reason.find("watchdog"),
            std::string::npos)
      << run.result.metrics.fail_reason;
  EXPECT_EQ(run.result.output.NumTuples(), 0u);
}

TEST(WatchdogTest, DisabledWatchdogLeavesStragglersAsPerformanceFaults) {
  WorkloadFactory factory(TinyScale());
  auto wl = factory.Make(3);
  ASSERT_TRUE(wl.ok()) << wl.status().ToString();
  StrategyOptions opts;
  opts.num_workers = 16;
  ASSERT_EQ(opts.recovery.watchdog_straggle_factor, 0.0);
  RunRecord run = RunWith(1, wl->normalized, ShuffleKind::kRegular,
                          JoinKind::kHashJoin, opts, nullptr,
                          "slow@worker=2,attempt=0,factor=8");
  EXPECT_FALSE(run.result.metrics.failed);
  EXPECT_EQ(TotalRetries(run.result.metrics), 0u);
  EXPECT_EQ(run.lifecycle.watchdog_trips, 0u);
}

// ---------------------------------------------------------------------------
// Observability surface.
// ---------------------------------------------------------------------------

TEST(LifecycleExplainTest, ExplainRendersLifecycleSection) {
  WorkloadFactory factory(TinyScale());
  auto wl = factory.Make(3);
  ASSERT_TRUE(wl.ok()) << wl.status().ToString();
  StrategyOptions opts;
  opts.num_workers = 16;
  RunRecord run = RunWith(
      1, wl->normalized, ShuffleKind::kRegular, JoinKind::kHashJoin, opts,
      [](QueryLifecycle* lc) { lc->SuspendAtBarrier(1); });
  ASSERT_GT(run.lifecycle.polls, 0u);
  ExplainOptions eo;
  eo.include_timings = false;
  eo.lifecycle = &run.lifecycle;
  const std::string text = ExplainAnalyzeText("RS_HJ", run.result, eo);
  EXPECT_NE(text.find("lifecycle:"), std::string::npos) << text;
  EXPECT_NE(text.find("polls:"), std::string::npos) << text;
  EXPECT_NE(text.find("suspends:"), std::string::npos) << text;
}

TEST(LifecycleStatusTest, NewStatusCodesRoundTrip) {
  const Status c = Status::Cancelled("stop");
  EXPECT_EQ(c.code(), StatusCode::kCancelled);
  EXPECT_NE(c.ToString().find("Cancelled"), std::string::npos);
  const Status d = Status::DeadlineExceeded("late");
  EXPECT_EQ(d.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(d.ToString().find("DeadlineExceeded"), std::string::npos);
}

}  // namespace
}  // namespace ptp
