// Deterministic fault injection + recovery (docs/ROBUSTNESS.md). The core
// contract under test: a recoverable fault schedule must not change query
// results — every faulted run converges, via lineage replay and (when
// needed) plan degradation, to the same gathered output as the fault-free
// run, with the retries visible in the metrics; and recovery itself is
// bit-identical at every thread count.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "data/workloads.h"
#include "exec/recovery.h"
#include "exec/shuffle.h"
#include "fault/fault.h"
#include "gtest/gtest.h"
#include "obs/counters.h"
#include "obs/explain.h"
#include "plan/semijoin_plan.h"
#include "plan/strategies.h"
#include "runtime/parallel.h"
#include "test_util.h"

namespace ptp {
namespace {

using test::TinyScale;
using test::TotalRetries;

// ---------------------------------------------------------------------------
// FaultPlan grammar.
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, ParsesEveryKindAndKey) {
  auto plan = FaultPlan::Parse(
      "crash@worker=3,stage=join_1; crashmid@site=2,attempt=1; "
      "err@attempt=*; slow@worker=2,factor=8; "
      "drop@x=0,p=1,c=2; dup@p=4,label=HCS R(x, y)");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->specs.size(), 6u);

  EXPECT_EQ(plan->specs[0].kind, FaultKind::kCrashBefore);
  EXPECT_EQ(plan->specs[0].label, "join_1");
  EXPECT_EQ(plan->specs[0].worker, 3);
  EXPECT_EQ(plan->specs[0].attempt, 0);

  EXPECT_EQ(plan->specs[1].kind, FaultKind::kCrashDuring);
  EXPECT_EQ(plan->specs[1].site, 2);
  EXPECT_EQ(plan->specs[1].attempt, 1);

  EXPECT_EQ(plan->specs[2].kind, FaultKind::kOperatorError);
  EXPECT_EQ(plan->specs[2].attempt, FaultSpec::kEveryAttempt);

  EXPECT_EQ(plan->specs[3].kind, FaultKind::kStragglerDelay);
  EXPECT_DOUBLE_EQ(plan->specs[3].factor, 8.0);

  EXPECT_EQ(plan->specs[4].kind, FaultKind::kShuffleDrop);
  EXPECT_EQ(plan->specs[4].site, 0);
  EXPECT_EQ(plan->specs[4].producer, 1);
  EXPECT_EQ(plan->specs[4].consumer, 2);

  // Exchange labels keep interior spaces.
  EXPECT_EQ(plan->specs[5].kind, FaultKind::kShuffleDup);
  EXPECT_EQ(plan->specs[5].label, "HCS R(x, y)");
}

TEST(FaultPlanTest, RejectsMalformedSchedules) {
  EXPECT_FALSE(FaultPlan::Parse("explode@worker=1").ok());
  EXPECT_FALSE(FaultPlan::Parse("crash@worker=abc").ok());
  EXPECT_FALSE(FaultPlan::Parse("drop@p=").ok());
  EXPECT_FALSE(FaultPlan::Parse("crash@worker").ok());
  EXPECT_FALSE(FaultPlan::Parse("slow@factor=fast").ok());
  EXPECT_FALSE(FaultPlan::Parse("crash@turbo=1").ok());
}

TEST(FaultPlanTest, ToStringRoundTrips) {
  const std::string text =
      "crash@worker=3,stage=join_1;err@attempt=*;slow@worker=2,factor=8;"
      "drop@x=0,p=1,c=2;dup@p=4,label=HCS R(x, y)";
  auto plan = FaultPlan::Parse(text);
  ASSERT_TRUE(plan.ok());
  auto reparsed = FaultPlan::Parse(plan->ToString());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->ToString(), plan->ToString());
}

TEST(FaultPlanTest, RandomIsDeterministicPerSeed) {
  FaultPlan a = FaultPlan::Random(7, 5, 16);
  FaultPlan b = FaultPlan::Random(7, 5, 16);
  FaultPlan c = FaultPlan::Random(8, 5, 16);
  ASSERT_EQ(a.specs.size(), 5u);
  EXPECT_EQ(a.ToString(), b.ToString());
  EXPECT_NE(a.ToString(), c.ToString());
  // The grammar's `rand` event expands to the same schedule.
  auto parsed = FaultPlan::Parse("rand@n=5,seed=7,workers=16");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->ToString(), a.ToString());
  // Random schedules are recoverable by construction: single-attempt
  // faults only, never persistent, never stragglers.
  for (const FaultSpec& spec : a.specs) {
    EXPECT_EQ(spec.attempt, 0) << spec.ToString();
    EXPECT_NE(spec.kind, FaultKind::kStragglerDelay) << spec.ToString();
  }
}

// ---------------------------------------------------------------------------
// FaultInjector matching.
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, ResetRestartsSiteNumbering) {
  FaultInjector injector(FaultPlan{});
  EXPECT_EQ(injector.RegisterStage("a"), 0);
  EXPECT_EQ(injector.RegisterStage("b"), 1);
  EXPECT_EQ(injector.RegisterExchange("x"), 0);
  injector.Reset();
  EXPECT_EQ(injector.RegisterStage("a"), 0);
  EXPECT_EQ(injector.RegisterExchange("x"), 0);
}

TEST(FaultInjectorTest, DropWinsOverDuplicateOnTheSameChannel) {
  auto plan = FaultPlan::Parse("dup@p=0;drop@p=0");
  ASSERT_TRUE(plan.ok());
  FaultInjector injector(std::move(plan).value());
  EXPECT_EQ(injector.OnChannel(0, "x", 0, 0, 0),
            FaultInjector::ChannelFault::kDrop);
  EXPECT_EQ(injector.OnChannel(0, "x", 1, 0, 0),
            FaultInjector::ChannelFault::kNone);
}

TEST(FaultInjectorTest, StageMatchingRespectsEveryField) {
  auto plan = FaultPlan::Parse("crash@worker=3,attempt=1,stage=join_1");
  ASSERT_TRUE(plan.ok());
  FaultInjector injector(std::move(plan).value());
  EXPECT_TRUE(injector.OnStage(0, "join_1", 3, 1).crash_before);
  EXPECT_FALSE(injector.OnStage(0, "join_2", 3, 1).any());  // label
  EXPECT_FALSE(injector.OnStage(0, "join_1", 4, 1).any());  // worker
  EXPECT_FALSE(injector.OnStage(0, "join_1", 3, 0).any());  // attempt
  EXPECT_EQ(injector.injected(), 1u);
}

TEST(RecoveryTest, InternalIsRetryableOnlyUnderAnInjector) {
  const Status internal = Status::Internal("conservation violated");
  EXPECT_FALSE(IsRetryableFailure(internal));
  FaultInjector injector(FaultPlan{});
  {
    runtime::ScopedQueryContext sinks({.faults = &injector});
    EXPECT_TRUE(IsRetryableFailure(internal));
    EXPECT_TRUE(IsRetryableFailure(Status::Unavailable("crash")));
    EXPECT_FALSE(IsRetryableFailure(Status::ResourceExhausted("budget")));
  }
  // kUnavailable is always retryable; it only originates from injection.
  EXPECT_TRUE(IsRetryableFailure(Status::Unavailable("crash")));
}

// ---------------------------------------------------------------------------
// Shuffle-level faults: conservation invariant and sequence-tag dedup.
// ---------------------------------------------------------------------------

TEST(ShuffleFaultTest, DroppedChannelTripsConservationInvariant) {
  Rng rng(3);
  Relation rel = test::RandomBinaryRelation("R", {"x", "y"}, 300, 40, &rng);
  DistributedRelation dist = PartitionRoundRobin(rel, 8);

  auto plan = FaultPlan::Parse("drop@attempt=*");  // every channel, always
  ASSERT_TRUE(plan.ok());
  FaultInjector injector(std::move(plan).value());
  runtime::ScopedQueryContext sinks({.faults = &injector});
  Result<ShuffleResult> r = HashShuffle(dist, {0}, 8, 7, "lossy");

  // The invariant reports the loss as a Status, never a crash.
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_NE(r.status().ToString().find("conservation"), std::string::npos)
      << r.status().ToString();
}

TEST(ShuffleFaultTest, DuplicatedChannelIsDedupedBySequenceTag) {
  Rng rng(4);
  Relation rel = test::RandomBinaryRelation("R", {"x", "y"}, 300, 40, &rng);
  DistributedRelation dist = PartitionRoundRobin(rel, 8);
  ShuffleResult clean = HashShuffle(dist, {0}, 8, 7, "t").value();

  auto plan = FaultPlan::Parse("dup@p=0;dup@p=3");
  ASSERT_TRUE(plan.ok());
  FaultInjector injector(std::move(plan).value());
  runtime::ScopedQueryContext sinks({.faults = &injector});
  Result<ShuffleResult> r = HashShuffle(dist, {0}, 8, 7, "t");

  // Both copies carry the same (producer, epoch) tag; the consumer keeps
  // the first and the merged fragments are bit-identical to the clean run.
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->data.size(), clean.data.size());
  for (size_t w = 0; w < clean.data.size(); ++w) {
    EXPECT_EQ(r->data[w].data(), clean.data[w].data()) << "worker " << w;
  }
  EXPECT_EQ(r->metrics.tuples_sent, clean.metrics.tuples_sent);
  EXPECT_EQ(r->metrics.dups_deduped, 16u);  // 2 producers x 8 consumers
}

// ---------------------------------------------------------------------------
// End-to-end recovery across the full strategy matrix.
// ---------------------------------------------------------------------------

struct RunRecord {
  StrategyResult result;
  std::vector<std::pair<std::string, uint64_t>> counters;
  uint64_t injected = 0;
};

RunRecord RunWith(int threads, const NormalizedQuery& q, ShuffleKind shuffle,
                  JoinKind join, const StrategyOptions& opts,
                  const std::string& faults = "") {
  runtime::SetThreads(threads);
  CounterRegistry registry;
  std::unique_ptr<FaultInjector> injector;
  if (!faults.empty()) {
    auto plan = FaultPlan::Parse(faults);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    injector = std::make_unique<FaultInjector>(std::move(plan).value());
  }
  auto result = [&] {
    runtime::ScopedQueryContext sinks(
        {.counters = &registry, .faults = injector.get()});
    return RunStrategy(q, shuffle, join, opts);
  }();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  RunRecord record;
  record.result = std::move(result).value();
  record.counters = registry.CounterSnapshot();
  if (injector != nullptr) record.injected = injector->injected();
  runtime::SetThreads(0);
  return record;
}

// Recoverable schedules: every stage loses worker 3 once; the second also
// loses one channel of the first exchange and duplicates another.
const char* kSingleFault = "crash@worker=3";
const char* kTwoFaults = "crash@worker=5;drop@x=0,p=1,c=2;dup@x=0,p=0";

class FaultMatrix : public ::testing::TestWithParam<int> {
  void TearDown() override { runtime::SetThreads(0); }
};

TEST_P(FaultMatrix, RecoveredRunsMatchFaultFreeRuns) {
  WorkloadFactory factory(TinyScale());
  auto wl = factory.Make(GetParam());
  ASSERT_TRUE(wl.ok()) << wl.status().ToString();

  StrategyOptions opts;
  opts.num_workers = 16;

  for (const auto& [shuffle, join] : AllStrategies()) {
    const std::string name = StrategyName(shuffle, join);
    RunRecord clean = RunWith(1, wl->normalized, shuffle, join, opts);
    for (const char* schedule : {kSingleFault, kTwoFaults}) {
      const std::string context =
          wl->id + " " + name + " [" + schedule + "]";
      RunRecord faulted = RunWith(8, wl->normalized, shuffle, join, opts,
                                  schedule);
      const QueryMetrics& fm = faulted.result.metrics;

      // Faults fired and were retried...
      EXPECT_GT(faulted.injected, 0u) << context;
      EXPECT_GE(TotalRetries(fm), 1u) << context;
      EXPECT_GT(fm.backoff_seconds, 0.0) << context;
      EXPECT_TRUE(fm.degradations.empty()) << context;

      // ...and the recovered run converges to the fault-free answer:
      // bit-identical gathered output, identical tuple movement.
      EXPECT_FALSE(fm.failed) << context << ": " << fm.fail_reason;
      EXPECT_EQ(faulted.result.output.data(), clean.result.output.data())
          << context << ": recovered output differs from fault-free run";
      const QueryMetrics& cm = clean.result.metrics;
      ASSERT_EQ(fm.shuffles.size(), cm.shuffles.size()) << context;
      for (size_t i = 0; i < cm.shuffles.size(); ++i) {
        EXPECT_EQ(fm.shuffles[i].label, cm.shuffles[i].label) << context;
        EXPECT_EQ(fm.shuffles[i].tuples_sent, cm.shuffles[i].tuples_sent)
            << context << ": shuffle " << cm.shuffles[i].label;
      }

      // Recovery is deterministic: a 1-thread replay of the same schedule
      // is indistinguishable, counters included.
      RunRecord serial = RunWith(1, wl->normalized, shuffle, join, opts,
                                 schedule);
      EXPECT_EQ(serial.result.output.data(), faulted.result.output.data())
          << context << ": recovery diverges across thread counts";
      EXPECT_EQ(serial.injected, faulted.injected) << context;
      EXPECT_EQ(TotalRetries(serial.result.metrics), TotalRetries(fm))
          << context;
      EXPECT_EQ(serial.counters, faulted.counters) << context;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Q1toQ8, FaultMatrix, ::testing::Range(1, 9),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "Q" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Retry accounting.
// ---------------------------------------------------------------------------

TEST(RecoveryAccountingTest, BackoffIsExponentialInTheAttemptNumber) {
  WorkloadFactory factory(TinyScale());
  auto wl = factory.Make(1);
  ASSERT_TRUE(wl.ok());

  StrategyOptions opts;
  opts.num_workers = 16;
  opts.recovery.backoff_base_seconds = 0.125;

  // Every stage fails its first two attempts and succeeds on the third:
  // retries = 2 per stage, booked backoff = base * (2^2 - 1) per stage.
  RunRecord r = RunWith(1, wl->normalized, ShuffleKind::kRegular,
                        JoinKind::kHashJoin, opts, "err@attempt=0;err@attempt=1");
  const QueryMetrics& m = r.result.metrics;
  EXPECT_FALSE(m.failed) << m.fail_reason;
  double expected = 0.0;
  size_t retried_stages = 0;
  for (const StageMetrics& s : m.stages) {
    if (s.retries == 0) continue;
    EXPECT_EQ(s.retries, 2u) << s.label;
    ++retried_stages;
    expected += 0.125 * static_cast<double>((1 << s.retries) - 1);
  }
  EXPECT_GE(retried_stages, 1u);
  EXPECT_NEAR(m.backoff_seconds, expected, 1e-12);
  // wall clock includes the virtual backoff delay.
  EXPECT_GE(m.wall_seconds, m.backoff_seconds);

  // Counter accounting matches: one retry.attempts per booked retry.
  uint64_t retry_attempts = 0;
  for (const auto& [name, value] : r.counters) {
    if (name == "retry.attempts") retry_attempts = value;
  }
  EXPECT_EQ(retry_attempts, 2u * retried_stages);
}

TEST(RecoveryAccountingTest, StragglerDelayInflatesCostWithoutRetries) {
  WorkloadFactory factory(TinyScale());
  auto wl = factory.Make(1);
  ASSERT_TRUE(wl.ok());

  StrategyOptions opts;
  opts.num_workers = 16;
  RunRecord clean = RunWith(1, wl->normalized, ShuffleKind::kRegular,
                            JoinKind::kHashJoin, opts);
  RunRecord slow = RunWith(1, wl->normalized, ShuffleKind::kRegular,
                           JoinKind::kHashJoin, opts, "slow@worker=2,factor=8");

  // A straggler changes the bill, never the data or the retry count.
  EXPECT_GT(slow.injected, 0u);
  EXPECT_EQ(TotalRetries(slow.result.metrics), 0u);
  EXPECT_DOUBLE_EQ(slow.result.metrics.backoff_seconds, 0.0);
  EXPECT_EQ(slow.result.output.data(), clean.result.output.data());
  uint64_t slow_faults = 0;
  for (const auto& [name, value] : slow.counters) {
    if (name == "fault.slow") slow_faults = value;
  }
  EXPECT_GT(slow_faults, 0u);
}

// ---------------------------------------------------------------------------
// Graceful degradation: persistent faults force a cheaper plan, not an abort.
// ---------------------------------------------------------------------------

TEST(DegradationTest, LocalTributaryPhaseFallsBackToHashJoin) {
  WorkloadFactory factory(TinyScale());
  auto wl = factory.Make(1);
  ASSERT_TRUE(wl.ok());

  StrategyOptions opts;
  opts.num_workers = 16;
  RunRecord clean = RunWith(1, wl->normalized, ShuffleKind::kBroadcast,
                            JoinKind::kTributary, opts);
  // The TJ phase errors on every attempt; the HJ fallback registers a fresh
  // fault site under a new label, out of this spec's reach.
  RunRecord degraded = RunWith(1, wl->normalized, ShuffleKind::kBroadcast,
                               JoinKind::kTributary, opts,
                               "err@attempt=*,stage=local TJ");

  const QueryMetrics& m = degraded.result.metrics;
  EXPECT_FALSE(m.failed) << m.fail_reason;
  ASSERT_EQ(m.degradations.size(), 1u);
  EXPECT_EQ(m.degradations[0], "local phase: tributary join -> hash join");
  bool saw_abandoned = false, saw_fallback = false;
  for (const StageMetrics& s : m.stages) {
    if (s.label == "local TJ") {
      saw_abandoned = true;
      EXPECT_TRUE(s.degraded);
      EXPECT_EQ(s.retries, 3u);  // default max_retries, all exhausted
    }
    if (s.label == "local TJ (degraded to HJ)") {
      saw_fallback = true;
      EXPECT_FALSE(s.degraded);
      EXPECT_EQ(s.retries, 0u);
    }
  }
  EXPECT_TRUE(saw_abandoned);
  EXPECT_TRUE(saw_fallback);
  // The degraded plan computes the same query.
  EXPECT_TRUE(degraded.result.output.EqualsUnordered(clean.result.output));

  // EXPLAIN ANALYZE surfaces the recovery story.
  ExplainOptions eo;
  eo.include_timings = false;
  const std::string text =
      ExplainAnalyzeText("BR_TJ", degraded.result, eo);
  EXPECT_NE(text.find("DEGRADED: local phase"), std::string::npos) << text;
  EXPECT_NE(text.find("local TJ (degraded to HJ)"), std::string::npos)
      << text;
}

TEST(DegradationTest, TributaryRoundFallsBackToHashJoin) {
  WorkloadFactory factory(TinyScale());
  auto wl = factory.Make(1);
  ASSERT_TRUE(wl.ok());

  StrategyOptions opts;
  opts.num_workers = 16;
  RunRecord clean = RunWith(1, wl->normalized, ShuffleKind::kRegular,
                            JoinKind::kTributary, opts);
  RunRecord degraded = RunWith(1, wl->normalized, ShuffleKind::kRegular,
                               JoinKind::kTributary, opts,
                               "err@attempt=*,stage=join_1");

  const QueryMetrics& m = degraded.result.metrics;
  EXPECT_FALSE(m.failed) << m.fail_reason;
  ASSERT_EQ(m.degradations.size(), 1u);
  EXPECT_EQ(m.degradations[0], "join_1: tributary join -> hash join");
  bool saw_fallback = false;
  for (const StageMetrics& s : m.stages) {
    if (s.label == "join_1 (degraded to HJ)") saw_fallback = true;
  }
  EXPECT_TRUE(saw_fallback);
  EXPECT_TRUE(degraded.result.output.EqualsUnordered(clean.result.output));
}

TEST(DegradationTest, HypercubeShuffleFallsBackToRegularShuffle) {
  WorkloadFactory factory(TinyScale());
  auto wl = factory.Make(1);
  ASSERT_TRUE(wl.ok());

  StrategyOptions opts;
  opts.num_workers = 16;
  RunRecord clean = RunWith(1, wl->normalized, ShuffleKind::kHypercube,
                            JoinKind::kHashJoin, opts);
  // Exchange site 0 (the first HCS shuffle) loses every channel on every
  // attempt. The regular-shuffle fallback's exchanges register later
  // ordinals, so the spec cannot touch them.
  RunRecord degraded = RunWith(1, wl->normalized, ShuffleKind::kHypercube,
                               JoinKind::kHashJoin, opts,
                               "drop@x=0,attempt=*");

  const QueryMetrics& m = degraded.result.metrics;
  EXPECT_FALSE(m.failed) << m.fail_reason;
  ASSERT_EQ(m.degradations.size(), 1u);
  EXPECT_NE(m.degradations[0].find("hypercube shuffle -> regular hash"),
            std::string::npos);
  // The HC configuration that was attempted stays reported.
  EXPECT_FALSE(degraded.result.hc_config.dims.empty());
  EXPECT_TRUE(degraded.result.output.EqualsUnordered(clean.result.output));
}

TEST(DegradationTest, PersistentWildcardCrashFailsGracefully) {
  WorkloadFactory factory(TinyScale());
  auto wl = factory.Make(1);
  ASSERT_TRUE(wl.ok());

  StrategyOptions opts;
  opts.num_workers = 16;
  // Every worker of every stage crashes on every attempt — even the
  // degradation fallbacks. No plan survives; the run must FAIL gracefully
  // (a data point, like budget exhaustion), never return an error Status.
  for (const auto& [shuffle, join] : AllStrategies()) {
    RunRecord r = RunWith(1, wl->normalized, shuffle, join, opts,
                          "crash@attempt=*");
    const std::string name = StrategyName(shuffle, join);
    EXPECT_TRUE(r.result.metrics.failed) << name;
    EXPECT_NE(r.result.metrics.fail_reason.find("retries"),
              std::string::npos)
        << name << ": " << r.result.metrics.fail_reason;
    EXPECT_EQ(r.result.output.NumTuples(), 0u) << name;
    uint64_t exhausted = 0;
    for (const auto& [cname, value] : r.counters) {
      if (cname == "retry.exhausted") exhausted = value;
    }
    EXPECT_GE(exhausted, 1u) << name;
  }
}

// ---------------------------------------------------------------------------
// Semijoin plan recovery.
// ---------------------------------------------------------------------------

TEST(SemijoinRecoveryTest, ExchangeRetriesConvergeToFaultFreeResult) {
  WorkloadFactory factory(TinyScale());
  StrategyOptions opts;
  opts.num_workers = 16;
  for (int qn = 1; qn <= 8; ++qn) {
    auto wl = factory.Make(qn);
    ASSERT_TRUE(wl.ok());
    if (wl->cyclic) continue;

    auto clean = RunSemijoinPlan(wl->query, wl->normalized, opts, nullptr);
    ASSERT_TRUE(clean.ok()) << wl->id;

    auto plan = FaultPlan::Parse("drop@p=0,c=0");
    ASSERT_TRUE(plan.ok());
    FaultInjector injector(std::move(plan).value());
    runtime::ScopedQueryContext sinks({.faults = &injector});
    auto faulted = RunSemijoinPlan(wl->query, wl->normalized, opts, nullptr);

    ASSERT_TRUE(faulted.ok()) << wl->id << ": " << faulted.status().ToString();
    EXPECT_FALSE(faulted->metrics.failed)
        << wl->id << ": " << faulted->metrics.fail_reason;
    EXPECT_EQ(faulted->output.data(), clean->output.data()) << wl->id;
    EXPECT_GE(TotalRetries(faulted->metrics), 1u) << wl->id;
  }
}

}  // namespace
}  // namespace ptp
