#include "plan/semijoin_plan.h"

#include <string>
#include <utility>

#include "exec/lifecycle.h"
#include "fault/fault.h"
#include "gtest/gtest.h"
#include "obs/profile.h"
#include "query/parser.h"
#include "runtime/parallel.h"
#include "test_util.h"

namespace ptp {
namespace {

struct QuerySetup {
  ConjunctiveQuery query;
  NormalizedQuery normalized;
  Relation expected;
};

QuerySetup MakeSetup(const char* text, uint64_t seed, size_t tuples, Value domain) {
  Rng rng(seed);
  auto parsed = ParseDatalog(text, nullptr);
  PTP_CHECK(parsed.ok()) << parsed.status().ToString();
  Catalog catalog;
  for (const Atom& atom : parsed->atoms()) {
    if (!catalog.Contains(atom.relation)) {
      catalog.Put(test::RandomBinaryRelation(atom.relation, atom.Variables(),
                                             tuples, domain, &rng));
    }
  }
  auto nq = Normalize(*parsed, catalog);
  PTP_CHECK(nq.ok());
  QuerySetup s{*parsed, std::move(nq).value(), Relation()};
  Relation full = test::BruteForceJoin(s.normalized);
  std::vector<int> cols;
  for (const std::string& v : s.normalized.head_vars) {
    cols.push_back(full.schema().IndexOf(v));
  }
  s.expected = full.PermuteColumns(cols, "expected");
  if (s.normalized.head_vars.size() < s.normalized.Variables().size()) {
    s.expected.SortAndDedup();
  }
  return s;
}

TEST(SemijoinPlanTest, PathQueryMatchesBruteForce) {
  QuerySetup s = MakeSetup("P(x,w) :- R(x,y), S(y,z), U(z,w).", 41, 100, 10);
  StrategyOptions opts;
  opts.num_workers = 6;
  SemijoinBreakdown breakdown;
  auto result = RunSemijoinPlan(s.query, s.normalized, opts, &breakdown);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->output.EqualsUnordered(s.expected));
  EXPECT_GT(breakdown.projected_tuples_shuffled, 0u);
  EXPECT_GT(breakdown.input_tuples_shuffled, 0u);
}

TEST(SemijoinPlanTest, StarQueryMatchesBruteForce) {
  QuerySetup s = MakeSetup("Q(a) :- HA(h,aw), HC(h,a), HY(h,y), N(aw,n).", 43, 80,
                      8);
  StrategyOptions opts;
  opts.num_workers = 4;
  auto result = RunSemijoinPlan(s.query, s.normalized, opts, nullptr);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->output.EqualsUnordered(s.expected));
}

TEST(SemijoinPlanTest, RemovesDanglingTuples) {
  // R(x,y) joins S(y,z) where S only covers half of y's domain: the
  // reduction must shrink R.
  Relation r("R", Schema{"x", "y"});
  Relation s("S", Schema{"y", "z"});
  for (Value i = 0; i < 100; ++i) r.AddTuple({i, i % 10});
  for (Value y = 0; y < 5; ++y) s.AddTuple({y, y + 100});
  Catalog catalog;
  catalog.Put(r);
  catalog.Put(s);
  auto parsed = ParseDatalog("Q(x,z) :- R(x,y), S(y,z).", nullptr);
  ASSERT_TRUE(parsed.ok());
  auto nq = Normalize(*parsed, catalog);
  ASSERT_TRUE(nq.ok());
  StrategyOptions opts;
  opts.num_workers = 4;
  SemijoinBreakdown breakdown;
  auto result = RunSemijoinPlan(*parsed, *nq, opts, &breakdown);
  ASSERT_TRUE(result.ok());
  // R had 100 tuples; only those with y in [0,5) survive (50).
  bool found_r = false;
  for (const auto& [before, after] : breakdown.reduction_per_atom) {
    if (before == 100) {
      EXPECT_EQ(after, 50u);
      found_r = true;
    }
  }
  EXPECT_TRUE(found_r);
}

TEST(SemijoinPlanTest, CyclicQueryRejected) {
  QuerySetup s = MakeSetup("T(x,y,z) :- R(x,y), S(y,z), U(z,x).", 45, 50, 8);
  StrategyOptions opts;
  opts.num_workers = 4;
  auto result = RunSemijoinPlan(s.query, s.normalized, opts, nullptr);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(SemijoinPlanTest, MetricsIncludeSemijoinShuffles) {
  QuerySetup s = MakeSetup("P(x,w) :- R(x,y), S(y,z), U(z,w).", 47, 100, 10);
  StrategyOptions opts;
  opts.num_workers = 4;
  auto semi = RunSemijoinPlan(s.query, s.normalized, opts, nullptr);
  auto plain = RunStrategy(s.normalized, ShuffleKind::kRegular,
                           JoinKind::kHashJoin, opts);
  ASSERT_TRUE(semi.ok() && plain.ok());
  // The semijoin plan has a longer pipeline: strictly more shuffle steps.
  EXPECT_GT(semi->metrics.shuffles.size(), plain->metrics.shuffles.size());
}

// A persistently lost exchange FAILs the plan gracefully with the same
// failure classification as the six strategies.
TEST(SemijoinPlanTest, ExhaustedExchangeFailsGracefullyAsUnavailable) {
  QuerySetup s = MakeSetup("P(x,w) :- R(x,y), S(y,z), U(z,w).", 41, 100, 10);
  StrategyOptions opts;
  opts.num_workers = 4;
  auto plan = FaultPlan::Parse("drop@attempt=*");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  FaultInjector injector(std::move(plan).value());
  runtime::ScopedQueryContext sinks({.faults = &injector});
  auto result = RunSemijoinPlan(s.query, s.normalized, opts, nullptr);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->metrics.failed);
  EXPECT_EQ(result->metrics.fail_code, StatusCode::kUnavailable);
  EXPECT_NE(result->metrics.fail_reason.find("exchange '"), std::string::npos)
      << result->metrics.fail_reason;
  EXPECT_EQ(result->output.NumTuples(), 0u);
}

// A cancel that lands at the plan's first poll (the first key projection's
// recovery loop) is a graceful kCancelled FAIL, not an error status.
TEST(SemijoinPlanTest, CancelAtFirstPollFailsGracefully) {
  QuerySetup s = MakeSetup("P(x,w) :- R(x,y), S(y,z), U(z,w).", 41, 100, 10);
  StrategyOptions opts;
  opts.num_workers = 4;
  QueryLifecycle lifecycle;
  lifecycle.CancelAfterPolls(1);
  runtime::ScopedQueryContext sinks({.lifecycle = &lifecycle});
  auto result = RunSemijoinPlan(s.query, s.normalized, opts, nullptr);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->metrics.failed);
  EXPECT_EQ(result->metrics.fail_code, StatusCode::kCancelled);
  EXPECT_TRUE(lifecycle.stats().cancelled);
  EXPECT_EQ(lifecycle.stats().polls, 1u);
  EXPECT_EQ(result->output.NumTuples(), 0u);
}

// ---------------------------------------------------------------------------
// One run frame: the reduction and the final join are one plan run, with
// one fault-site numbering and one profile section.
// ---------------------------------------------------------------------------

// Runs the semijoin plan on paper query `qn` at test size, W = 16.
Result<StrategyResult> RunPaperQuery(int qn) {
  WorkloadFactory factory(test::TinyScale());
  auto wl = factory.Make(qn);
  PTP_CHECK(wl.ok()) << wl.status().ToString();
  StrategyOptions opts;
  opts.num_workers = 16;
  return RunSemijoinPlan(wl->query, wl->normalized, opts, nullptr);
}

// A schedule names the plan's first exchange once: the final join does not
// renumber the fault sites from zero.
TEST(SemijoinFrameTest, ExchangeFaultIsInjectedOnce) {
  for (int qn : {3, 7}) {
    auto plan = FaultPlan::Parse("drop@x=0,p=0,c=0");
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    FaultInjector injector(std::move(plan).value());
    runtime::ScopedQueryContext sinks({.faults = &injector});
    auto result = RunPaperQuery(qn);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_FALSE(result->metrics.failed) << result->metrics.fail_reason;
    EXPECT_EQ(injector.injected(), 1u) << "Q" << qn;
  }
}

TEST(SemijoinFrameTest, OneProfileSectionHoldsReductionAndFinalJoin) {
  for (int qn : {3, 7}) {
    QueryProfile profile;
    runtime::ScopedQueryContext sinks({.profile = &profile});
    auto result = RunPaperQuery(qn);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const std::vector<StrategyProfile> sections = profile.Snapshot();
    ASSERT_EQ(sections.size(), 1u) << "Q" << qn;
    const std::vector<ShuffleProfile>& shuffles = sections[0].shuffles;
    EXPECT_EQ(shuffles.size(), result->metrics.shuffles.size()) << "Q" << qn;
    size_t reduction = 0, final_join = 0;
    for (const ShuffleProfile& shuffle : shuffles) {
      if (shuffle.label.find("(semijoin ") != std::string::npos) ++reduction;
      if (shuffle.label.find(" ->h(") != std::string::npos) ++final_join;
    }
    EXPECT_GT(reduction, 0u) << "Q" << qn;
    EXPECT_GT(final_join, 0u) << "Q" << qn;
    EXPECT_EQ(reduction + final_join, shuffles.size()) << "Q" << qn;
  }
}

// The reduction's stages are fault sites: stage site 0 is the first key
// projection, and its replay converges to the fault-free output.
TEST(SemijoinFrameTest, ProjectionStageRecoversFromCrash) {
  for (int qn : {3, 7}) {
    auto clean = RunPaperQuery(qn);
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();

    auto plan = FaultPlan::Parse("crash@site=0,worker=0");
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    FaultInjector injector(std::move(plan).value());
    runtime::ScopedQueryContext sinks({.faults = &injector});
    auto faulted = RunPaperQuery(qn);
    ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
    EXPECT_FALSE(faulted->metrics.failed) << faulted->metrics.fail_reason;

    std::vector<std::string> retried;
    for (const StageMetrics& stage : faulted->metrics.stages) {
      if (stage.retries > 0) retried.push_back(stage.label);
    }
    ASSERT_EQ(retried.size(), 1u) << "Q" << qn;
    EXPECT_EQ(retried[0].rfind("project keys ", 0), 0u)
        << "Q" << qn << ": " << retried[0];
    EXPECT_EQ(faulted->output.data(), clean->output.data()) << "Q" << qn;
  }
}

// A checkpoint of the final join could not be resumed under the semijoin
// plan, so a suspend request is never honored and the plan completes.
TEST(SemijoinFrameTest, SuspendRequestIsNeverHonored) {
  auto clean = RunPaperQuery(3);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  QueryLifecycle lifecycle;
  lifecycle.RequestSuspend();
  runtime::ScopedQueryContext sinks({.lifecycle = &lifecycle});
  auto result = RunPaperQuery(3);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->checkpoint, nullptr);
  EXPECT_EQ(lifecycle.stats().suspends, 0u);
  EXPECT_FALSE(result->metrics.failed) << result->metrics.fail_reason;
  EXPECT_EQ(result->output.data(), clean->output.data());
}

}  // namespace
}  // namespace ptp
