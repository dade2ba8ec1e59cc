#include "plan/semijoin_plan.h"

#include "exec/lifecycle.h"
#include "fault/fault.h"
#include "gtest/gtest.h"
#include "query/parser.h"
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

// A cancel that lands during a semijoin exchange is a graceful kCancelled
// FAIL, not an error status.
TEST(SemijoinPlanTest, CancelDuringExchangeFailsGracefully) {
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

}  // namespace
}  // namespace ptp
