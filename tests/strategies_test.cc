#include "plan/strategies.h"

#include "gtest/gtest.h"
#include "query/parser.h"
#include "runtime/parallel.h"
#include "test_util.h"

namespace ptp {
namespace {

// Builds a normalized query over freshly generated random relations.
NormalizedQuery RandomQuery(const char* text, uint64_t seed, size_t tuples,
                            Value domain) {
  Rng rng(seed);
  auto parsed = ParseDatalog(text, nullptr);
  PTP_CHECK(parsed.ok()) << parsed.status().ToString();
  Catalog catalog;
  for (const Atom& atom : parsed->atoms()) {
    if (!catalog.Contains(atom.relation)) {
      catalog.Put(test::RandomBinaryRelation(
          atom.relation, atom.Variables(), tuples, domain, &rng));
    }
  }
  auto nq = Normalize(*parsed, catalog);
  PTP_CHECK(nq.ok()) << nq.status().ToString();
  return std::move(nq).value();
}

Relation ExpectedOutput(const NormalizedQuery& q) {
  Relation full = test::BruteForceJoin(q);
  Relation projected("expected", Schema(q.head_vars));
  {
    std::vector<int> cols;
    for (const std::string& v : q.head_vars) {
      cols.push_back(full.schema().IndexOf(v));
    }
    projected = full.PermuteColumns(cols, "expected");
  }
  if (q.head_vars.size() < q.Variables().size()) {
    projected.SortAndDedup();
  }
  return projected;
}

struct StrategyCase {
  ShuffleKind shuffle;
  JoinKind join;
};

class AllStrategiesAgree
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(AllStrategiesAgree, TriangleQuery) {
  const auto [seed, workers] = GetParam();
  NormalizedQuery q = RandomQuery(
      "T(x,y,z) :- R(x,y), S(y,z), U(z,x).", static_cast<uint64_t>(seed),
      100, 14);
  Relation expected = ExpectedOutput(q);
  StrategyOptions opts;
  opts.num_workers = workers;
  for (const auto& [shuffle, join] : AllStrategies()) {
    auto result = RunStrategy(q, shuffle, join, opts);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_FALSE(result->metrics.failed)
        << StrategyName(shuffle, join) << ": "
        << result->metrics.fail_reason;
    EXPECT_TRUE(result->output.EqualsUnordered(expected))
        << StrategyName(shuffle, join) << " wrong result ("
        << result->output.NumTuples() << " vs " << expected.NumTuples()
        << " tuples), workers=" << workers;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndWorkers, AllStrategiesAgree,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(1, 3, 8, 16)));

TEST(StrategiesTest, AcyclicPathQueryAgrees) {
  NormalizedQuery q = RandomQuery(
      "P(x,w) :- R(x,y), S(y,z), U(z,w).", 77, 120, 12);
  Relation expected = ExpectedOutput(q);
  StrategyOptions opts;
  opts.num_workers = 8;
  for (const auto& [shuffle, join] : AllStrategies()) {
    auto result = RunStrategy(q, shuffle, join, opts);
    ASSERT_TRUE(result.ok());
    ASSERT_FALSE(result->metrics.failed);
    EXPECT_TRUE(result->output.EqualsUnordered(expected))
        << StrategyName(shuffle, join);
  }
}

TEST(StrategiesTest, PredicateQueryAgrees) {
  NormalizedQuery q = RandomQuery(
      "Q(x,z) :- R(x,y), S(y,z), x < z.", 31, 120, 12);
  Relation expected = ExpectedOutput(q);
  StrategyOptions opts;
  opts.num_workers = 6;
  for (const auto& [shuffle, join] : AllStrategies()) {
    auto result = RunStrategy(q, shuffle, join, opts);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->output.EqualsUnordered(expected))
        << StrategyName(shuffle, join);
  }
}

TEST(StrategiesTest, FourCliqueAgrees) {
  NormalizedQuery q = RandomQuery(
      "C(x,y,z,p) :- R(x,y), S(y,z), U(z,p), P(p,x), K(x,z), L(y,p).", 5,
      90, 10);
  Relation expected = ExpectedOutput(q);
  StrategyOptions opts;
  opts.num_workers = 16;
  for (const auto& [shuffle, join] : AllStrategies()) {
    auto result = RunStrategy(q, shuffle, join, opts);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->output.EqualsUnordered(expected))
        << StrategyName(shuffle, join);
  }
}

TEST(StrategiesTest, SingleAtomQueryProjects) {
  NormalizedQuery q = RandomQuery("Q(x) :- R(x,y).", 8, 50, 10);
  Relation expected = ExpectedOutput(q);
  StrategyOptions opts;
  opts.num_workers = 4;
  auto result =
      RunStrategy(q, ShuffleKind::kRegular, JoinKind::kHashJoin, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->output.EqualsUnordered(expected));
}

TEST(StrategiesTest, HypercubeShufflesLessThanBroadcastOnTriangles) {
  // The headline claim of Q1: HC moves ~4x less data than RS and ~10x less
  // than BR when intermediate results are large. With random (not skewed)
  // data RS can be competitive, so only assert HC < BR here.
  NormalizedQuery q = RandomQuery(
      "T(x,y,z) :- R(x,y), S(y,z), U(z,x).", 10, 400, 25);
  StrategyOptions opts;
  opts.num_workers = 16;
  auto hc = RunStrategy(q, ShuffleKind::kHypercube, JoinKind::kTributary, opts);
  auto br = RunStrategy(q, ShuffleKind::kBroadcast, JoinKind::kTributary, opts);
  ASSERT_TRUE(hc.ok() && br.ok());
  EXPECT_LT(hc->metrics.TuplesShuffled(), br->metrics.TuplesShuffled());
}

TEST(StrategiesTest, BudgetExhaustionReportsFailNotError) {
  // A query with a huge intermediate and a tiny budget must FAIL gracefully.
  NormalizedQuery q = RandomQuery(
      "T(x,y,z) :- R(x,y), S(y,z), U(z,x).", 12, 300, 6);  // dense -> big
  StrategyOptions opts;
  opts.num_workers = 4;
  opts.intermediate_budget = 100;
  auto rs = RunStrategy(q, ShuffleKind::kRegular, JoinKind::kHashJoin, opts);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_TRUE(rs->metrics.failed);
  EXPECT_FALSE(rs->metrics.fail_reason.empty());
  // The stage that aborted the run is marked failed (and only that one).
  ASSERT_FALSE(rs->metrics.stages.empty());
  EXPECT_TRUE(rs->metrics.stages.back().failed);
  for (size_t i = 0; i + 1 < rs->metrics.stages.size(); ++i) {
    EXPECT_FALSE(rs->metrics.stages[i].failed);
  }
}

TEST(StrategiesTest, AbortSemanticsIdenticalAcrossThreadCounts) {
  // A failing run must reach the same verdict — same fail reason, same
  // booked stages, same failed-stage marking — whether the workers ran
  // serialized or concurrently.
  NormalizedQuery q = RandomQuery(
      "T(x,y,z) :- R(x,y), S(y,z), U(z,x).", 12, 300, 6);
  StrategyOptions opts;
  opts.num_workers = 8;
  opts.intermediate_budget = 100;
  runtime::SetThreads(1);
  auto serial = RunStrategy(q, ShuffleKind::kRegular, JoinKind::kHashJoin,
                            opts);
  runtime::SetThreads(8);
  auto parallel = RunStrategy(q, ShuffleKind::kRegular, JoinKind::kHashJoin,
                              opts);
  runtime::SetThreads(0);
  ASSERT_TRUE(serial.ok() && parallel.ok());
  EXPECT_TRUE(serial->metrics.failed);
  EXPECT_EQ(serial->metrics.failed, parallel->metrics.failed);
  EXPECT_EQ(serial->metrics.fail_reason, parallel->metrics.fail_reason);
  ASSERT_EQ(serial->metrics.stages.size(), parallel->metrics.stages.size());
  for (size_t i = 0; i < serial->metrics.stages.size(); ++i) {
    EXPECT_EQ(serial->metrics.stages[i].failed,
              parallel->metrics.stages[i].failed);
    EXPECT_EQ(serial->metrics.stages[i].output_tuples,
              parallel->metrics.stages[i].output_tuples);
  }
}

TEST(StrategiesTest, SortBudgetFailsTributaryButNotHashJoin) {
  // RS_TJ must sort the (large) intermediate; RS_HJ streams it. With a sort
  // budget squeezed between the two, only RS_TJ FAILs — the paper's Q4/Q5
  // asymmetry.
  NormalizedQuery q = RandomQuery(
      "P(x,w) :- R(x,y), S(y,z), U(z,w).", 14, 300, 8);
  StrategyOptions opts;
  opts.num_workers = 4;
  opts.intermediate_budget = 10'000'000;
  opts.sort_budget = 10;  // absurdly small: any intermediate sort fails
  auto rs_tj =
      RunStrategy(q, ShuffleKind::kRegular, JoinKind::kTributary, opts);
  auto rs_hj =
      RunStrategy(q, ShuffleKind::kRegular, JoinKind::kHashJoin, opts);
  ASSERT_TRUE(rs_tj.ok() && rs_hj.ok());
  EXPECT_TRUE(rs_tj->metrics.failed);
  EXPECT_FALSE(rs_hj->metrics.failed);
}

TEST(StrategiesTest, ExplicitJoinOrderIsHonored) {
  NormalizedQuery q = RandomQuery(
      "T(x,y,z) :- R(x,y), S(y,z), U(z,x).", 15, 80, 10);
  StrategyOptions opts;
  opts.num_workers = 4;
  opts.join_order = {2, 1, 0};
  auto result =
      RunStrategy(q, ShuffleKind::kRegular, JoinKind::kHashJoin, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->join_order_used, (std::vector<int>{2, 1, 0}));
  EXPECT_TRUE(result->output.EqualsUnordered(ExpectedOutput(q)));
}

TEST(StrategiesTest, ExplicitVarOrderIsHonored) {
  NormalizedQuery q = RandomQuery(
      "T(x,y,z) :- R(x,y), S(y,z), U(z,x).", 16, 80, 10);
  StrategyOptions opts;
  opts.num_workers = 4;
  opts.var_order = {"z", "x", "y"};
  auto result =
      RunStrategy(q, ShuffleKind::kHypercube, JoinKind::kTributary, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->var_order_used, opts.var_order);
  EXPECT_TRUE(result->output.EqualsUnordered(ExpectedOutput(q)));
}

TEST(StrategiesTest, RoundDownConfigStillCorrect) {
  // Sec. 4's motivating pathology: the 4-clique on 15 workers has optimal
  // fractional shares 15^(1/4) ~= 1.96 per variable; rounding down uses a
  // single cell — no parallelism — yet the result must stay correct.
  // Equal cardinalities (a self-join) make the LP optimum the symmetric
  // e_i = 1/4 point.
  Rng rng(18);
  Relation edges =
      test::RandomBinaryRelation("E", {"a", "b"}, 80, 10, &rng);
  Catalog catalog;
  for (const char* alias : {"R", "S", "U", "P", "K", "L"}) {
    Relation copy = edges;
    copy.set_name(alias);
    catalog.Put(std::move(copy));
  }
  auto parsed = ParseDatalog(
      "C(x,y,z,p) :- R(x,y), S(y,z), U(z,p), P(p,x), K(x,z), L(y,p).",
      nullptr);
  ASSERT_TRUE(parsed.ok());
  auto nq = Normalize(*parsed, catalog);
  ASSERT_TRUE(nq.ok());
  NormalizedQuery q = std::move(nq).value();
  StrategyOptions opts;
  opts.num_workers = 15;
  opts.hc_round_down = true;
  auto result =
      RunStrategy(q, ShuffleKind::kHypercube, JoinKind::kTributary, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->output.EqualsUnordered(ExpectedOutput(q)));
  EXPECT_EQ(result->hc_config.NumCells(), 1);

  // Algorithm 1 on the same instance parallelizes (uses > 1 cell).
  opts.hc_round_down = false;
  auto ours =
      RunStrategy(q, ShuffleKind::kHypercube, JoinKind::kTributary, opts);
  ASSERT_TRUE(ours.ok());
  EXPECT_GT(ours->hc_config.NumCells(), 1);
  EXPECT_TRUE(ours->output.EqualsUnordered(ExpectedOutput(q)));
}

TEST(StrategiesTest, SkewAwareRegularShuffleStillCorrect) {
  NormalizedQuery q = RandomQuery(
      "T(x,y,z) :- R(x,y), S(y,z), U(z,x).", 21, 150, 8);  // dense: hubs
  StrategyOptions opts;
  opts.num_workers = 8;
  auto plain =
      RunStrategy(q, ShuffleKind::kRegular, JoinKind::kHashJoin, opts);
  opts.rs_skew_aware = true;
  auto aware =
      RunStrategy(q, ShuffleKind::kRegular, JoinKind::kHashJoin, opts);
  ASSERT_TRUE(plain.ok() && aware.ok());
  ASSERT_FALSE(plain->metrics.failed);
  ASSERT_FALSE(aware->metrics.failed);
  EXPECT_TRUE(aware->output.EqualsUnordered(plain->output));
}

TEST(StrategiesTest, MetricsArePopulated) {
  NormalizedQuery q = RandomQuery(
      "T(x,y,z) :- R(x,y), S(y,z), U(z,x).", 19, 150, 14);
  StrategyOptions opts;
  opts.num_workers = 8;
  auto result =
      RunStrategy(q, ShuffleKind::kHypercube, JoinKind::kTributary, opts);
  ASSERT_TRUE(result.ok());
  const QueryMetrics& m = result->metrics;
  EXPECT_FALSE(m.failed);
  EXPECT_EQ(m.shuffles.size(), 3u);  // one HCS per atom
  for (const ShuffleMetrics& s : m.shuffles) EXPECT_GT(s.tuples_sent, 0u);
  EXPECT_GT(m.TuplesShuffled(), 0u);
  // One booked barrier: the local Tributary join, clean on the first
  // attempt, producing exactly the gathered output (HC emits every
  // triangle on one worker, and the head keeps every variable).
  ASSERT_EQ(m.stages.size(), 1u);
  const StageMetrics& stage = m.stages[0];
  EXPECT_EQ(stage.label, "local TJ");
  EXPECT_FALSE(stage.failed);
  EXPECT_FALSE(stage.degraded);
  EXPECT_EQ(stage.retries, 0u);
  EXPECT_EQ(stage.output_tuples, result->output.NumTuples());
  EXPECT_TRUE(m.degradations.empty());
  EXPECT_EQ(m.backoff_seconds, 0.0);
  // The query wall clock is the sum of the booked shuffles and barriers.
  EXPECT_GT(m.wall_seconds, 0.0);
  EXPECT_GE(m.wall_seconds, stage.wall_seconds);
  // Every logical worker has a time account of each kind.
  EXPECT_EQ(m.worker_seconds.size(), 8u);
  EXPECT_EQ(m.worker_sort_seconds.size(), 8u);
  EXPECT_EQ(m.worker_join_seconds.size(), 8u);
  EXPECT_EQ(m.output_tuples, result->output.NumTuples());
}

}  // namespace
}  // namespace ptp
