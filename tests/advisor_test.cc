#include "plan/advisor.h"

#include <string>
#include <utility>
#include <vector>

#include "data/workloads.h"
#include "gtest/gtest.h"
#include "query/parser.h"
#include "query/planner.h"
#include "test_util.h"

namespace ptp {
namespace {

WorkloadScale SmallScale() {
  WorkloadScale scale;
  scale.twitter.num_nodes = 1500;
  scale.twitter.num_edges = 9000;
  scale.twitter.zipf_exponent = 0.7;
  scale.freebase_scale = 0.2;
  scale.seed = 5;
  return scale;
}

TEST(AdvisorTest, TrianglesOnSkewedGraphGetHypercube) {
  WorkloadFactory factory(SmallScale());
  auto wl = factory.Make(1);
  ASSERT_TRUE(wl.ok());
  StrategyAdvice advice = AdviseStrategy(wl->normalized, 64);
  EXPECT_EQ(advice.shuffle, ShuffleKind::kHypercube);
  EXPECT_EQ(advice.join, JoinKind::kTributary);
  // The exact first-join size must dominate the naive estimate.
  EXPECT_GT(advice.est_max_intermediate, 2.0 * 27000);
}

TEST(AdvisorTest, SelectiveAcyclicQueryGetsRegularShuffle) {
  WorkloadFactory factory(SmallScale());
  auto wl = factory.Make(3);
  ASSERT_TRUE(wl.ok());
  StrategyAdvice advice = AdviseStrategy(wl->normalized, 64);
  EXPECT_EQ(advice.shuffle, ShuffleKind::kRegular);
}

TEST(AdvisorTest, EstimatesArePopulatedAndOrdered) {
  WorkloadFactory factory(SmallScale());
  auto wl = factory.Make(1);
  ASSERT_TRUE(wl.ok());
  StrategyAdvice advice = AdviseStrategy(wl->normalized, 64);
  EXPECT_GT(advice.est_rs_tuples, 0);
  EXPECT_GT(advice.est_br_tuples, 0);
  EXPECT_GT(advice.est_hc_tuples, 0);
  // Triangle on 64 workers: HC replicates 4x, broadcast ~42x inputs.
  EXPECT_LT(advice.est_hc_tuples, advice.est_br_tuples);
  EXPECT_FALSE(advice.rationale.empty());
}

TEST(AdvisorTest, BroadcastWhenCubeIsHighDimensional) {
  // A long cyclic chain with many join variables on few workers forces a
  // high replication factor; a tiny non-largest side makes broadcast cheap.
  Rng rng(8);
  Catalog catalog;
  // 8-cycle over tiny relations except one big one.
  const char* names[] = {"R0", "R1", "R2", "R3", "R4", "R5", "R6", "R7"};
  const char* vars[] = {"a", "b", "c", "d", "e", "f", "g", "h", "a"};
  for (int i = 0; i < 8; ++i) {
    catalog.Put(test::RandomBinaryRelation(
        names[i], {vars[i], vars[i + 1]}, i == 0 ? 4000 : 40, 30, &rng));
  }
  auto parsed = ParseDatalog(
      "Q(a) :- R0(a,b), R1(b,c), R2(c,d), R3(d,e), R4(e,f), R5(f,g), "
      "R6(g,h), R7(h,a).",
      nullptr);
  ASSERT_TRUE(parsed.ok());
  auto nq = Normalize(*parsed, catalog);
  ASSERT_TRUE(nq.ok());
  StrategyAdvice advice = AdviseStrategy(*nq, 64);
  // Whatever wins, the estimates must reflect the 8-D cube's replication
  // burden relative to input size.
  EXPECT_GT(advice.est_hc_tuples, 4000 + 7 * 40);
}

// Field-for-field equality, doubles compared exactly: the cached path must
// reproduce the uncached advice bit for bit, not approximately.
void ExpectSameAdvice(const StrategyAdvice& a, const StrategyAdvice& b,
                      const std::string& where) {
  EXPECT_EQ(a.shuffle, b.shuffle) << where;
  EXPECT_EQ(a.join, b.join) << where;
  EXPECT_EQ(a.est_rs_tuples, b.est_rs_tuples) << where;
  EXPECT_EQ(a.est_br_tuples, b.est_br_tuples) << where;
  EXPECT_EQ(a.est_hc_tuples, b.est_hc_tuples) << where;
  EXPECT_EQ(a.est_max_intermediate, b.est_max_intermediate) << where;
  EXPECT_EQ(a.est_rs_skew, b.est_rs_skew) << where;
  EXPECT_EQ(a.hc_config.config.join_vars, b.hc_config.config.join_vars)
      << where;
  EXPECT_EQ(a.hc_config.config.dims, b.hc_config.config.dims) << where;
  EXPECT_EQ(a.hc_config.config.salt, b.hc_config.config.salt) << where;
  EXPECT_EQ(a.hc_config.expected_load, b.hc_config.expected_load) << where;
  EXPECT_EQ(a.hc_config.cells_used, b.hc_config.cells_used) << where;
  EXPECT_EQ(a.est_bloom_reduction, b.est_bloom_reduction) << where;
  EXPECT_EQ(a.use_bloom, b.use_bloom) << where;
  EXPECT_EQ(a.used_feedback, b.used_feedback) << where;
  EXPECT_EQ(a.blind_max_qerror, b.blind_max_qerror) << where;
  EXPECT_EQ(a.feedback_max_qerror, b.feedback_max_qerror) << where;
  EXPECT_EQ(a.rationale, b.rationale) << where;
}

void ExpectSameFeedback(const StrategyFeedback& a, const StrategyFeedback& b,
                        const std::string& where) {
  EXPECT_EQ(a.strategy, b.strategy) << where;
  EXPECT_EQ(a.failed, b.failed) << where;
  EXPECT_EQ(a.tuples_shuffled, b.tuples_shuffled) << where;
  EXPECT_EQ(a.output_tuples, b.output_tuples) << where;
  EXPECT_EQ(a.peak_bytes, b.peak_bytes) << where;
  EXPECT_EQ(a.bloom_tested, b.bloom_tested) << where;
  EXPECT_EQ(a.bloom_filtered, b.bloom_filtered) << where;
  ASSERT_EQ(a.ops.size(), b.ops.size()) << where;
  for (size_t i = 0; i < a.ops.size(); ++i) {
    EXPECT_EQ(a.ops[i].kind, b.ops[i].kind) << where << " op " << i;
    EXPECT_EQ(a.ops[i].label, b.ops[i].label) << where << " op " << i;
    EXPECT_EQ(a.ops[i].estimated, b.ops[i].estimated) << where << " op " << i;
    EXPECT_EQ(a.ops[i].actual, b.ops[i].actual) << where << " op " << i;
    EXPECT_EQ(a.ops[i].skew, b.ops[i].skew) << where << " op " << i;
  }
}

StrategyFeedback MeasuredRun(const std::string& strategy, double shuffled) {
  StrategyFeedback sf;
  sf.strategy = strategy;
  sf.tuples_shuffled = shuffled;
  return sf;
}

// The feedback shapes the serving fold produces: none, a HyperCube run, a
// bloom-filtered regular-shuffle run (measured intermediate and skew), and
// a store whose every regular-shuffle run FAILed.
std::vector<std::pair<std::string, QueryFeedback>> FeedbackCases() {
  std::vector<std::pair<std::string, QueryFeedback>> cases;
  {
    QueryFeedback qf;
    StrategyFeedback hc = MeasuredRun("HC_TJ", 5400);
    hc.ops.push_back({FeedbackOp::Kind::kStage, "local TJ", -1, 310, 0});
    hc.ops.push_back({FeedbackOp::Kind::kExchange, "R ->hc", -1, 5400, 1.7});
    qf.strategies.push_back(hc);
    cases.emplace_back("HC feedback", qf);
  }
  {
    QueryFeedback qf;
    StrategyFeedback rs = MeasuredRun("RS_HJ", 120);
    rs.bloom_tested = 1000;
    rs.bloom_filtered = 640;
    rs.ops.push_back({FeedbackOp::Kind::kStage, "join_1", 900, 45, 0});
    rs.ops.push_back({FeedbackOp::Kind::kExchange, "R ->h[x]", -1, 80, 1.2});
    qf.strategies.push_back(rs);
    cases.emplace_back("RS+bloom feedback", qf);
  }
  {
    QueryFeedback qf;
    StrategyFeedback failed = MeasuredRun("RS_TJ", 0);
    failed.failed = true;
    qf.strategies.push_back(failed);
    StrategyFeedback failed_hj = MeasuredRun("RS_HJ", 0);
    failed_hj.failed = true;
    qf.strategies.push_back(failed_hj);
    qf.strategies.push_back(MeasuredRun("BR_TJ", 7000));
    cases.emplace_back("all-RS-failed feedback", qf);
  }
  return cases;
}

TEST(AdvisorTest, CachedBlindAdviceReproducesAdviseStrategy) {
  // One BlindAdvice per query, re-applied to every feedback shape (what a
  // plan-cache entry does across refreshes), must equal a fresh
  // AdviseStrategy — including the rationale and the share configuration.
  WorkloadFactory factory(SmallScale());
  constexpr int kWorkers = 16;
  // Guards against vacuity: across Q1-Q8 the feedback shapes must drive
  // both the regular-shuffle and the replicated branch, the bloom verdict
  // both ways, and the failed-family veto.
  bool saw_rs = false, saw_replicated = false, saw_bloom = false,
       saw_no_bloom = false, saw_veto = false;
  for (int q = 1; q <= 8; ++q) {
    auto wl = factory.Make(q);
    ASSERT_TRUE(wl.ok()) << q;
    const BlindEstimates blind = BlindAdvice(wl->normalized, kWorkers);
    EXPECT_EQ(blind.order, GreedyLeftDeepOrder(wl->normalized)) << wl->id;
    EXPECT_EQ(blind.sizes, EstimateLeftDeepSizes(wl->normalized, blind.order))
        << wl->id;
    std::vector<std::pair<std::string, const QueryFeedback*>> shapes = {
        {"no feedback", nullptr}};
    const auto cases = FeedbackCases();
    for (const auto& [name, qf] : cases) shapes.emplace_back(name, &qf);
    for (const auto& [name, qf] : shapes) {
      const StrategyAdvice cached = ApplyFeedback(blind, qf);
      ExpectSameAdvice(cached, AdviseStrategy(wl->normalized, kWorkers, qf),
                       wl->id + " " + name);
      (cached.shuffle == ShuffleKind::kRegular ? saw_rs : saw_replicated) =
          true;
      (cached.use_bloom ? saw_bloom : saw_no_bloom) = true;
      if (cached.rationale.find("FAILed before") != std::string::npos) {
        saw_veto = true;
      }
    }
  }
  EXPECT_TRUE(saw_rs);
  EXPECT_TRUE(saw_replicated);
  EXPECT_TRUE(saw_bloom);
  EXPECT_TRUE(saw_no_bloom);
  EXPECT_TRUE(saw_veto);
}

TEST(AdvisorTest, CollectStrategyFeedbackWithCachedOrderMatchesUncached) {
  WorkloadFactory factory(SmallScale());
  for (int q : {3, 7, 8}) {
    auto wl = factory.Make(q);
    ASSERT_TRUE(wl.ok());
    StrategyOptions opts;
    opts.num_workers = 8;
    const BlindEstimates blind = BlindAdvice(wl->normalized, opts.num_workers);
    // RS runs record the greedy order (cached sizes reused); HC runs record
    // none (the greedy fallback); an explicit reversed order differs from
    // the cached one and must be re-estimated.
    StrategyOptions reversed = opts;
    reversed.join_order.assign(blind.order.rbegin(), blind.order.rend());
    const struct {
      ShuffleKind shuffle;
      JoinKind join;
      const StrategyOptions* opts;
      const char* what;
    } runs[] = {
        {ShuffleKind::kRegular, JoinKind::kHashJoin, &opts, "RS_HJ greedy"},
        {ShuffleKind::kHypercube, JoinKind::kTributary, &opts, "HC_TJ"},
        {ShuffleKind::kRegular, JoinKind::kHashJoin, &reversed,
         "RS_HJ reversed"},
    };
    for (const auto& run : runs) {
      auto result =
          RunStrategy(wl->normalized, run.shuffle, run.join, *run.opts);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const std::string name = StrategyName(run.shuffle, run.join);
      ExpectSameFeedback(
          CollectStrategyFeedback(wl->normalized, name, *result, &blind),
          CollectStrategyFeedback(wl->normalized, name, *result),
          wl->id + " " + run.what);
    }
  }
}

TEST(AdvisorTest, AdvisedPlanProducesCorrectResult) {
  WorkloadFactory factory(SmallScale());
  for (int q : {1, 3, 7}) {
    auto wl = factory.Make(q);
    ASSERT_TRUE(wl.ok());
    StrategyOptions opts;
    opts.num_workers = 8;
    StrategyAdvice advice = AdviseStrategy(wl->normalized, opts.num_workers);
    auto advised = RunStrategy(wl->normalized, advice.shuffle, advice.join,
                               opts);
    auto reference = RunStrategy(wl->normalized, ShuffleKind::kHypercube,
                                 JoinKind::kTributary, opts);
    ASSERT_TRUE(advised.ok() && reference.ok());
    EXPECT_TRUE(advised->output.EqualsUnordered(reference->output))
        << wl->id;
  }
}

}  // namespace
}  // namespace ptp
