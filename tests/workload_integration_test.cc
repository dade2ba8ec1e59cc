// Integration tests: every paper workload (Q1..Q8) at a tiny scale must
// produce identical results under all six strategy configurations, the
// standalone Tributary join, and (for acyclic queries) the semijoin plan.

#include "data/workloads.h"
#include "gtest/gtest.h"
#include "plan/semijoin_plan.h"
#include "plan/strategies.h"
#include "test_util.h"
#include "tj/order_optimizer.h"
#include "tj/tributary_join.h"

namespace ptp {
namespace {

using test::TinyScale;

class PaperWorkloads : public ::testing::TestWithParam<int> {};

TEST_P(PaperWorkloads, AllEvaluatorsAgree) {
  WorkloadFactory factory(TinyScale());
  auto wl = factory.Make(GetParam());
  ASSERT_TRUE(wl.ok()) << wl.status().ToString();

  StrategyOptions opts;
  opts.num_workers = 9;  // deliberately not a perfect power

  // Reference: standalone Tributary join with the optimized order.
  OrderChoice order = OptimizeVariableOrder(wl->normalized);
  auto reference = TributaryJoinQuery(wl->normalized, order.order);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  for (const auto& [shuffle, join] : AllStrategies()) {
    auto result = RunStrategy(wl->normalized, shuffle, join, opts);
    ASSERT_TRUE(result.ok())
        << wl->id << " " << StrategyName(shuffle, join) << ": "
        << result.status().ToString();
    ASSERT_FALSE(result->metrics.failed)
        << wl->id << " " << StrategyName(shuffle, join) << ": "
        << result->metrics.fail_reason;
    EXPECT_TRUE(result->output.EqualsUnordered(*reference))
        << wl->id << " " << StrategyName(shuffle, join) << " diverges ("
        << result->output.NumTuples() << " vs " << reference->NumTuples()
        << ")";
  }

  if (!wl->cyclic) {
    auto semi = RunSemijoinPlan(wl->query, wl->normalized, opts, nullptr);
    ASSERT_TRUE(semi.ok()) << semi.status().ToString();
    EXPECT_TRUE(semi->output.EqualsUnordered(*reference))
        << wl->id << " semijoin plan diverges";
  }
}

INSTANTIATE_TEST_SUITE_P(Q1toQ8, PaperWorkloads, ::testing::Range(1, 9),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "Q" + std::to_string(info.param);
                         });

TEST(PaperWorkloads, ResultsNonTrivial) {
  // Guard against silently-empty datasets: each workload's best plan must
  // return at least one tuple at the tiny scale... except possibly the
  // most selective ones, which must at least run (checked above). Require
  // non-empty output for the graph queries and Q3/Q7 on the planted data.
  WorkloadFactory factory(TinyScale());
  for (int q : {1, 3, 7}) {
    auto wl = factory.Make(q);
    ASSERT_TRUE(wl.ok());
    StrategyOptions opts;
    opts.num_workers = 4;
    auto result = RunStrategy(wl->normalized, ShuffleKind::kHypercube,
                              JoinKind::kTributary, opts);
    ASSERT_TRUE(result.ok());
    EXPECT_GT(result->output.NumTuples(), 0u) << wl->id;
  }
}

TEST(PaperWorkloads, MetricsDifferAcrossStrategiesAsExpected) {
  // On the triangle workload: broadcast must shuffle ~W/replication times
  // more than HyperCube, and the HyperCube shuffle must replicate each
  // relation by the product of its unbound dimensions.
  WorkloadFactory factory(TinyScale());
  auto wl = factory.Make(1);
  ASSERT_TRUE(wl.ok());
  StrategyOptions opts;
  opts.num_workers = 8;
  auto hc = RunStrategy(wl->normalized, ShuffleKind::kHypercube,
                        JoinKind::kTributary, opts);
  ASSERT_TRUE(hc.ok());
  EXPECT_EQ(hc->hc_config.dims, (std::vector<int>{2, 2, 2}));
  size_t input = 0;
  for (const auto& atom : wl->normalized.atoms) {
    input += atom.relation.NumTuples();
  }
  // Each binary atom is bound on 2 of 3 dims: replication = 2.
  EXPECT_EQ(hc->metrics.TuplesShuffled(), input * 2);

  auto br = RunStrategy(wl->normalized, ShuffleKind::kBroadcast,
                        JoinKind::kTributary, opts);
  ASSERT_TRUE(br.ok());
  // Two of three relations broadcast to 8 workers.
  EXPECT_EQ(br->metrics.TuplesShuffled(), (input / 3) * 2 * 8);
}

}  // namespace
}  // namespace ptp
