#include "tj/cost_model.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <utility>

#include "data/workloads.h"
#include "gtest/gtest.h"
#include "storage/stats.h"
#include "test_util.h"
#include "tj/order_optimizer.h"
#include "tj/tributary_join.h"

namespace ptp {
namespace {

TEST(FoldStepCostTest, MatchesEquation4) {
  // Cost = S1 + S1*(S2 + S2*(S3)) for S = (2, 3, 4):
  // inner = 4; mid = 3 + 3*4 = 15; outer = 2 + 2*15 = 32.
  EXPECT_DOUBLE_EQ(FoldStepCost({2, 3, 4}), 32.0);
  EXPECT_DOUBLE_EQ(FoldStepCost({5}), 5.0);
  EXPECT_DOUBLE_EQ(FoldStepCost({}), 0.0);
  EXPECT_DOUBLE_EQ(FoldStepCost({0, 100}), 0.0);  // empty first step
}

TEST(CostModelTest, StepOneIsMinDistinctOfFirstVariable) {
  // R(x,y) with 3 distinct x; S(x,z) with 2 distinct x.
  Relation r("R", Schema{"x", "y"});
  r.AddTuple({1, 1});
  r.AddTuple({2, 1});
  r.AddTuple({3, 1});
  Relation s("S", Schema{"x", "z"});
  s.AddTuple({1, 5});
  s.AddTuple({2, 6});
  TJCostModel model({&r, &s});
  std::vector<double> steps = model.StepSizes({"x", "y", "z"});
  EXPECT_DOUBLE_EQ(steps[0], 2.0);  // min(V(R,x)=3, V(S,x)=2)
}

TEST(CostModelTest, ResidualStepUsesPrefixRatio) {
  // R(x,y): V(x)=2, V(x,y)=6 -> residual y-per-x = 3.
  Relation r("R", Schema{"x", "y"});
  for (Value x = 0; x < 2; ++x) {
    for (Value y = 0; y < 3; ++y) r.AddTuple({x, y});
  }
  TJCostModel model({&r});
  std::vector<double> steps = model.StepSizes({"x", "y"});
  EXPECT_DOUBLE_EQ(steps[0], 2.0);
  EXPECT_DOUBLE_EQ(steps[1], 3.0);
  EXPECT_DOUBLE_EQ(model.EstimateCost({"x", "y"}), 2.0 + 2.0 * 3.0);
}

TEST(CostModelTest, PrefersSelectiveVariableFirst) {
  // Selective relation Tiny(s) with 1 value joins R(s, t); starting with s
  // must be estimated cheaper than starting with t.
  Relation tiny("Tiny", Schema{"s"});
  tiny.AddTuple({3});
  Relation r("R", Schema{"s", "t"});
  for (Value s = 0; s < 50; ++s) {
    for (Value t = 0; t < 4; ++t) r.AddTuple({s, t * 100 + s});
  }
  TJCostModel model({&tiny, &r});
  EXPECT_LT(model.EstimateCost({"s", "t"}), model.EstimateCost({"t", "s"}));
}

TEST(CostModelTest, MemoizationGivesIdenticalRepeatedEstimates) {
  Rng rng(4);
  Relation r = test::RandomBinaryRelation("R", {"x", "y"}, 100, 20, &rng);
  Relation s = test::RandomBinaryRelation("S", {"y", "z"}, 100, 20, &rng);
  TJCostModel model({&r, &s});
  const double a = model.EstimateCost({"x", "y", "z"});
  const double b = model.EstimateCost({"x", "y", "z"});
  EXPECT_DOUBLE_EQ(a, b);
}

// The per-step estimates exactly as the cost model computed them when its
// memo was keyed by (input, column permutation, prefix length): V(R, p) of
// each permuted prefix, counted on the permuted columns.
std::vector<double> PermutationKeyedStepSizes(
    const std::vector<const Relation*>& inputs,
    const std::vector<std::string>& var_order,
    std::map<std::pair<size_t, std::vector<int>>, double>* memo) {
  std::vector<double> steps(var_order.size(),
                            std::numeric_limits<double>::infinity());
  for (size_t i = 0; i < inputs.size(); ++i) {
    const Schema& schema = inputs[i]->schema();
    std::vector<std::pair<int, int>> step_and_col;
    for (size_t col = 0; col < schema.arity(); ++col) {
      const auto it =
          std::find(var_order.begin(), var_order.end(), schema.name(col));
      step_and_col.emplace_back(static_cast<int>(it - var_order.begin()),
                                static_cast<int>(col));
    }
    std::sort(step_and_col.begin(), step_and_col.end());
    std::vector<int> perm;
    for (const auto& sc : step_and_col) perm.push_back(sc.second);
    auto distinct = [&](size_t len) {
      std::vector<int> prefix(perm.begin(), perm.begin() + len);
      auto [it, fresh] = memo->try_emplace({i, prefix}, 0.0);
      if (fresh) {
        it->second = static_cast<double>(CountDistinctPrefixes(
            inputs[i]->PermuteColumns(prefix, "prefix"), len));
      }
      return it->second;
    };
    for (size_t level = 0; level < perm.size(); ++level) {
      const size_t step = static_cast<size_t>(step_and_col[level].first);
      const double here = distinct(level + 1);
      const double estimate =
          level == 0 ? here : here / std::max(1.0, distinct(level));
      steps[step] = std::min(steps[step], estimate);
    }
  }
  for (double& s : steps) {
    if (!std::isfinite(s)) s = 0;
  }
  return steps;
}

TEST(CostModelTest, ColumnSetMemoIsBitIdenticalOnPaperQueries) {
  // The memo keys prefix-distinct counts by column *set*; every order of
  // every paper query must still get exactly the estimates the
  // permutation-keyed memo produced.
  WorkloadScale scale;
  scale.twitter.num_nodes = 300;
  scale.twitter.num_edges = 1500;
  scale.twitter.zipf_exponent = 0.7;
  scale.freebase_scale = 0.05;
  scale.seed = 9;
  WorkloadFactory factory(scale);
  for (int q = 1; q <= 8; ++q) {
    auto wl = factory.Make(q);
    ASSERT_TRUE(wl.ok()) << q;
    std::vector<const Relation*> inputs;
    for (const NormalizedAtom& atom : wl->normalized.atoms) {
      inputs.push_back(&atom.relation);
    }
    TJCostModel model(inputs);
    std::map<std::pair<size_t, std::vector<int>>, double> memo;
    const std::vector<OrderChoice> orders =
        EnumerateOrders(wl->normalized, std::numeric_limits<size_t>::max());
    ASSERT_FALSE(orders.empty());
    for (const OrderChoice& choice : orders) {
      const std::vector<double> expected =
          PermutationKeyedStepSizes(inputs, choice.order, &memo);
      ASSERT_EQ(model.StepSizes(choice.order), expected) << wl->id;
      ASSERT_EQ(model.EstimateCost(choice.order), FoldStepCost(expected))
          << wl->id;
      ASSERT_EQ(choice.estimated_cost, FoldStepCost(expected)) << wl->id;
    }
  }
}

TEST(OrderOptimizerTest, CoversAllVariables) {
  Rng rng(6);
  NormalizedQuery q;
  q.atoms.push_back(
      {{"x", "y"}, test::RandomBinaryRelation("R", {"x", "y"}, 60, 10, &rng)});
  q.atoms.push_back(
      {{"y", "z"}, test::RandomBinaryRelation("S", {"y", "z"}, 60, 10, &rng)});
  q.atoms.push_back(
      {{"z", "w"}, test::RandomBinaryRelation("T", {"z", "w"}, 60, 10, &rng)});
  q.head_vars = {"x", "w"};
  OrderChoice choice = OptimizeVariableOrder(q);
  EXPECT_EQ(choice.order.size(), 4u);
  for (const char* v : {"x", "y", "z", "w"}) {
    EXPECT_NE(std::find(choice.order.begin(), choice.order.end(), v),
              choice.order.end())
        << v;
  }
  EXPECT_GT(choice.estimated_cost, 0.0);
}

TEST(OrderOptimizerTest, ChosenOrderIsCostMinimalAmongEnumerated) {
  Rng rng(8);
  NormalizedQuery q;
  q.atoms.push_back(
      {{"x", "y"}, test::RandomBinaryRelation("R", {"x", "y"}, 80, 12, &rng)});
  q.atoms.push_back(
      {{"y", "z"}, test::RandomBinaryRelation("S", {"y", "z"}, 80, 12, &rng)});
  q.atoms.push_back(
      {{"z", "x"}, test::RandomBinaryRelation("T", {"z", "x"}, 80, 12, &rng)});
  q.head_vars = {"x", "y", "z"};
  OrderChoice best = OptimizeVariableOrder(q);
  for (const OrderChoice& c : EnumerateOrders(q, 1000)) {
    EXPECT_LE(best.estimated_cost, c.estimated_cost + 1e-9);
  }
}

TEST(OrderOptimizerTest, GreedyFallbackProducesValidOrder) {
  // 9 join variables exceeds the exhaustive limit of 8.
  Rng rng(10);
  NormalizedQuery q;
  const char* vars[] = {"a", "b", "c", "d", "e", "f", "g", "h", "i", "a"};
  for (int i = 0; i < 9; ++i) {
    q.atoms.push_back({{vars[i], vars[i + 1]},
                       test::RandomBinaryRelation(
                           "R" + std::to_string(i), {vars[i], vars[i + 1]},
                           30, 6, &rng)});
  }
  q.head_vars = {"a"};
  OrderOptimizerOptions opts;
  opts.exhaustive_limit = 4;
  OrderChoice choice = OptimizeVariableOrder(q, opts);
  EXPECT_EQ(choice.order.size(), 9u);
}

TEST(OrderOptimizerTest, EstimatedCostCorrelatesWithSeeks) {
  // Weak-form validation of Sec. 5.2: across all orders of a skewed
  // triangle, the order with the best estimate should not be among the
  // worst actual seek counts. (Pearson r on the paper's queries ranges
  // 0.216..1.0, so demand only a positive relationship.)
  Rng rng(12);
  NormalizedQuery q;
  q.atoms.push_back(
      {{"x", "y"}, test::RandomBinaryRelation("R", {"x", "y"}, 300, 60, &rng)});
  q.atoms.push_back(
      {{"y", "z"}, test::RandomBinaryRelation("S", {"y", "z"}, 40, 60, &rng)});
  q.atoms.push_back(
      {{"z", "x"}, test::RandomBinaryRelation("T", {"z", "x"}, 300, 60, &rng)});
  q.head_vars = {"x", "y", "z"};

  std::vector<OrderChoice> orders = EnumerateOrders(q, 6);
  double best_est = 1e300, best_seeks = 0, worst_seeks = 0;
  for (const OrderChoice& c : orders) {
    TJMetrics m;
    auto r = TributaryJoinQuery(q, c.order, {}, &m);
    ASSERT_TRUE(r.ok());
    if (c.estimated_cost < best_est) {
      best_est = c.estimated_cost;
      best_seeks = static_cast<double>(m.seeks);
    }
    worst_seeks = std::max(worst_seeks, static_cast<double>(m.seeks));
  }
  EXPECT_LE(best_seeks, worst_seeks);
}

}  // namespace
}  // namespace ptp
