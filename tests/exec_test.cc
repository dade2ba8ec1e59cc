#include "exec/cluster.h"
#include "exec/local_ops.h"
#include "exec/metrics.h"
#include "exec/pipeline.h"
#include "exec/shuffle.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace ptp {
namespace {

Relation SmallRel() {
  Relation r("R", Schema{"x", "y"});
  for (Value i = 0; i < 10; ++i) r.AddTuple({i, i * 10});
  return r;
}

TEST(ClusterTest, RoundRobinPartitionsEvenly) {
  DistributedRelation dist = PartitionRoundRobin(SmallRel(), 4);
  ASSERT_EQ(dist.size(), 4u);
  EXPECT_EQ(dist[0].NumTuples(), 3u);  // rows 0, 4, 8
  EXPECT_EQ(dist[1].NumTuples(), 3u);
  EXPECT_EQ(dist[2].NumTuples(), 2u);
  EXPECT_EQ(dist[3].NumTuples(), 2u);
  EXPECT_EQ(TotalTuples(dist), 10u);
  EXPECT_TRUE(Gather(dist).EqualsUnordered(SmallRel()));
}

TEST(ClusterTest, MoreWorkersThanTuples) {
  DistributedRelation dist = PartitionRoundRobin(SmallRel(), 16);
  EXPECT_EQ(dist.size(), 16u);
  EXPECT_EQ(TotalTuples(dist), 10u);
}

TEST(MetricsTest, SkewFactorDefinition) {
  EXPECT_DOUBLE_EQ(SkewFactor({10, 10, 10, 10}), 1.0);
  EXPECT_DOUBLE_EQ(SkewFactor({40, 0, 0, 0}), 4.0);
  EXPECT_DOUBLE_EQ(SkewFactor({}), 1.0);
  EXPECT_DOUBLE_EQ(SkewFactor({0, 0}), 1.0);
}

TEST(MetricsTest, SkewFactorSingleWorkerIsBalanced) {
  // One worker is max == avg by definition; must be exactly 1.0 even for
  // values where max/avg division could round.
  EXPECT_DOUBLE_EQ(SkewFactor({7}), 1.0);
  EXPECT_DOUBLE_EQ(SkewFactor({0}), 1.0);
  EXPECT_DOUBLE_EQ(SkewFactor({18446744073709551615ull}), 1.0);
}

TEST(MetricsTest, AbsorbAccumulates) {
  QueryMetrics a, b;
  a.EnsureWorkers(2);
  b.EnsureWorkers(2);
  a.worker_seconds = {1.0, 2.0};
  b.worker_seconds = {0.5, 0.5};
  a.wall_seconds = 2.0;
  b.wall_seconds = 1.0;
  b.shuffles.push_back({"s", 100, 1.0, 1.0});
  a.Absorb(b);
  EXPECT_DOUBLE_EQ(a.worker_seconds[0], 1.5);
  EXPECT_DOUBLE_EQ(a.wall_seconds, 3.0);
  EXPECT_EQ(a.TuplesShuffled(), 100u);
}

TEST(MetricsTest, AbsorbGrowsToLargerWorkerCount) {
  // Absorbing metrics from a run with more workers must resize all three
  // per-worker vectors, not just worker_seconds.
  QueryMetrics a, b;
  a.EnsureWorkers(2);
  b.EnsureWorkers(4);
  b.worker_seconds = {1.0, 1.0, 1.0, 1.0};
  b.worker_sort_seconds = {0.25, 0.25, 0.25, 0.25};
  b.worker_join_seconds = {0.5, 0.5, 0.5, 0.5};
  a.Absorb(b);
  ASSERT_EQ(a.worker_seconds.size(), 4u);
  ASSERT_EQ(a.worker_sort_seconds.size(), 4u);
  ASSERT_EQ(a.worker_join_seconds.size(), 4u);
  EXPECT_DOUBLE_EQ(a.worker_seconds[3], 1.0);
  EXPECT_DOUBLE_EQ(a.worker_sort_seconds[3], 0.25);
  EXPECT_DOUBLE_EQ(a.worker_join_seconds[3], 0.5);
}

TEST(MetricsTest, AbsorbHandlesHandBuiltMetricsWithoutBreakdowns) {
  // A hand-built QueryMetrics may populate worker_seconds only; Absorb must
  // not read past the end of the missing sort/join breakdowns.
  QueryMetrics a, b;
  a.EnsureWorkers(1);
  b.worker_seconds = {2.0, 3.0};  // no EnsureWorkers: breakdowns stay empty
  a.Absorb(b);
  ASSERT_EQ(a.worker_seconds.size(), 2u);
  EXPECT_DOUBLE_EQ(a.worker_seconds[1], 3.0);
  ASSERT_GE(a.worker_sort_seconds.size(), 2u);
  EXPECT_DOUBLE_EQ(a.worker_sort_seconds[1], 0.0);
}

TEST(HashShuffleTest, PreservesTuplesAndCoPartitions) {
  Rng rng(3);
  Relation rel = test::RandomBinaryRelation("R", {"x", "y"}, 200, 50, &rng);
  DistributedRelation dist = PartitionRoundRobin(rel, 8);
  ShuffleResult sr = HashShuffle(dist, {0}, 8, 7, "R ->h(x)").value();
  EXPECT_EQ(TotalTuples(sr.data), rel.NumTuples());
  EXPECT_EQ(sr.metrics.tuples_sent, rel.NumTuples());
  EXPECT_TRUE(Gather(sr.data).EqualsUnordered(rel));
  // Co-partitioning: same x never lands on two workers.
  std::map<Value, int> home;
  for (size_t w = 0; w < sr.data.size(); ++w) {
    for (size_t row = 0; row < sr.data[w].NumTuples(); ++row) {
      Value x = sr.data[w].At(row, 0);
      auto [it, inserted] = home.emplace(x, static_cast<int>(w));
      EXPECT_EQ(it->second, static_cast<int>(w)) << "x=" << x;
    }
  }
}

TEST(HashShuffleTest, MultiColumnKey) {
  Rng rng(5);
  Relation rel = test::RandomBinaryRelation("R", {"x", "y"}, 100, 10, &rng);
  DistributedRelation dist = PartitionRoundRobin(rel, 4);
  ShuffleResult sr = HashShuffle(dist, {0, 1}, 4, 7, "R ->h(x,y)").value();
  EXPECT_TRUE(Gather(sr.data).EqualsUnordered(rel));
}

TEST(BroadcastShuffleTest, EveryWorkerGetsFullCopy) {
  Relation rel = SmallRel();
  DistributedRelation dist = PartitionRoundRobin(rel, 4);
  ShuffleResult sr = BroadcastShuffle(dist, 4, "Broadcast R").value();
  EXPECT_EQ(sr.metrics.tuples_sent, 40u);
  EXPECT_DOUBLE_EQ(sr.metrics.consumer_skew, 1.0);
  for (const Relation& frag : sr.data) {
    EXPECT_TRUE(frag.EqualsUnordered(rel));
  }
}

TEST(KeepInPlaceTest, NoNetworkTraffic) {
  DistributedRelation dist = PartitionRoundRobin(SmallRel(), 4);
  ShuffleResult sr = KeepInPlace(dist, "R (in place)");
  EXPECT_EQ(sr.metrics.tuples_sent, 0u);
  EXPECT_EQ(TotalTuples(sr.data), 10u);
}

TEST(HypercubeShuffleTest, TriangleJoinFindableLocally) {
  // After a HyperCube shuffle, the union of per-worker local joins must
  // equal the global join (Sec. 2.1 guarantee).
  Rng rng(7);
  Relation r = test::RandomBinaryRelation("R", {"x", "y"}, 120, 15, &rng);
  Relation s = test::RandomBinaryRelation("S", {"y", "z"}, 120, 15, &rng);
  Relation t = test::RandomBinaryRelation("T", {"z", "x"}, 120, 15, &rng);

  HypercubeConfig config;
  config.join_vars = {"x", "y", "z"};
  config.dims = {2, 2, 2};
  const std::vector<int> cell_map = IdentityCellMap(config);
  const int W = 8;

  auto shuffle = [&](const Relation& rel,
                     const std::vector<std::string>& vars) {
    return HypercubeShuffle(PartitionRoundRobin(rel, W), vars, config,
                            cell_map, W, "HCS " + rel.name())
        .value();
  };
  ShuffleResult sr = shuffle(r, {"x", "y"});
  ShuffleResult ss = shuffle(s, {"y", "z"});
  ShuffleResult st = shuffle(t, {"z", "x"});

  // Global expected result.
  NormalizedQuery q;
  q.atoms.push_back({{"x", "y"}, r});
  q.atoms.push_back({{"y", "z"}, s});
  q.atoms.push_back({{"z", "x"}, t});
  q.head_vars = {"x", "y", "z"};
  Relation expected = test::BruteForceJoin(q);

  // Union of local joins; also verify no duplicates across workers.
  Relation combined("combined", Schema{"x", "y", "z"});
  for (int w = 0; w < W; ++w) {
    const size_t wi = static_cast<size_t>(w);
    Relation local = SymmetricHashJoinLocal(
        SymmetricHashJoinLocal(sr.data[wi], ss.data[wi]), st.data[wi]);
    Relation proj = ProjectToVars(local, {"x", "y", "z"});
    combined.mutable_data().insert(combined.mutable_data().end(),
                                   proj.data().begin(), proj.data().end());
  }
  EXPECT_TRUE(combined.EqualsUnordered(expected));
}

// One shared column, two shared columns, and none (the cross product).
TEST(SymmetricHashJoinTest, MatchesBruteForce) {
  struct Shape {
    std::vector<std::string> left, right;
  };
  const std::vector<Shape> shapes = {
      {{"x", "y"}, {"y", "z"}},
      {{"x", "y"}, {"y", "x", "z"}},
      {{"x", "y"}, {"z", "w"}},
  };
  for (int seed = 0; seed < 5; ++seed) {
    for (const Shape& shape : shapes) {
      Rng rng(static_cast<uint64_t>(seed));
      Relation r = test::RandomBinaryRelation("R", shape.left, 40, 6, &rng);
      Relation s = test::RandomBinaryRelation("S", shape.right, 30, 6, &rng);
      NormalizedQuery q;
      q.atoms.push_back({shape.left, r});
      q.atoms.push_back({shape.right, s});
      q.head_vars = q.Variables();
      Relation joined = SymmetricHashJoinLocal(r, s);
      EXPECT_TRUE(ProjectToVars(joined, q.head_vars)
                      .EqualsUnordered(test::BruteForceJoin(q)))
          << "seed " << seed << ", right arity " << shape.right.size();
    }
  }
}

TEST(SymmetricHashJoinTest, EmptySidesAndCrossProduct) {
  Relation empty("R", Schema{"x", "y"});
  Relation s("S", Schema{"y", "z"});
  s.AddTuple({1, 2});
  EXPECT_EQ(SymmetricHashJoinLocal(empty, s).NumTuples(), 0u);
  EXPECT_EQ(SymmetricHashJoinLocal(s, empty).NumTuples(), 0u);
  Relation a("A", Schema{"p"});
  a.AddTuple({1});
  a.AddTuple({2});
  Relation b("B", Schema{"q"});
  b.AddTuple({7});
  EXPECT_EQ(SymmetricHashJoinLocal(a, b).NumTuples(), 2u);
}

TEST(FilterByPredicatesTest, AppliesOnlyBoundPredicates) {
  Relation r("R", Schema{"x", "y"});
  r.AddTuple({1, 5});
  r.AddTuple({6, 5});
  std::vector<Predicate> preds = {
      {Term::Var("x"), CmpOp::kGt, Term::Var("y")},
      {Term::Var("z"), CmpOp::kLt, Term::Const(0)},  // z unbound: ignored
  };
  Relation f = FilterByPredicates(r, preds);
  ASSERT_EQ(f.NumTuples(), 1u);
  EXPECT_EQ(f.At(0, 0), 6);
}

TEST(SemiJoinLocalTest, KeepsMatchingTuples) {
  Relation r("R", Schema{"x", "y"});
  r.AddTuple({1, 10});
  r.AddTuple({2, 20});
  r.AddTuple({3, 30});
  Relation keys("K", Schema{"x"});
  keys.AddTuple({1});
  keys.AddTuple({3});
  Relation out = SemiJoinLocal(r, keys);
  EXPECT_EQ(out.NumTuples(), 2u);
}

TEST(SemiJoinLocalTest, NoSharedColumnsDependsOnEmptiness) {
  Relation r("R", Schema{"x"});
  r.AddTuple({1});
  Relation nonempty("K", Schema{"q"});
  nonempty.AddTuple({9});
  Relation empty("K", Schema{"q"});
  EXPECT_EQ(SemiJoinLocal(r, nonempty).NumTuples(), 1u);
  EXPECT_EQ(SemiJoinLocal(r, empty).NumTuples(), 0u);
}

TEST(DistinctProjectTest, RemovesDuplicates) {
  Relation r("R", Schema{"x", "y"});
  r.AddTuple({1, 5});
  r.AddTuple({1, 6});
  r.AddTuple({2, 5});
  Relation d = DistinctProject(r, {"x"});
  EXPECT_EQ(d.NumTuples(), 2u);
}

TEST(PipelineTest, LeftDeepMatchesBruteForce) {
  Rng rng(21);
  NormalizedQuery q;
  q.atoms.push_back(
      {{"x", "y"}, test::RandomBinaryRelation("R", {"x", "y"}, 60, 9, &rng)});
  q.atoms.push_back(
      {{"y", "z"}, test::RandomBinaryRelation("S", {"y", "z"}, 60, 9, &rng)});
  q.atoms.push_back(
      {{"z", "x"}, test::RandomBinaryRelation("T", {"z", "x"}, 60, 9, &rng)});
  q.head_vars = {"x", "y", "z"};
  Relation expected = test::BruteForceJoin(q);

  std::vector<const Relation*> inputs = {&q.atoms[0].relation,
                                         &q.atoms[1].relation,
                                         &q.atoms[2].relation};
  PipelineStats stats;
  auto result = LeftDeepJoinLocal(inputs, {0, 1, 2}, {}, 1u << 30, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(ProjectToVars(*result, {"x", "y", "z"})
                  .EqualsUnordered(expected));
  EXPECT_EQ(stats.join_outputs.size(), 2u);
  EXPECT_EQ(stats.join_outputs.back(), expected.NumTuples());
}

TEST(PipelineTest, BudgetAborts) {
  Relation big("R", Schema{"k", "a"});
  Relation big2("S", Schema{"k", "b"});
  for (Value i = 0; i < 200; ++i) {
    big.AddTuple({0, i});
    big2.AddTuple({0, i});
  }
  std::vector<const Relation*> inputs = {&big, &big2};
  auto result = LeftDeepJoinLocal(inputs, {0, 1}, {}, 1000, nullptr);
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace ptp
