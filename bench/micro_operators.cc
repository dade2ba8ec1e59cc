// Operator micro-benchmarks backing the paper's design discussion:
//  * Sec. 2.2: TJ's seek is a binary search (O(log n)) on sorted arrays —
//    measure seek cost, and sort-on-the-fly vs. the join itself.
//  * Sec. 3.1: Tributary join vs. a pipeline of hash joins on triangles.
//  * Sec. 3: the symmetric hash join's emission at high fan-out, with and
//    without a predicate applied at emit.
//  * DESIGN.md ablation: binary-search seek vs. a full level scan.

#include <benchmark/benchmark.h>

#include "ptp/ptp.h"

namespace {

using namespace ptp;

Relation MakeGraph(size_t edges, uint64_t seed) {
  GraphGenOptions options;
  options.num_nodes = std::max<size_t>(64, edges / 12);
  options.num_edges = edges;
  options.zipf_exponent = 0.7;
  options.seed = seed;
  return GeneratePowerLawGraph(options, "G");
}

NormalizedQuery TriangleQuery(size_t edges) {
  Relation g = MakeGraph(edges, 77);
  NormalizedQuery q;
  auto with_vars = [&](const char* a, const char* b) {
    Relation copy = g;
    Relation renamed(copy.name(), Schema{a, b});
    renamed.mutable_data() = std::move(copy.mutable_data());
    return renamed;
  };
  q.atoms.push_back({{"x", "y"}, with_vars("x", "y")});
  q.atoms.push_back({{"y", "z"}, with_vars("y", "z")});
  q.atoms.push_back({{"z", "x"}, with_vars("z", "x")});
  q.head_vars = {"x", "y", "z"};
  return q;
}

void BM_SortPhase(benchmark::State& state) {
  Relation g = MakeGraph(static_cast<size_t>(state.range(0)), 3);
  for (auto _ : state) {
    Relation copy = g;
    copy.SortLex();
    benchmark::DoNotOptimize(copy.data().data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SortPhase)->Range(1 << 12, 1 << 18);

void BM_TrieSeek(benchmark::State& state) {
  Relation g = MakeGraph(static_cast<size_t>(state.range(0)), 5);
  g.SortLex();
  Rng rng(9);
  const Value max_node = static_cast<Value>(state.range(0) / 12 + 64);
  TrieIterator it(&g);  // the level build is BM_TriangleTributaryJoin's
  for (auto _ : state) {
    it.Open();
    // A run of ascending seeks across the first level.
    Value v = 0;
    while (!it.AtEnd()) {
      v += static_cast<Value>(1 + rng.Uniform(16));
      if (v > max_node) break;
      it.Seek(v);
    }
    it.Up();
    benchmark::DoNotOptimize(it.num_seeks());
  }
}
BENCHMARK(BM_TrieSeek)->Range(1 << 12, 1 << 18);

void BM_TriangleTributaryJoin(benchmark::State& state) {
  NormalizedQuery q = TriangleQuery(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto result = TributaryJoinQuery(q, {"x", "y", "z"});
    benchmark::DoNotOptimize(result->NumTuples());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TriangleTributaryJoin)
    ->Range(1 << 12, 1 << 16)
    ->Unit(benchmark::kMillisecond);

void BM_TriangleHashJoinPipeline(benchmark::State& state) {
  NormalizedQuery q = TriangleQuery(static_cast<size_t>(state.range(0)));
  std::vector<const Relation*> inputs = {&q.atoms[0].relation,
                                         &q.atoms[1].relation,
                                         &q.atoms[2].relation};
  for (auto _ : state) {
    auto result = LeftDeepJoinLocal(inputs, {0, 1, 2}, {},
                                    std::numeric_limits<size_t>::max());
    benchmark::DoNotOptimize(result->NumTuples());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TriangleHashJoinPipeline)
    ->Range(1 << 12, 1 << 16)
    ->Unit(benchmark::kMillisecond);

// One symmetric hash join with high fan-out: 100 rows per key on each side,
// so the output is 100x the input and emission dominates. The second
// argument adds one predicate, decidable on the joined schema and true for
// about half the pairs, which the join evaluates at emit.
void BM_SymmetricHashJoin(benchmark::State& state) {
  const Value rows = state.range(0);
  Relation left("L", Schema{"k", "a"});
  Relation right("R", Schema{"k", "b"});
  for (Value i = 0; i < rows; ++i) {
    left.AddTuple({i % (rows / 100), i});
    right.AddTuple({i % (rows / 100), rows - i});
  }
  std::vector<Predicate> preds;
  if (state.range(1) != 0) {
    Predicate p;
    p.lhs = Term::Var("a");
    p.op = CmpOp::kLt;
    p.rhs = Term::Var("b");
    preds.push_back(p);
  }
  size_t out_rows = 0;
  for (auto _ : state) {
    Relation out =
        SymmetricHashJoinLocal(left, right, "join", nullptr, 0, preds);
    out_rows = out.NumTuples();
    benchmark::DoNotOptimize(out.data().data());
    benchmark::ClobberMemory();
  }
  state.counters["out_rows"] = static_cast<double>(out_rows);
  state.SetItemsProcessed(state.iterations() * rows * 100);
}
BENCHMARK(BM_SymmetricHashJoin)
    ->Args({1 << 12, 0})
    ->Args({1 << 12, 1})
    ->Args({1 << 14, 0})
    ->Args({1 << 14, 1})
    ->Unit(benchmark::kMillisecond);

// Sec. 2.2 design argument: "sorting on the fly is cheaper than computing a
// B-tree on the fly". Compare the two build phases on the same data.
void BM_BTreeBuildPhase(benchmark::State& state) {
  Relation g = MakeGraph(static_cast<size_t>(state.range(0)), 3);
  for (auto _ : state) {
    BPlusTree tree(2);
    tree.InsertAll(g);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BTreeBuildPhase)->Range(1 << 12, 1 << 18);

// ...and the seek side of the trade-off: a trie seek is O(log n) in both
// backends here, but the B-tree pays a pointer-chasing root-to-leaf walk.
void BM_BTreeTrieSeek(benchmark::State& state) {
  Relation g = MakeGraph(static_cast<size_t>(state.range(0)), 5);
  BPlusTree tree(2);
  tree.InsertAll(g);
  Rng rng(9);
  const Value max_node = static_cast<Value>(state.range(0) / 12 + 64);
  for (auto _ : state) {
    BTreeTrieIterator it(&tree);
    it.Open();
    Value v = 0;
    while (!it.AtEnd()) {
      v += static_cast<Value>(1 + rng.Uniform(16));
      if (v > max_node) break;
      it.Seek(v);
    }
    benchmark::DoNotOptimize(it.num_seeks());
  }
}
BENCHMARK(BM_BTreeTrieSeek)->Range(1 << 12, 1 << 18);

// End-to-end: triangle Tributary join, array backend vs B-tree backend.
void BM_TriangleTJBTreeBackend(benchmark::State& state) {
  NormalizedQuery q = TriangleQuery(static_cast<size_t>(state.range(0)));
  TJOptions opts;
  opts.backend = TJBackend::kBTree;
  for (auto _ : state) {
    auto result = TributaryJoinQuery(q, {"x", "y", "z"}, opts);
    benchmark::DoNotOptimize(result->NumTuples());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TriangleTJBTreeBackend)
    ->Range(1 << 12, 1 << 16)
    ->Unit(benchmark::kMillisecond);

void BM_HashShuffle(benchmark::State& state) {
  Relation g = MakeGraph(static_cast<size_t>(state.range(0)), 11);
  DistributedRelation dist = PartitionRoundRobin(g, 64);
  for (auto _ : state) {
    ShuffleResult r = HashShuffle(dist, {0}, 64, 1, "bench").value();
    benchmark::DoNotOptimize(r.metrics.tuples_sent);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HashShuffle)->Range(1 << 12, 1 << 17);

// Skew-aware join shuffle of the graph with itself on a hub-heavy key: at
// threshold 0.25 the power-law's hubs are heavy, so the left side
// round-robins them and the right side replicates them to every worker.
void BM_SkewAwareShuffle(benchmark::State& state) {
  Relation g = MakeGraph(static_cast<size_t>(state.range(0)), 17);
  DistributedRelation dist = PartitionRoundRobin(g, 64);
  for (auto _ : state) {
    SkewAwareShuffleResult r =
        SkewAwareJoinShuffle(dist, {1}, dist, {0}, 64, 1, 0.25, "bench")
            .value();
    benchmark::DoNotOptimize(r.right_metrics.tuples_sent);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SkewAwareShuffle)->Range(1 << 12, 1 << 17);

void BM_HypercubeShuffle(benchmark::State& state) {
  Relation g = MakeGraph(static_cast<size_t>(state.range(0)), 13);
  DistributedRelation dist = PartitionRoundRobin(g, 64);
  HypercubeConfig config;
  config.join_vars = {"x", "y", "z"};
  config.dims = {4, 4, 4};
  const std::vector<int> map = IdentityCellMap(config);
  for (auto _ : state) {
    ShuffleResult r =
        HypercubeShuffle(dist, {"x", "y"}, config, map, 64, "bench").value();
    benchmark::DoNotOptimize(r.metrics.tuples_sent);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HypercubeShuffle)->Range(1 << 12, 1 << 17);

}  // namespace
