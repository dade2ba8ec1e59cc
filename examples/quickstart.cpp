// Quickstart: list all triangles of a small social graph three ways —
// single-machine Tributary join, then the HC_TJ and RS_HJ distributed
// strategies — and compare the metrics via EXPLAIN ANALYZE, with the whole
// run recorded as a Chrome trace (quickstart.trace.json).
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/quickstart

#include <iostream>

#include "ptp/ptp.h"

int main() {
  using namespace ptp;

  // 1. Generate a power-law "follower" graph and register three aliases of
  //    it for the triangle self-join.
  GraphGenOptions gen;
  gen.num_nodes = 1000;
  gen.num_edges = 8000;
  gen.seed = 1;
  Relation edges = GeneratePowerLawGraph(gen, "Follows");
  Catalog catalog;
  for (const char* alias : {"F1", "F2", "F3"}) {
    Relation copy = edges;
    copy.set_name(alias);
    catalog.Put(std::move(copy));
  }

  // 2. Parse the triangle query in Datalog notation.
  auto query = ParseDatalog(
      "Triangle(x,y,z) :- F1(x,y), F2(y,z), F3(z,x).", nullptr);
  if (!query.ok()) {
    std::cerr << "parse error: " << query.status().ToString() << "\n";
    return 1;
  }
  std::cout << "Query: " << query->ToString() << "\n";
  std::cout << "Cyclic: " << (Hypergraph(*query).IsAcyclic() ? "no" : "yes")
            << "\n\n";

  auto normalized = Normalize(*query, catalog);
  if (!normalized.ok()) {
    std::cerr << normalized.status().ToString() << "\n";
    return 1;
  }

  // 3. Standalone worst-case-optimal join with a cost-model-chosen order.
  OrderChoice order = OptimizeVariableOrder(*normalized);
  std::cout << "Cost-model variable order:";
  for (const auto& v : order.order) std::cout << " " << v;
  std::cout << " (estimated cost " << order.estimated_cost << ")\n";

  TJMetrics tj_metrics;
  auto triangles = TributaryJoinQuery(*normalized, order.order, TJOptions{},
                                      &tj_metrics);
  if (!triangles.ok()) {
    std::cerr << triangles.status().ToString() << "\n";
    return 1;
  }
  std::cout << "Triangles found: " << triangles->NumTuples()
            << "  (sort " << FormatSeconds(tj_metrics.sort_seconds)
            << ", join " << FormatSeconds(tj_metrics.join_seconds)
            << ", " << tj_metrics.seeks << " seeks)\n\n";

  // 4. Distributed execution: HyperCube + Tributary join vs. regular
  //    shuffle + hash join on a 16-worker simulated cluster — with the
  //    observability layer switched on for the duration.
  TraceSession trace;
  CounterRegistry counters;
  trace.NameTrack(kCoordinatorTrack, "coordinator");
  for (int w = 0; w < 16; ++w) {
    trace.NameTrack(WorkerTrack(w), StrFormat("worker %d", w));
  }
  runtime::ScopedQueryContext sinks({.counters = &counters, .trace = &trace});

  StrategyOptions opts;
  opts.num_workers = 16;
  for (auto [shuffle, join] :
       {std::pair{ShuffleKind::kHypercube, JoinKind::kTributary},
        std::pair{ShuffleKind::kRegular, JoinKind::kHashJoin}}) {
    auto result = RunStrategy(*normalized, shuffle, join, opts);
    if (!result.ok()) {
      std::cerr << result.status().ToString() << "\n";
      return 1;
    }
    // EXPLAIN ANALYZE: the executed plan annotated with its metrics.
    std::cout << ExplainAnalyzeText(StrategyName(shuffle, join), *result)
              << "\n";
    if (result->output.NumTuples() != triangles->NumTuples()) {
      std::cerr << "MISMATCH vs single-machine result!\n";
      return 1;
    }
  }

  std::cout << "counters collected while tracing:\n" << counters.ToString();
  Status written = trace.WriteJsonFile("quickstart.trace.json");
  if (written.ok()) {
    std::cout << "\ntimeline written to quickstart.trace.json ("
              << trace.events().size()
              << " events) - open it at ui.perfetto.dev\n";
  }
  std::cout << "\nAll three evaluations agree.\n";
  return 0;
}
