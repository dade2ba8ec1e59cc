// Outside-in layer replay of one served plan. The engine is not
// instrumented; instead the benchmark re-executes a plan by calling the
// engine's public layer functions (partitioning, share optimization, the
// three shuffles, bloom build, the local joins, gather) in the order
// RunStrategy calls them, and times each call from outside. Comparing the
// sum of the layers with a solo RunStrategy of the same plan leaves the
// residual: engine work between the layer calls that no layer accounts for.
#ifndef PTPBENCH_REPLAY_H_
#define PTPBENCH_REPLAY_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "plan/strategies.h"
#include "query/query.h"
#include "spans.h"
#include "storage/relation.h"

namespace ptpbench {

/// One replayed plan's account, keyed by layer: times in milliseconds
/// ("..._ms", one key per public function family), counts, and the partial
/// sums that ratios are built from ("bloom.tested", "local.region_max_ms",
/// ...). The per-layer metrics group these keys.
using Layers = std::map<std::string, double>;

/// The wall-time keys that tile the engine's coordinator timeline: their sum
/// plus the residual is the solo RunStrategy time.
const std::vector<std::string>& WallLayers();

/// Where the replay's spans go: every layer call becomes a child span of
/// `parent` on `track`, tagged with `request`. `spans` may be null.
struct ReplayTrace {
  SpanLog* spans = nullptr;
  int track = 0;
  std::string request;
  uint64_t parent = 0;
};

/// Executes `query` under (shuffle, join, options) through the public layer
/// functions, adding each call's time and counts to `layers`, and returns
/// the gathered output projected to the head (set semantics when the head
/// projects, as the engine does). Covers the plan shapes the workloads
/// serve: multi-atom queries whose regular-shuffle rounds share a join
/// variable. Other shapes return InvalidArgument rather than a wrong
/// account. No fault injection or lifecycle control is replayed.
ptp::Result<ptp::Relation> ReplayPlan(const ptp::NormalizedQuery& query,
                                      ptp::ShuffleKind shuffle,
                                      ptp::JoinKind join,
                                      const ptp::StrategyOptions& options,
                                      Layers* layers,
                                      const ReplayTrace& trace);

}  // namespace ptpbench

#endif  // PTPBENCH_REPLAY_H_
