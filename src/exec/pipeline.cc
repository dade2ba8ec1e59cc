#include "exec/pipeline.h"

#include <algorithm>

#include "common/logging.h"
#include "common/str_util.h"
#include "common/timer.h"
#include "obs/counters.h"

namespace ptp {

void PipelineStats::Merge(const PipelineStats& other) {
  if (join_outputs.size() < other.join_outputs.size()) {
    join_outputs.resize(other.join_outputs.size(), 0);
    join_seconds.resize(other.join_seconds.size(), 0.0);
  }
  for (size_t i = 0; i < other.join_outputs.size(); ++i) {
    join_outputs[i] += other.join_outputs[i];
    join_seconds[i] += other.join_seconds[i];
  }
  max_intermediate = std::max(max_intermediate, other.max_intermediate);
}

Result<Relation> LeftDeepJoinLocal(const std::vector<const Relation*>& inputs,
                                   const std::vector<int>& order,
                                   const std::vector<Predicate>& preds,
                                   size_t max_intermediate_rows,
                                   PipelineStats* stats) {
  // Plan-shape problems are propagated, not fatal: this runs inside worker
  // bodies on the runtime pool, where an abort would take the cluster down
  // instead of failing one query.
  if (order.empty()) {
    return Status::InvalidArgument("LeftDeepJoinLocal: empty join order");
  }
  if (order.size() > inputs.size()) {
    return Status::InvalidArgument(
        StrFormat("LeftDeepJoinLocal: join order has %zu entries for %zu "
                  "inputs",
                  order.size(), inputs.size()));
  }

  // The first input is read in place. `acc` owns the running intermediate
  // once there is one: a filtered copy of the first input when a predicate
  // is already decidable on it, else the first join's output.
  const Relation* first = inputs[static_cast<size_t>(order[0])];
  const Relation* left = first;
  Relation acc;
  std::vector<Predicate> pending, decided;
  SplitApplicablePredicates(preds, first->schema(), &decided, &pending);
  if (!decided.empty()) {
    acc = FilterByPredicates(*first, decided);
    left = &acc;
  }
  for (size_t i = 1; i < order.size(); ++i) {
    const Relation& next = *inputs[static_cast<size_t>(order[i])];
    Timer join_timer;
    const size_t build_tuples = left->NumTuples();
    // The join applies the pending predicates that its output decides, at
    // emit; each predicate is evaluated at the first join that binds it.
    acc = SymmetricHashJoinLocal(*left, next, StrFormat("join_%zu", i),
                                 nullptr, 0, pending);
    left = &acc;
    std::vector<Predicate> rest;
    SplitApplicablePredicates(pending, acc.schema(), &decided, &rest);
    pending = std::move(rest);
    if (CounterRegistry* reg = ActiveCounterRegistry()) {
      reg->Add("pipeline.joins", 1);
      reg->Add("pipeline.build_tuples", build_tuples);
      reg->Add("pipeline.probe_tuples", next.NumTuples());
      reg->Add("pipeline.output_tuples", acc.NumTuples());
      reg->Hist("pipeline.join_output")->Record(acc.NumTuples());
    }
    if (stats != nullptr) {
      stats->join_outputs.push_back(acc.NumTuples());
      stats->join_seconds.push_back(join_timer.Seconds());
      stats->max_intermediate =
          std::max(stats->max_intermediate, acc.NumTuples());
    }
    if (acc.NumTuples() > max_intermediate_rows) {
      return Status::ResourceExhausted(
          StrFormat("intermediate result after join %zu has %zu tuples, "
                    "budget is %zu",
                    i, acc.NumTuples(), max_intermediate_rows));
    }
  }
  if (left == first) return *first;
  return acc;
}

}  // namespace ptp
