#include "plan/semijoin_plan.h"

#include "common/str_util.h"
#include "exec/local_ops.h"
#include "exec/shuffle.h"
#include "plan/stage_driver.h"

namespace ptp {
namespace plan_internal {
namespace {

Result<StrategyResult> RunReduceThenJoin(const JoinTree& tree,
                                         const NormalizedQuery& normalized,
                                         const StrategyOptions& options,
                                         SemijoinBreakdown* breakdown) {
  Ctx ctx(normalized, options);
  const int W = ctx.W;

  // Working distributed state, one per atom.
  std::vector<DistributedRelation> rels;
  rels.reserve(normalized.atoms.size());
  std::vector<size_t> size_before;
  for (const NormalizedAtom& atom : normalized.atoms) {
    rels.push_back(PartitionRoundRobin(atom.relation, W));
    size_before.push_back(atom.relation.NumTuples());
  }

  // One distributed semijoin: rels[target] <- rels[target] ⋉ rels[filter].
  // An exhausted stage or exchange, a cancel, or a deadline FAILs the plan
  // gracefully (ctx.failed()), like the six strategies.
  auto reduce = [&](int target, int filter) -> Status {
    const size_t ti = static_cast<size_t>(target);
    const size_t fi = static_cast<size_t>(filter);
    const std::vector<std::string> shared =
        SharedVars(rels[ti][0].schema(), rels[fi][0].schema());
    if (shared.empty()) {
      if (TotalTuples(rels[fi]) == 0) {
        for (Relation& frag : rels[ti]) frag.Clear();
      }
      return Status::OK();
    }

    // Local preprocessing: project the filter onto the shared keys, dedup.
    StageOutput keys;
    PTP_RETURN_IF_ERROR(RunWorkerStage(
        &ctx, {.label = "project keys " + rels[fi][0].name()},
        [&](JoinKind, size_t w, WorkerOut* out) {
          out->rel = DistinctProject(rels[fi][w], shared, "keys");
          return Status::OK();
        },
        &keys));
    if (ctx.failed()) return Status::OK();

    // Shuffle both sides onto the shared attributes.
    DistributedRelation target_sh, keys_sh;
    const std::string input_label = rels[ti][0].name() + " (semijoin input)";
    const std::string keys_label = rels[fi][0].name() + " (semijoin keys)";
    PTP_RETURN_IF_ERROR(RunExchangeStep(
        &ctx,
        {ShuffleInto(input_label,
                     [&](ShuffleAttempt a) {
                       return HashShuffle(
                           rels[ti],
                           ColumnIndices(rels[ti][0].schema(), shared), W,
                           options.salt, input_label, a);
                     },
                     &target_sh),
         ShuffleInto(keys_label,
                     [&](ShuffleAttempt a) {
                       return HashShuffle(
                           keys.rel,
                           ColumnIndices(keys.rel[0].schema(), shared), W,
                           options.salt, keys_label, a);
                     },
                     &keys_sh)},
        {}));
    if (ctx.failed()) return Status::OK();
    if (breakdown != nullptr) {
      const std::vector<ShuffleMetrics>& booked = ctx.metrics().shuffles;
      breakdown->input_tuples_shuffled +=
          booked[booked.size() - 2].tuples_sent;
      breakdown->projected_tuples_shuffled += booked.back().tuples_sent;
    }

    // Local semijoin.
    StageOutput kept;
    PTP_RETURN_IF_ERROR(RunWorkerStage(
        &ctx,
        {.label = StrFormat("semijoin %s ⋉ %s", rels[ti][0].name().c_str(),
                            rels[fi][0].name().c_str())},
        [&](JoinKind, size_t w, WorkerOut* out) {
          out->rel = SemiJoinLocal(target_sh[w], keys_sh[w]);
          return Status::OK();
        },
        &kept));
    if (ctx.failed()) return Status::OK();
    rels[ti] = std::move(kept.rel);
    return Status::OK();
  };

  // Bottom-up pass: reduce each node by its (already reduced) children.
  for (int node : tree.bottom_up_order) {
    for (int child : tree.children[static_cast<size_t>(node)]) {
      PTP_RETURN_IF_ERROR(reduce(node, child));
      if (ctx.failed()) return std::move(ctx.result);
    }
  }
  // Top-down pass: reduce each child by its (fully reduced) parent.
  for (auto it = tree.bottom_up_order.rbegin();
       it != tree.bottom_up_order.rend(); ++it) {
    for (int child : tree.children[static_cast<size_t>(*it)]) {
      PTP_RETURN_IF_ERROR(reduce(child, *it));
      if (ctx.failed()) return std::move(ctx.result);
    }
  }

  if (breakdown != nullptr) {
    breakdown->reduction_per_atom.clear();
    for (size_t i = 0; i < rels.size(); ++i) {
      breakdown->reduction_per_atom.emplace_back(size_before[i],
                                                 TotalTuples(rels[i]));
    }
  }

  // Final join over the reduced relations with the regular-shuffle plan, in
  // this plan's frame. A checkpoint taken there could not be resumed under
  // this plan's name, so the join runs to completion.
  NormalizedQuery reduced = normalized;
  for (size_t i = 0; i < rels.size(); ++i) {
    reduced.atoms[i].relation = Gather(rels[i]);
    reduced.atoms[i].stats = nullptr;  // the base's statistics no longer hold
  }
  PTP_ASSIGN_OR_RETURN(
      StrategyResult final_join,
      RunConfiguration(reduced, ShuffleKind::kRegular, JoinKind::kHashJoin,
                       options, /*allow_suspend=*/false));
  ctx.metrics().Absorb(final_join.metrics);
  ctx.result.output = std::move(final_join.output);
  ctx.result.join_order_used = final_join.join_order_used;
  return std::move(ctx.result);
}

}  // namespace
}  // namespace plan_internal

Result<StrategyResult> RunSemijoinPlan(const ConjunctiveQuery& query,
                                       const NormalizedQuery& normalized,
                                       const StrategyOptions& options,
                                       SemijoinBreakdown* breakdown) {
  PTP_ASSIGN_OR_RETURN(JoinTree tree, BuildJoinTree(query));
  return plan_internal::RunInFrame("SEMIJOIN", /*resume=*/nullptr, [&] {
    return plan_internal::RunReduceThenJoin(tree, normalized, options,
                                            breakdown);
  });
}

}  // namespace ptp
