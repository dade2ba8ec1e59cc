#include "plan/strategies.h"

#include <algorithm>
#include <utility>

#include "common/str_util.h"
#include "common/timer.h"
#include "exec/lifecycle.h"
#include "exec/local_ops.h"
#include "exec/pipeline.h"
#include "exec/recovery.h"
#include "exec/shuffle.h"
#include "fault/fault.h"
#include "obs/counters.h"
#include "obs/resource.h"
#include "plan/stage_driver.h"
#include "query/planner.h"
#include "runtime/parallel.h"
#include "tj/order_optimizer.h"
#include "tj/tributary_join.h"

namespace ptp {
namespace {

using plan_internal::BookDegradation;
using plan_internal::ColumnIndices;
using plan_internal::Ctx;
using plan_internal::DistBytes;
using plan_internal::Exchange;
using plan_internal::RunConfiguration;
using plan_internal::RunExchangeStep;
using plan_internal::RunInFrame;
using plan_internal::RunWorkerStage;
using plan_internal::SharedVars;
using plan_internal::ShuffleInto;
using plan_internal::StageOutput;
using plan_internal::WorkerOut;
using plan_internal::WorkerStage;

std::string AtomLabel(const NormalizedAtom& atom) {
  std::string label = atom.relation.name() + "(";
  for (size_t i = 0; i < atom.variables.size(); ++i) {
    if (i > 0) label += ", ";
    label += atom.variables[i];
  }
  label += ")";
  return label;
}

std::string VarsLabel(const std::vector<std::string>& vars) {
  std::string out = "(";
  for (size_t i = 0; i < vars.size(); ++i) {
    if (i > 0) out += ", ";
    out += vars[i];
  }
  out += ")";
  return out;
}

// Appends the names of `more` that `vars` does not hold yet, in order.
void AppendMissing(const std::vector<std::string>& more,
                   std::vector<std::string>* vars) {
  for (const std::string& v : more) {
    if (std::find(vars->begin(), vars->end(), v) == vars->end()) {
      vars->push_back(v);
    }
  }
}

// Gathers per-worker result fragments, projects to the head, and applies set
// semantics for proper projections.
void FinishOutput(Ctx* ctx, DistributedRelation frags) {
  const NormalizedQuery& q = *ctx->q;
  const std::vector<std::string> all_vars = q.Variables();
  Relation gathered = Gather(frags);
  Relation projected =
      ProjectToVars(gathered, q.head_vars, "result");
  if (q.head_vars.size() < all_vars.size()) {
    projected.SortAndDedup();
  }
  ctx->result.output = std::move(projected);
  ctx->metrics().output_tuples = ctx->result.output.NumTuples();
}

// Filters every fragment, in parallel and in place, by the predicates of
// `preds` that its schema decides.
Status FilterFragments(const std::vector<Predicate>& preds,
                       DistributedRelation* frags) {
  if (preds.empty()) return Status::OK();
  return runtime::ParallelFor(static_cast<int>(frags->size()), [&](int f) {
    Relation& frag = (*frags)[static_cast<size_t>(f)];
    frag = FilterByPredicates(std::move(frag), preds);
    return Status::OK();
  });
}

// Chooses / validates the TJ variable order.
std::vector<std::string> PickVarOrder(const NormalizedQuery& q,
                                      const StrategyOptions& opts) {
  if (!opts.var_order.empty()) return opts.var_order;
  return OptimizeVariableOrder(q).order;
}

std::vector<int> PickJoinOrder(const NormalizedQuery& q,
                               const StrategyOptions& opts) {
  if (!opts.join_order.empty()) return opts.join_order;
  return GreedyLeftDeepOrder(q);
}

// One worker's Tributary join under the intermediate budget, reporting its
// sort and join time into `out`.
Result<Relation> WorkerTributaryJoin(const std::vector<const Relation*>& inputs,
                                     const std::vector<std::string>& var_order,
                                     const std::vector<Predicate>& predicates,
                                     const StrategyOptions& opts,
                                     WorkerOut* out) {
  TJOptions tj_opts;
  tj_opts.max_output_rows = opts.intermediate_budget;
  TJMetrics tj_metrics;
  Result<Relation> r =
      TributaryJoin(inputs, var_order, predicates, tj_opts, &tj_metrics);
  out->sort_seconds = tj_metrics.sort_seconds;
  out->join_seconds = tj_metrics.join_seconds;
  return r;
}

// ---------------------------------------------------------------------------
// Regular shuffle: one hash-repartitioning round per binary join.
// ---------------------------------------------------------------------------
// With `resume` non-null the run continues a barrier checkpoint instead of
// starting fresh: the accumulated fragments, round index, pending
// predicates, memory account, and partial metrics are restored, and the
// base relations are recomputed (round-robin placement is deterministic).
// `allow_suspend` is false when this run is the degraded tail of another
// family (an HC fallback): a checkpoint captured there could not be resumed
// under the original strategy name, so suspend requests stay pending and
// the fallback runs to completion.
Result<StrategyResult> RunRegular(const NormalizedQuery& q, JoinKind join,
                                  const StrategyOptions& opts,
                                  const QueryCheckpoint* resume = nullptr,
                                  bool allow_suspend = true) {
  Ctx ctx(q, opts);
  const int W = ctx.W;

  std::vector<int> order =
      resume != nullptr ? resume->order : PickJoinOrder(q, opts);
  ctx.result.join_order_used = order;
  if (order.size() != q.atoms.size()) {
    return Status::InvalidArgument("join order must cover all atoms");
  }

  // Initial round-robin placement (bit-identical on every run, so a
  // resumed query sees the same base fragments the suspended one did).
  std::vector<DistributedRelation> base;
  base.reserve(q.atoms.size());
  for (const NormalizedAtom& atom : q.atoms) {
    base.push_back(PartitionRoundRobin(atom.relation, W));
  }

  // Coordinator-side fragment accounting: `carried_bytes` is the previous
  // round's output, released when the next round's output replaces it.
  ResourceMeter* meter = ActiveResourceMeter();
  std::vector<Predicate> pending;
  uint64_t carried_bytes = 0;
  DistributedRelation acc;
  size_t start_step = 1;
  if (resume != nullptr) {
    ctx.result.metrics = resume->metrics;
    acc = resume->acc;
    pending = resume->pending;
    carried_bytes = resume->carried_bytes;
    start_step = resume->next_step;
    if (start_step < 1 || start_step > order.size()) {
      return Status::InvalidArgument("checkpoint round index out of range");
    }
  } else {
    acc = std::move(base[static_cast<size_t>(order[0])]);
    // Apply predicates already decidable on the first atom.
    std::vector<Predicate> applicable;
    SplitApplicablePredicates(
        q.predicates, q.atoms[static_cast<size_t>(order[0])].relation.schema(),
        &applicable, &pending);
    PTP_RETURN_IF_ERROR(FilterFragments(applicable, &acc));
  }

  for (size_t step = start_step; step < order.size(); ++step) {
    // Round barrier: the coordinator decision point for cancellation,
    // deadlines, and barrier-checkpoint suspension. The suspension check
    // runs only here (and is skipped once the query is failing), so the
    // set of capture points is identical at every thread count.
    const std::string barrier_label = StrFormat("round %zu barrier", step);
    if (ctx.FailOnControl(barrier_label)) return std::move(ctx.result);
    if (QueryLifecycle* lifecycle =
            allow_suspend ? ActiveQueryLifecycle() : nullptr) {
      if (lifecycle->ConsumeSuspend()) {
        auto cp = std::make_shared<QueryCheckpoint>();
        cp->strategy = StrategyName(ShuffleKind::kRegular, join);
        cp->next_step = step;
        cp->order = order;
        cp->acc = std::move(acc);
        cp->pending = std::move(pending);
        cp->carried_bytes = carried_bytes;
        cp->metrics = ctx.result.metrics;
        if (FaultInjector* injector = ActiveFaultInjector()) {
          cp->fault_cursor = injector->cursor();
        }
        ctx.result.checkpoint = std::move(cp);
        return std::move(ctx.result);
      }
    }

    const NormalizedAtom& atom = q.atoms[static_cast<size_t>(order[step])];
    const DistributedRelation& atom_base =
        base[static_cast<size_t>(order[step])];
    const std::vector<std::string> shared =
        SharedVars(acc[0].schema(), atom.relation.schema());

    // Sideways information passing: build the split-block filter over the
    // accumulated side's next-stage join keys (per-fragment in parallel,
    // OR-merged — bit-identical at any --threads) and hand it to the
    // probe-side shuffle below. Built once per round, OUTSIDE the recovery
    // loop: replays reuse the same filter, so filtered counts replay
    // bit-identically. The build cost is booked as wall time plus evenly
    // spread worker time without a new stage entry, keeping the stage list
    // identical with the filter on or off.
    BloomFilter bloom_filter;
    const BloomFilter* right_bloom = nullptr;
    if (opts.bloom && !shared.empty()) {
      Timer bloom_timer;
      BloomBuildStats bloom_stats;
      bloom_filter = BuildShuffleBloomFilter(
          acc, ColumnIndices(acc[0].schema(), shared), opts.salt,
          &bloom_stats);
      right_bloom = &bloom_filter;
      const double built = bloom_timer.Seconds();
      ctx.metrics().wall_seconds += built;
      for (int w = 0; w < W; ++w) {
        ctx.metrics().worker_seconds[static_cast<size_t>(w)] += built / W;
      }
      if (CounterRegistry* reg = ActiveCounterRegistry()) {
        reg->Add("bloom.filters_built", 1);
        reg->Add("bloom.build_tuples", bloom_stats.build_tuples);
        reg->Add("bloom.filter_bytes", bloom_stats.size_bytes);
      }
    }

    DistributedRelation left, right;
    // Right side's virtual arrival map (ShuffleResult::arrival), populated
    // only when `right_bloom` filtered the exchange; the symmetric join
    // replays it so the filtered round's output order matches the
    // unfiltered round's exactly.
    std::vector<std::vector<uint32_t>> right_arrival;
    std::vector<size_t> right_virtual_rows;
    std::vector<Exchange> exchanges;
    const std::string side_label =
        step == 1 ? AtomLabel(q.atoms[static_cast<size_t>(order[0])])
                  : StrFormat("Intermediate_%zu", step);
    const std::string key_label = " ->h" + VarsLabel(shared);
    // The skew-aware pair's right side registers its own exchange site on
    // the first attempt; both sides re-deliver together on retry.
    int right_site = -1;
    if (shared.empty()) {
      // Disconnected step: broadcast the (smaller) atom — degenerate case,
      // none of the paper's queries hit it but the engine supports it.
      left = std::move(acc);
      if (meter != nullptr) {
        // The carried fragments became `left` (no shuffled copy), so the
        // round's input charge below re-covers them.
        meter->Release(carried_bytes);
        carried_bytes = 0;
      }
      const std::string label = "Broadcast " + AtomLabel(atom);
      exchanges.push_back(ShuffleInto(
          label,
          [&, label](ShuffleAttempt a) {
            return BroadcastShuffle(atom_base, W, label, a);
          },
          &right));
    } else if (opts.rs_skew_aware) {
      const std::string label =
          side_label + " x " + AtomLabel(atom) + key_label;
      exchanges.push_back(
          {label + " (left, skew-aware)",
           [&, label](ShuffleAttempt a) -> Result<std::vector<ShuffleMetrics>> {
             if (right_site < 0) {
               if (FaultInjector* injector = ActiveFaultInjector()) {
                 right_site = injector->RegisterExchange(
                     label + " (right, skew-aware)");
               }
             }
             PTP_ASSIGN_OR_RETURN(
                 SkewAwareShuffleResult sr,
                 SkewAwareJoinShuffle(
                     acc, ColumnIndices(acc[0].schema(), shared), atom_base,
                     ColumnIndices(atom.relation.schema(), shared), W,
                     opts.salt, opts.skew_threshold, label, a,
                     {right_site, a.attempt}, right_bloom));
             left = std::move(sr.left);
             right = std::move(sr.right);
             right_arrival = std::move(sr.right_arrival);
             right_virtual_rows = std::move(sr.right_unfiltered_rows);
             return std::vector<ShuffleMetrics>{std::move(sr.left_metrics),
                                                std::move(sr.right_metrics)};
           }});
    } else {
      const std::string left_label = side_label + key_label;
      const std::string right_label = AtomLabel(atom) + key_label;
      exchanges.push_back(ShuffleInto(
          left_label,
          [&, left_label](ShuffleAttempt a) {
            return HashShuffle(acc, ColumnIndices(acc[0].schema(), shared), W,
                               opts.salt, left_label, a);
          },
          &left));
      exchanges.push_back(ShuffleInto(
          right_label,
          [&, right_label](ShuffleAttempt a) {
            return HashShuffle(atom_base,
                               ColumnIndices(atom.relation.schema(), shared),
                               W, opts.salt, right_label, a, right_bloom);
          },
          &right, &right_arrival, &right_virtual_rows));
    }
    PTP_RETURN_IF_ERROR(RunExchangeStep(&ctx, exchanges, {&left, &right}));
    if (ctx.failed()) return std::move(ctx.result);
    // The exchange has committed `left`, and nothing reads the consumed
    // intermediate again (a suspension captured it at the barrier above),
    // so its memory goes back now. The account is unchanged: it still
    // carries `carried_bytes` until this round's output replaces it.
    acc = DistributedRelation();
    const uint64_t in_bytes =
        meter != nullptr ? DistBytes(left) + DistBytes(right) : 0;

    // A Tributary round must sort its intermediate input in memory; the
    // pipelined hash join streams it. FAIL if the sort buffer won't fit.
    if (join == JoinKind::kTributary && step >= 2) {
      const size_t sort_budget = opts.sort_budget > 0
                                     ? opts.sort_budget
                                     : opts.intermediate_budget / 4;
      const size_t to_sort = TotalTuples(left);
      if (to_sort > sort_budget) {
        ctx.Fail(StrFormat("Tributary sort buffer needs %zu tuples, memory "
                           "budget is %zu (out of memory)",
                           to_sort, sort_budget),
                 StatusCode::kResourceExhausted);
        return std::move(ctx.result);
      }
    }

    // Local binary join on every worker.
    std::vector<Predicate> applicable;
    {
      // Determine the post-join schema to split predicates.
      std::vector<std::string> joined_vars = left[0].schema().names();
      AppendMissing(right[0].schema().names(), &joined_vars);
      std::vector<Predicate> rest;
      SplitApplicablePredicates(pending, Schema(joined_vars), &applicable,
                                &rest);
      pending = rest;
    }

    // The Tributary variable order is shared by all workers; build it once.
    std::vector<std::string> var_order;
    if (join != JoinKind::kHashJoin) {
      // Binary Tributary join == sort-merge join (Sec. 3 "for
      // completeness"): shared variables first in the order.
      var_order = shared;
      AppendMissing(left[0].schema().names(), &var_order);
      AppendMissing(right[0].schema().names(), &var_order);
    }

    WorkerStage round;
    round.label = StrFormat("join_%zu", step);
    round.join = join;
    round.degrade_scope = round.label;
    round.output_cap = opts.intermediate_budget;
    round.cap_reason = StrFormat(
        "round %zu intermediate exceeded budget of %zu tuples", step,
        opts.intermediate_budget);
    const std::string int_name = StrFormat("int_%zu", step);
    StageOutput joined;
    PTP_RETURN_IF_ERROR(RunWorkerStage(
        &ctx, round,
        [&](JoinKind round_join, size_t w, WorkerOut* out) -> Status {
          if (round_join == JoinKind::kHashJoin) {
            Timer jt;
            const std::vector<uint32_t>* arrival =
                right_arrival.empty() ? nullptr : &right_arrival[w];
            out->rel = SymmetricHashJoinLocal(
                left[w], right[w], int_name, arrival,
                arrival != nullptr ? right_virtual_rows[w] : 0, applicable);
            out->join_seconds = jt.Seconds();
            return Status::OK();
          }
          PTP_ASSIGN_OR_RETURN(
              out->rel, WorkerTributaryJoin({&left[w], &right[w]}, var_order,
                                            applicable, opts, out));
          out->rel.set_name(int_name);
          return Status::OK();
        },
        &joined));
    if (ctx.failed()) return std::move(ctx.result);
    if (step + 1 < order.size()) ctx.TrackIntermediate(joined.tuples);
    if (meter != nullptr) {
      // The round's output overlaps its inputs briefly (charge first for an
      // honest peak); the shuffled copies and the previous round's output
      // then go away.
      const uint64_t joined_bytes = DistBytes(joined.rel);
      meter->Charge(MemCategory::kIntermediate, joined_bytes);
      meter->Release(in_bytes + carried_bytes);
      carried_bytes = joined_bytes;
    }
    acc = std::move(joined.rel);
  }

  // Final barrier: last deterministic decision point before the gather.
  if (ctx.FailOnControl("final gather")) return std::move(ctx.result);
  PTP_RETURN_IF_ERROR(FilterFragments(pending, &acc));
  FinishOutput(&ctx, std::move(acc));
  if (meter != nullptr) meter->Release(carried_bytes);
  return std::move(ctx.result);
}

// ---------------------------------------------------------------------------
// Local one-round phase shared by broadcast and HyperCube plans.
// ---------------------------------------------------------------------------
Status RunLocalPhase(Ctx* ctx, JoinKind join,
                     const std::vector<DistributedRelation>& shuffled) {
  const NormalizedQuery& q = *ctx->q;
  const StrategyOptions& opts = *ctx->opts;

  std::vector<int> join_order;
  std::vector<std::string> var_order;
  auto pick_join_order = [&] {
    join_order = PickJoinOrder(q, opts);
    ctx->result.join_order_used = join_order;
  };
  WorkerStage phase;
  phase.join = join;
  if (join == JoinKind::kHashJoin) {
    pick_join_order();
    phase.label = "local HJ pipeline";
  } else {
    var_order = PickVarOrder(q, opts);
    ctx->result.var_order_used = var_order;
    phase.label = "local TJ";
  }
  phase.degrade_scope = "local phase";
  phase.on_degrade = pick_join_order;

  StageOutput out;
  PTP_RETURN_IF_ERROR(RunWorkerStage(
      ctx, phase,
      [&](JoinKind phase_join, size_t w, WorkerOut* worker) -> Status {
        std::vector<const Relation*> inputs;
        inputs.reserve(shuffled.size());
        for (const DistributedRelation& dist : shuffled) {
          inputs.push_back(&dist[w]);
        }
        if (phase_join == JoinKind::kTributary) {
          PTP_ASSIGN_OR_RETURN(worker->rel,
                               WorkerTributaryJoin(inputs, var_order,
                                                   q.predicates, opts, worker));
          return Status::OK();
        }
        Timer jt;
        Result<Relation> r =
            LeftDeepJoinLocal(inputs, join_order, q.predicates,
                              opts.intermediate_budget, &worker->pipeline);
        worker->join_seconds = jt.Seconds();
        PTP_ASSIGN_OR_RETURN(worker->rel, std::move(r));
        return Status::OK();
      },
      &out));

  // Per-join breakdown of the local pipeline (Table 5).
  ctx->TrackIntermediate(out.pipeline.max_intermediate);
  for (size_t i = 0; i < out.pipeline.join_outputs.size(); ++i) {
    StageMetrics stage;
    stage.label = StrFormat("pipeline join %zu", i + 1);
    stage.cpu_seconds = out.pipeline.join_seconds[i];
    stage.output_tuples = out.pipeline.join_outputs[i];
    // wall already accounted in the enclosing stage; report 0 to avoid
    // double counting.
    ctx->metrics().stages.push_back(stage);
  }
  if (!ctx->failed()) FinishOutput(ctx, std::move(out.rel));
  // The callers charged each shuffled input as it materialized.
  if (ResourceMeter* meter = ActiveResourceMeter()) {
    uint64_t in_bytes = 0;
    for (const DistributedRelation& dist : shuffled) {
      in_bytes += DistBytes(dist);
    }
    meter->Release(in_bytes);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Single-round plans: route every atom once, then run one local phase.
// ---------------------------------------------------------------------------
// How a single-round plan moves one atom.
enum class Route {
  kInPlace,    // stays partitioned where it is (BR's largest atom)
  kBroadcast,  // copied to every worker (BR's other atoms)
  kHypercube,  // shuffled into the Algorithm-1 configuration (HC)
};

// Broadcast keeps its largest atom in place and broadcasts the others;
// HyperCube shuffles every atom and, when an exchange keeps failing,
// degrades the whole plan to regular hash shuffles.
Result<StrategyResult> RunSingleRound(const NormalizedQuery& q,
                                      ShuffleKind shuffle, JoinKind join,
                                      const StrategyOptions& opts) {
  Ctx ctx(q, opts);
  const int W = ctx.W;
  const bool hypercube = shuffle == ShuffleKind::kHypercube;

  std::vector<Route> routes(q.atoms.size(),
                            hypercube ? Route::kHypercube : Route::kBroadcast);
  std::vector<int> cell_map;
  if (hypercube) {
    ShareProblem problem = MakeShareProblem(q);
    ConfigChoice choice;
    if (opts.hc_round_down) {
      PTP_ASSIGN_OR_RETURN(choice, RoundDownShares(problem, W));
    } else {
      choice = OptimizeShares(problem, W, opts.hc_options);
    }
    choice.config.salt = opts.salt;
    ctx.result.hc_config = choice.config;
    cell_map = IdentityCellMap(choice.config);
  } else {
    // The first of the largest atoms stays in place.
    auto smaller = [](const NormalizedAtom& a, const NormalizedAtom& b) {
      return a.relation.NumTuples() < b.relation.NumTuples();
    };
    routes[static_cast<size_t>(
        std::max_element(q.atoms.begin(), q.atoms.end(), smaller) -
        q.atoms.begin())] = Route::kInPlace;
  }
  const HypercubeConfig& config = ctx.result.hc_config;

  std::vector<DistributedRelation> shuffled(q.atoms.size());
  for (size_t i = 0; i < q.atoms.size(); ++i) {
    DistributedRelation base = PartitionRoundRobin(q.atoms[i].relation, W);
    const std::string atom_label = AtomLabel(q.atoms[i]);
    if (routes[i] == Route::kInPlace) {
      // Nothing crosses the network, so this is no fault site.
      Timer t;
      ShuffleResult sr =
          KeepInPlace(std::move(base), atom_label + " (in place)");
      ctx.BookShuffle(sr.metrics, t.Seconds());
      shuffled[i] = std::move(sr.data);
      if (ctx.ChargeAndPoll({&shuffled[i]}, atom_label)) {
        return std::move(ctx.result);
      }
      continue;
    }
    // Only HyperCube has a cheaper plan to fall back to.
    const std::string label =
        (routes[i] == Route::kHypercube ? "HCS " : "Broadcast ") + atom_label;
    Status st = RunExchangeStep(
        &ctx,
        {ShuffleInto(label,
                     [&](ShuffleAttempt a) -> Result<ShuffleResult> {
                       if (routes[i] == Route::kBroadcast) {
                         return BroadcastShuffle(base, W, label, a);
                       }
                       return HypercubeShuffle(base, q.atoms[i].variables,
                                               config, cell_map, W, label, a);
                     },
                     &shuffled[i])},
        {&shuffled[i]}, hypercube && opts.recovery.allow_degradation);
    if (IsRetryableFailure(st)) {
      // The HyperCube exchange keeps failing: degrade the whole plan to
      // regular hash shuffles. The partial HC accounting (booked shuffles,
      // wasted wall clock, backoff) stays on the bill, and the fallback
      // registers fresh fault sites under its own labels.
      BookDegradation(&ctx, StrFormat("'%s': hypercube shuffle -> regular "
                                      "hash shuffle",
                                      label.c_str()));
      PTP_ASSIGN_OR_RETURN(StrategyResult degraded,
                           RunRegular(q, join, opts, /*resume=*/nullptr,
                                      /*allow_suspend=*/false));
      QueryMetrics combined = std::move(ctx.metrics());
      combined.Absorb(degraded.metrics);
      degraded.metrics = std::move(combined);
      degraded.hc_config = ctx.result.hc_config;
      return degraded;
    }
    PTP_RETURN_IF_ERROR(st);
    if (ctx.failed()) return std::move(ctx.result);
  }

  PTP_RETURN_IF_ERROR(RunLocalPhase(&ctx, join, shuffled));
  return std::move(ctx.result);
}

}  // namespace

const char* StrategyName(ShuffleKind shuffle, JoinKind join) {
  switch (shuffle) {
    case ShuffleKind::kRegular:
      return join == JoinKind::kHashJoin ? "RS_HJ" : "RS_TJ";
    case ShuffleKind::kBroadcast:
      return join == JoinKind::kHashJoin ? "BR_HJ" : "BR_TJ";
    case ShuffleKind::kHypercube:
      return join == JoinKind::kHashJoin ? "HC_HJ" : "HC_TJ";
  }
  return "?";
}

namespace plan_internal {

Result<StrategyResult> RunConfiguration(const NormalizedQuery& q,
                                        ShuffleKind shuffle, JoinKind join,
                                        const StrategyOptions& opts,
                                        bool allow_suspend) {
  if (q.atoms.size() == 1) {
    // Single-atom query: no join; evaluate locally.
    Ctx ctx(q, opts);
    if (ctx.FailOnControl("single-atom scan")) return std::move(ctx.result);
    DistributedRelation frags = PartitionRoundRobin(q.atoms[0].relation, ctx.W);
    PTP_RETURN_IF_ERROR(FilterFragments(q.predicates, &frags));
    FinishOutput(&ctx, std::move(frags));
    return std::move(ctx.result);
  }
  if (shuffle == ShuffleKind::kRegular) {
    return RunRegular(q, join, opts, /*resume=*/nullptr, allow_suspend);
  }
  return RunSingleRound(q, shuffle, join, opts);
}

}  // namespace plan_internal

Result<StrategyResult> RunStrategy(const NormalizedQuery& query,
                                   ShuffleKind shuffle, JoinKind join,
                                   const StrategyOptions& options) {
  if (query.atoms.empty()) {
    return Status::InvalidArgument("query has no atoms");
  }
  if (options.num_workers < 1) {
    return Status::InvalidArgument("need at least one worker");
  }
  return RunInFrame(StrategyName(shuffle, join), /*resume=*/nullptr, [&] {
    return RunConfiguration(query, shuffle, join, options);
  });
}

Result<StrategyResult> ResumeStrategy(const NormalizedQuery& query,
                                      ShuffleKind shuffle, JoinKind join,
                                      const StrategyOptions& options,
                                      const QueryCheckpoint& checkpoint) {
  if (shuffle != ShuffleKind::kRegular) {
    return Status::InvalidArgument(
        "only regular-shuffle runs have barrier suspension points");
  }
  if (checkpoint.strategy != StrategyName(shuffle, join)) {
    return Status::InvalidArgument(
        StrFormat("checkpoint was captured by %s, resume asked for %s",
                  checkpoint.strategy.c_str(), StrategyName(shuffle, join)));
  }
  return RunInFrame(StrategyName(shuffle, join), &checkpoint, [&] {
    return RunRegular(query, join, options, &checkpoint);
  });
}

std::vector<std::pair<ShuffleKind, JoinKind>> AllStrategies() {
  return {
      {ShuffleKind::kRegular, JoinKind::kHashJoin},
      {ShuffleKind::kRegular, JoinKind::kTributary},
      {ShuffleKind::kBroadcast, JoinKind::kHashJoin},
      {ShuffleKind::kBroadcast, JoinKind::kTributary},
      {ShuffleKind::kHypercube, JoinKind::kHashJoin},
      {ShuffleKind::kHypercube, JoinKind::kTributary},
  };
}

Result<std::vector<StrategyResult>> RunAllStrategies(
    const NormalizedQuery& query, const StrategyOptions& options) {
  std::vector<StrategyResult> results;
  for (const auto& [shuffle, join] : AllStrategies()) {
    Result<StrategyResult> r = RunStrategy(query, shuffle, join, options);
    if (!r.ok()) {
      return Status(r.status().code(),
                    StrFormat("strategy %s: %s", StrategyName(shuffle, join),
                              r.status().message().c_str()));
    }
    results.push_back(std::move(r).value());
  }
  return results;
}

}  // namespace ptp
