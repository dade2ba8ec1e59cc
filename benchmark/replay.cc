#include "replay.h"

#include <algorithm>
#include <utility>

#include "common/str_util.h"
#include "common/timer.h"
#include "exec/bloom.h"
#include "exec/cluster.h"
#include "exec/local_ops.h"
#include "exec/pipeline.h"
#include "exec/shuffle.h"
#include "hypercube/optimizer.h"
#include "lp/shares_lp.h"
#include "query/planner.h"
#include "runtime/parallel.h"
#include "tj/order_optimizer.h"
#include "tj/tributary_join.h"

namespace ptpbench {

using namespace ptp;

const std::vector<std::string>& WallLayers() {
  static const std::vector<std::string> layers = {
      "cluster.partition_ms", "hypercube.shares_ms",  "tj.order_opt_ms",
      "planner.join_order_ms", "bloom.build_ms",      "shuffle.hash_ms",
      "shuffle.broadcast_ms",  "shuffle.hypercube_ms", "tj.wall_ms",
      "hj.wall_ms",            "local.filter_ms",      "gather.ms"};
  return layers;
}

namespace {

class Recorder {
 public:
  Recorder(Layers* layers, const ReplayTrace& trace)
      : layers_(layers), trace_(trace) {}

  /// Runs `f`, books its wall time under `layer` and records a span.
  template <typename F>
  auto Time(const std::string& layer, const std::string& span, F&& f) {
    const Clock::time_point start = Clock::now();
    auto result = f();
    const Clock::time_point end = Clock::now();
    (*layers_)[layer] += Ms(start, end);
    if (trace_.spans != nullptr) {
      trace_.spans->Add(span, trace_.track, start, end, trace_.request,
                        trace_.parent);
    }
    return result;
  }

  void Add(const std::string& key, double value) { (*layers_)[key] += value; }
  void Max(const std::string& key, double value) {
    double& slot = (*layers_)[key];
    slot = std::max(slot, value);
  }

  void BookShuffle(const ShuffleMetrics& m) {
    Add("shuffle.tuples_sent", static_cast<double>(m.tuples_sent));
    Max("shuffle.consumer_skew_max", m.consumer_skew);
    Add("bloom.tested", static_cast<double>(m.bloom_tested));
    Add("bloom.filtered", static_cast<double>(m.bloom_filtered));
  }

  /// Books one barrier of per-worker local-join times, Tributary or hash:
  /// CPU is the sum over workers, the straggler terms are the slowest and
  /// the mean worker.
  void BookWorkers(const std::vector<double>& worker_ms) {
    double sum = 0, slowest = 0;
    for (double ms : worker_ms) {
      sum += ms;
      slowest = std::max(slowest, ms);
    }
    Add("local.cpu_ms", sum);
    Add("local.region_max_ms", slowest);
    Add("local.region_mean_ms",
        worker_ms.empty() ? 0 : sum / static_cast<double>(worker_ms.size()));
  }

 private:
  Layers* layers_;
  const ReplayTrace& trace_;
};

std::vector<std::string> SharedVars(const Schema& a, const Schema& b) {
  std::vector<std::string> shared;
  for (size_t i = 0; i < a.arity(); ++i) {
    if (b.IndexOf(a.name(i)) >= 0) shared.push_back(a.name(i));
  }
  return shared;
}

std::vector<int> ColumnIndices(const Schema& schema,
                               const std::vector<std::string>& vars) {
  std::vector<int> cols;
  for (const std::string& var : vars) cols.push_back(schema.IndexOf(var));
  return cols;
}

// First worker error in index order, as the engine resolves a barrier.
Status FirstError(const std::vector<Status>& statuses) {
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

// Per-fragment predicate filter as its own parallel region (the engine's
// first-atom and final filters).
Status FilterRegion(Recorder& rec, DistributedRelation* frags,
                    const std::vector<Predicate>& preds,
                    const std::string& span) {
  return rec.Time("local.filter_ms", span, [&] {
    return runtime::ParallelFor(static_cast<int>(frags->size()), [&](int f) {
      Relation& frag = (*frags)[static_cast<size_t>(f)];
      frag = FilterByPredicates(frag, preds);
      return Status::OK();
    });
  });
}

// One Tributary-join barrier over per-worker inputs.
Result<DistributedRelation> TributaryRegion(
    Recorder& rec, const std::vector<std::vector<const Relation*>>& inputs,
    const std::vector<std::string>& var_order,
    const std::vector<Predicate>& preds, size_t budget,
    const std::string& span) {
  const size_t W = inputs.size();
  DistributedRelation out(W);
  std::vector<Status> status(W);
  std::vector<double> worker_ms(W, 0.0);
  std::vector<TJMetrics> metrics(W);
  PTP_RETURN_IF_ERROR(rec.Time("tj.wall_ms", span, [&] {
    return runtime::ParallelFor(static_cast<int>(W), [&](int w) {
      const size_t wi = static_cast<size_t>(w);
      Timer t;
      TJOptions opts;
      opts.max_output_rows = budget;
      Result<Relation> r =
          TributaryJoin(inputs[wi], var_order, preds, opts, &metrics[wi]);
      worker_ms[wi] = t.Seconds() * 1e3;
      if (r.ok()) {
        out[wi] = std::move(r).value();
      } else {
        status[wi] = r.status();
      }
      return Status::OK();
    });
  }));
  PTP_RETURN_IF_ERROR(FirstError(status));
  rec.BookWorkers(worker_ms);
  for (const TJMetrics& m : metrics) {
    rec.Add("tj.sort_cpu_ms", m.sort_seconds * 1e3);
    rec.Add("tj.join_cpu_ms", m.join_seconds * 1e3);
    rec.Add("tj.seeks", static_cast<double>(m.seeks));
  }
  return out;
}

// FinishOutput: gather, project to the head, dedup when the head projects.
Relation GatherOutput(Recorder& rec, const NormalizedQuery& q,
                      const DistributedRelation& frags) {
  Relation out = rec.Time("gather.ms", "gather", [&] {
    const std::vector<std::string> all_vars = q.Variables();
    Relation projected = ProjectToVars(Gather(frags), q.head_vars, "result");
    if (q.head_vars.size() < all_vars.size()) projected.SortAndDedup();
    return projected;
  });
  rec.Add("gather.output_tuples", static_cast<double>(out.NumTuples()));
  return out;
}

// RunRegular: one hash-repartitioning round per binary join.
Result<Relation> ReplayRegular(Recorder& rec, const NormalizedQuery& q,
                               JoinKind join, const StrategyOptions& opts) {
  const int W = opts.num_workers;
  const std::vector<int> order = rec.Time(
      "planner.join_order_ms", "join order", [&] {
        return opts.join_order.empty() ? GreedyLeftDeepOrder(q)
                                       : opts.join_order;
      });
  std::vector<DistributedRelation> base = rec.Time(
      "cluster.partition_ms", "partition", [&] {
        std::vector<DistributedRelation> parts;
        for (const NormalizedAtom& atom : q.atoms) {
          parts.push_back(PartitionRoundRobin(atom.relation, W));
        }
        return parts;
      });

  std::vector<Predicate> pending = q.predicates;
  DistributedRelation acc = base[static_cast<size_t>(order[0])];
  {
    std::vector<Predicate> applicable, rest;
    SplitApplicablePredicates(
        pending, q.atoms[static_cast<size_t>(order[0])].relation.schema(),
        &applicable, &rest);
    if (!applicable.empty()) {
      PTP_RETURN_IF_ERROR(FilterRegion(rec, &acc, applicable, "filter"));
      pending = rest;
    }
  }

  for (size_t step = 1; step < order.size(); ++step) {
    const NormalizedAtom& atom = q.atoms[static_cast<size_t>(order[step])];
    const DistributedRelation& right_base =
        base[static_cast<size_t>(order[step])];
    const std::vector<std::string> shared =
        SharedVars(acc[0].schema(), atom.relation.schema());
    if (shared.empty()) {
      return Status::InvalidArgument(
          "replay does not cover disconnected regular-shuffle rounds");
    }
    const std::vector<int> left_cols = ColumnIndices(acc[0].schema(), shared);
    const std::vector<int> right_cols =
        ColumnIndices(atom.relation.schema(), shared);

    BloomFilter filter;
    const BloomFilter* bloom = nullptr;
    if (opts.bloom) {
      filter = rec.Time("bloom.build_ms", "bloom build", [&] {
        return BuildShuffleBloomFilter(acc, left_cols, opts.salt);
      });
      bloom = &filter;
    }

    DistributedRelation left, right;
    std::vector<std::vector<uint32_t>> arrival;
    std::vector<size_t> virtual_rows;
    const std::string label = StrFormat("round %zu", step);
    if (opts.rs_skew_aware) {
      Result<SkewAwareShuffleResult> sr =
          rec.Time("shuffle.hash_ms", "skew-aware shuffle " + label, [&] {
            return SkewAwareJoinShuffle(acc, left_cols, right_base,
                                        right_cols, W, opts.salt,
                                        opts.skew_threshold, label, {}, {},
                                        bloom);
          });
      PTP_RETURN_IF_ERROR(sr.status());
      rec.BookShuffle(sr->left_metrics);
      rec.BookShuffle(sr->right_metrics);
      left = std::move(sr->left);
      right = std::move(sr->right);
      arrival = std::move(sr->right_arrival);
      virtual_rows = std::move(sr->right_unfiltered_rows);
    } else {
      Result<ShuffleResult> ls =
          rec.Time("shuffle.hash_ms", "hash shuffle left " + label, [&] {
            return HashShuffle(acc, left_cols, W, opts.salt, label);
          });
      PTP_RETURN_IF_ERROR(ls.status());
      Result<ShuffleResult> rs =
          rec.Time("shuffle.hash_ms", "hash shuffle right " + label, [&] {
            return HashShuffle(right_base, right_cols, W, opts.salt, label,
                               {}, bloom);
          });
      PTP_RETURN_IF_ERROR(rs.status());
      rec.BookShuffle(ls->metrics);
      rec.BookShuffle(rs->metrics);
      left = std::move(ls->data);
      right = std::move(rs->data);
      arrival = std::move(rs->arrival);
      virtual_rows = std::move(rs->unfiltered_rows);
    }

    std::vector<std::string> joined_vars = left[0].schema().names();
    for (const std::string& v : right[0].schema().names()) {
      if (std::find(joined_vars.begin(), joined_vars.end(), v) ==
          joined_vars.end()) {
        joined_vars.push_back(v);
      }
    }
    std::vector<Predicate> applicable, rest;
    SplitApplicablePredicates(pending, Schema(joined_vars), &applicable,
                              &rest);
    pending = rest;

    const std::string out_name = StrFormat("int_%zu", step);
    if (join == JoinKind::kHashJoin) {
      DistributedRelation joined(static_cast<size_t>(W));
      std::vector<double> worker_ms(static_cast<size_t>(W), 0.0);
      PTP_RETURN_IF_ERROR(rec.Time("hj.wall_ms", "hash join " + label, [&] {
        return runtime::ParallelFor(W, [&](int w) {
          const size_t wi = static_cast<size_t>(w);
          Timer t;
          const std::vector<uint32_t>* arr =
              arrival.empty() ? nullptr : &arrival[wi];
          Relation r = SymmetricHashJoinLocal(
              left[wi], right[wi], out_name, arr,
              arr != nullptr ? virtual_rows[wi] : 0);
          joined[wi] = FilterByPredicates(r, applicable);
          worker_ms[wi] = t.Seconds() * 1e3;
          return Status::OK();
        });
      }));
      rec.BookWorkers(worker_ms);
      acc = std::move(joined);
    } else {
      // Binary Tributary join is a sort-merge join: shared variables first.
      std::vector<std::string> var_order = shared;
      for (const Relation* side : {&left[0], &right[0]}) {
        for (const std::string& v : side->schema().names()) {
          if (std::find(var_order.begin(), var_order.end(), v) ==
              var_order.end()) {
            var_order.push_back(v);
          }
        }
      }
      std::vector<std::vector<const Relation*>> inputs;
      for (int w = 0; w < W; ++w) {
        inputs.push_back({&left[static_cast<size_t>(w)],
                          &right[static_cast<size_t>(w)]});
      }
      PTP_ASSIGN_OR_RETURN(
          acc, TributaryRegion(rec, inputs, var_order, applicable,
                               opts.intermediate_budget,
                               "tributary join " + label));
      for (Relation& frag : acc) frag.set_name(out_name);
    }
  }

  if (!pending.empty()) {
    PTP_RETURN_IF_ERROR(FilterRegion(rec, &acc, pending, "final filter"));
  }
  return GatherOutput(rec, q, acc);
}

// RunLocalPhase: the single local join after a broadcast or HyperCube
// exchange.
Result<Relation> ReplayLocalPhase(
    Recorder& rec, const NormalizedQuery& q, JoinKind join,
    const StrategyOptions& opts,
    const std::vector<DistributedRelation>& shuffled) {
  const int W = opts.num_workers;
  std::vector<std::vector<const Relation*>> inputs(static_cast<size_t>(W));
  for (int w = 0; w < W; ++w) {
    for (const DistributedRelation& dist : shuffled) {
      inputs[static_cast<size_t>(w)].push_back(&dist[static_cast<size_t>(w)]);
    }
  }
  DistributedRelation out;
  if (join == JoinKind::kHashJoin) {
    const std::vector<int> order = rec.Time(
        "planner.join_order_ms", "join order", [&] {
          return opts.join_order.empty() ? GreedyLeftDeepOrder(q)
                                         : opts.join_order;
        });
    out.resize(static_cast<size_t>(W));
    std::vector<Status> status(static_cast<size_t>(W));
    std::vector<double> worker_ms(static_cast<size_t>(W), 0.0);
    PTP_RETURN_IF_ERROR(rec.Time("hj.wall_ms", "local HJ pipeline", [&] {
      return runtime::ParallelFor(W, [&](int w) {
        const size_t wi = static_cast<size_t>(w);
        Timer t;
        Result<Relation> r = LeftDeepJoinLocal(inputs[wi], order, q.predicates,
                                               opts.intermediate_budget);
        worker_ms[wi] = t.Seconds() * 1e3;
        if (r.ok()) {
          out[wi] = std::move(r).value();
        } else {
          status[wi] = r.status();
        }
        return Status::OK();
      });
    }));
    PTP_RETURN_IF_ERROR(FirstError(status));
    rec.BookWorkers(worker_ms);
  } else {
    const std::vector<std::string> var_order =
        rec.Time("tj.order_opt_ms", "variable order", [&] {
          return opts.var_order.empty() ? OptimizeVariableOrder(q).order
                                        : opts.var_order;
        });
    PTP_ASSIGN_OR_RETURN(
        out, TributaryRegion(rec, inputs, var_order, q.predicates,
                             opts.intermediate_budget, "local TJ"));
  }
  return GatherOutput(rec, q, out);
}

// RunBroadcast: the largest relation stays in place, the others broadcast.
Result<Relation> ReplayBroadcast(Recorder& rec, const NormalizedQuery& q,
                                 JoinKind join, const StrategyOptions& opts) {
  const int W = opts.num_workers;
  size_t largest = 0;
  for (size_t i = 1; i < q.atoms.size(); ++i) {
    if (q.atoms[i].relation.NumTuples() >
        q.atoms[largest].relation.NumTuples()) {
      largest = i;
    }
  }
  std::vector<DistributedRelation> shuffled(q.atoms.size());
  for (size_t i = 0; i < q.atoms.size(); ++i) {
    DistributedRelation base = rec.Time("cluster.partition_ms", "partition", [&] {
      return PartitionRoundRobin(q.atoms[i].relation, W);
    });
    const std::string label = q.atoms[i].relation.name();
    if (i == largest) {
      ShuffleResult sr = rec.Time("shuffle.broadcast_ms", "keep in place", [&] {
        return KeepInPlace(base, label);
      });
      rec.BookShuffle(sr.metrics);
      shuffled[i] = std::move(sr.data);
      continue;
    }
    Result<ShuffleResult> sr =
        rec.Time("shuffle.broadcast_ms", "broadcast " + label,
                 [&] { return BroadcastShuffle(base, W, label); });
    PTP_RETURN_IF_ERROR(sr.status());
    rec.BookShuffle(sr->metrics);
    shuffled[i] = std::move(sr->data);
  }
  return ReplayLocalPhase(rec, q, join, opts, shuffled);
}

// RunHypercube: Algorithm-1 shares, one HyperCube shuffle per atom.
Result<Relation> ReplayHypercube(Recorder& rec, const NormalizedQuery& q,
                                 JoinKind join, const StrategyOptions& opts) {
  const int W = opts.num_workers;
  if (opts.hc_round_down) {
    return Status::InvalidArgument("replay does not cover round-down shares");
  }
  HypercubeConfig config;
  std::vector<int> cell_map;
  rec.Time("hypercube.shares_ms", "shares", [&] {
    ConfigChoice choice =
        OptimizeShares(MakeShareProblem(q), W, opts.hc_options);
    choice.config.salt = opts.salt;
    config = choice.config;
    cell_map = IdentityCellMap(config);
    return 0;
  });
  std::vector<DistributedRelation> shuffled(q.atoms.size());
  for (size_t i = 0; i < q.atoms.size(); ++i) {
    DistributedRelation base = rec.Time("cluster.partition_ms", "partition", [&] {
      return PartitionRoundRobin(q.atoms[i].relation, W);
    });
    const std::string label = q.atoms[i].relation.name();
    Result<ShuffleResult> sr =
        rec.Time("shuffle.hypercube_ms", "hypercube shuffle " + label, [&] {
          return HypercubeShuffle(base, q.atoms[i].variables, config,
                                  cell_map, W, label);
        });
    PTP_RETURN_IF_ERROR(sr.status());
    rec.BookShuffle(sr->metrics);
    shuffled[i] = std::move(sr->data);
  }
  return ReplayLocalPhase(rec, q, join, opts, shuffled);
}

}  // namespace

Result<Relation> ReplayPlan(const NormalizedQuery& query, ShuffleKind shuffle,
                            JoinKind join, const StrategyOptions& options,
                            Layers* layers, const ReplayTrace& trace) {
  if (query.atoms.size() < 2) {
    return Status::InvalidArgument("replay does not cover single-atom scans");
  }
  Recorder rec(layers, trace);
  switch (shuffle) {
    case ShuffleKind::kRegular:
      return ReplayRegular(rec, query, join, options);
    case ShuffleKind::kBroadcast:
      return ReplayBroadcast(rec, query, join, options);
    case ShuffleKind::kHypercube:
      return ReplayHypercube(rec, query, join, options);
  }
  return Status::InvalidArgument("unknown shuffle kind");
}

}  // namespace ptpbench
