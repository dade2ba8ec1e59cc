#include "tj/tributary_join.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "common/str_util.h"
#include "common/timer.h"
#include "exec/local_ops.h"
#include "obs/counters.h"
#include "obs/resource.h"
#include "tj/btree.h"
#include "tj/btree_trie.h"
#include "tj/leapfrog.h"
#include "tj/trie_iterator.h"

namespace ptp {
namespace {

// A comparison predicate resolved against the global variable order.
struct ResolvedPredicate {
  int lhs_idx;  // index into var_order, or -1 for constant
  Value lhs_const;
  CmpOp op;
  int rhs_idx;
  Value rhs_const;
  // Depth at which both sides are bound (max var index; 0 if both constant).
  int ready_depth;
};

// Trie-operation totals across a join's cursors.
struct TrieOpCounts {
  size_t seeks = 0;
  size_t nexts = 0;
  size_t opens = 0;
  size_t ups = 0;
  size_t gallop_steps = 0;
};

// The backend-independent face of the join driver; Prepare picks the
// concrete Joiner<Cursor> once per join, so only these per-join calls are
// virtual.
class JoinDriver {
 public:
  JoinDriver() = default;
  JoinDriver(const JoinDriver&) = delete;
  JoinDriver& operator=(const JoinDriver&) = delete;
  virtual ~JoinDriver() = default;
  virtual Status Run(Relation* out) = 0;
  /// Count-only run: no materialization; returns the result cardinality.
  virtual Result<size_t> RunCount() = 0;
  virtual TrieOpCounts Counts() const = 0;
  /// Per-variable leapfrog stats: lf_stats()[d] covers the intersections
  /// that bound var_order[d].
  virtual const std::vector<LeapfrogStats>& lf_stats() const = 0;
};

// The recursive join driver (paper Sec. 2.2: find a value for the current
// variable via leapfrog intersection, then recurse into the residual query),
// instantiated per concrete `final` cursor type so the per-key cursor and
// leapfrog calls bind statically.
template <typename Cursor>
class Joiner final : public JoinDriver {
 public:
  // Takes ownership of the cursors and of the B+-trees (if any) they read;
  // array cursors own their trie levels.
  Joiner(std::vector<std::unique_ptr<BPlusTree>> trees,
         std::vector<std::unique_ptr<Cursor>> cursors,
         std::vector<std::vector<int>> iters_per_depth,
         const std::vector<ResolvedPredicate>& preds, size_t num_vars,
         const TJOptions& options)
      : trees_(std::move(trees)),
        iters_(std::move(cursors)),
        iters_per_depth_(std::move(iters_per_depth)),
        preds_per_depth_(num_vars),
        num_vars_(num_vars),
        options_(options) {
    binding_.resize(num_vars_);
    lf_stats_.resize(num_vars_);
    // A key bound at depth d checks only the predicates that become
    // evaluable there, in their original order.
    for (const ResolvedPredicate& p : preds) {
      if (static_cast<size_t>(p.ready_depth) < num_vars_) {
        preds_per_depth_[static_cast<size_t>(p.ready_depth)].push_back(p);
      }
    }
    // One cursor vector per depth, sized once and lent to that depth's
    // leapfrog at every node of the search tree.
    open_per_depth_.resize(num_vars_);
    for (size_t d = 0; d < num_vars_; ++d) {
      open_per_depth_[d].reserve(iters_per_depth_[d].size());
    }
  }

  Status Run(Relation* out) override {
    out_ = out;
    PTP_RETURN_IF_ERROR(Recurse(0));
    return Status::OK();
  }

  Result<size_t> RunCount() override {
    out_ = nullptr;
    PTP_RETURN_IF_ERROR(Recurse(0));
    return count_;
  }

  TrieOpCounts Counts() const override {
    TrieOpCounts counts;
    for (const auto& it : iters_) {
      counts.seeks += it->num_seeks();
      counts.nexts += it->num_nexts();
      counts.opens += it->num_opens();
      counts.ups += it->num_ups();
      counts.gallop_steps += it->num_gallop_steps();
    }
    return counts;
  }

  const std::vector<LeapfrogStats>& lf_stats() const override {
    return lf_stats_;
  }

 private:
  bool PredicatesHold(size_t depth) const {
    for (const ResolvedPredicate& p : preds_per_depth_[depth]) {
      const Value l = p.lhs_idx >= 0 ? binding_[static_cast<size_t>(p.lhs_idx)]
                                     : p.lhs_const;
      const Value r = p.rhs_idx >= 0 ? binding_[static_cast<size_t>(p.rhs_idx)]
                                     : p.rhs_const;
      if (!Predicate::Eval(l, p.op, r)) return false;
    }
    return true;
  }

  Status Recurse(size_t depth) {
    if (depth == num_vars_) {
      ++count_;
      if (out_ != nullptr) out_->AddTuple(binding_);
      if (count_ > options_.max_output_rows) {
        return Status::ResourceExhausted(
            StrFormat("Tributary join output exceeded %zu rows",
                      options_.max_output_rows));
      }
      return Status::OK();
    }

    const std::vector<int>& participating = iters_per_depth_[depth];
    PTP_DCHECK(!participating.empty());

    // Open the participating iterators one level deeper; if any relation has
    // no rows under the current prefix, the residual query is empty.
    std::vector<Cursor*>& open = open_per_depth_[depth];
    open.clear();
    bool empty = false;
    for (int idx : participating) {
      Cursor& it = *iters_[static_cast<size_t>(idx)];
      if ((it.depth() >= 0 && it.AtEnd()) || it.EmptyRelation()) {
        empty = true;
        break;
      }
      it.Open();
      open.push_back(&it);
      if (it.AtEnd()) {
        empty = true;
        break;
      }
    }
    Status status;
    if (!empty) {
      LeapfrogJoin<Cursor> leapfrog(std::move(open), &lf_stats_[depth],
                                    &seeks_);
      while (!leapfrog.AtEnd()) {
        binding_[depth] = leapfrog.Key();
        if (PredicatesHold(depth)) {
          status = Recurse(depth + 1);
          if (!status.ok()) break;
        }
        if (seeks_ > options_.max_seeks) {
          status = Status::ResourceExhausted(StrFormat(
              "Tributary join exceeded %zu seeks", options_.max_seeks));
          break;
        }
        leapfrog.Next();
      }
      open = leapfrog.ReleaseIters();
    }
    for (Cursor* it : open) it->Up();
    return status;
  }

  std::vector<std::unique_ptr<BPlusTree>> trees_;
  std::vector<std::unique_ptr<Cursor>> iters_;
  std::vector<std::vector<int>> iters_per_depth_;
  std::vector<std::vector<ResolvedPredicate>> preds_per_depth_;
  std::vector<std::vector<Cursor*>> open_per_depth_;
  size_t num_vars_;
  TJOptions options_;
  Tuple binding_;
  std::vector<LeapfrogStats> lf_stats_;  // one per variable (depth)
  Relation* out_ = nullptr;
  size_t count_ = 0;
  // Cursor Seek() calls so far, for the seek budget: the leapfrogs add the
  // seeks the cursors count, so the B-tree cursor's Next() seeks are in too
  // and the total is Σ num_seeks() over the cursors on either backend.
  size_t seeks_ = 0;
};

// Shared preparation for TributaryJoin / TributaryCount: permutes and sorts
// the inputs into trie levels (or tree-builds them) and constructs the
// Joiner.
struct PreparedJoin {
  std::unique_ptr<JoinDriver> joiner;
  double sort_seconds = 0;
  /// Trie storage bytes (each input's trie levels, or the B+-tree rows),
  /// held live until the join finishes.
  std::vector<ScopedMemCharge> trie_mem;
};

}  // namespace

namespace {

Result<PreparedJoin> Prepare(const std::vector<const Relation*>& inputs,
                             const std::vector<std::string>& var_order,
                             const std::vector<Predicate>& predicates,
                             const TJOptions& options) {
  if (inputs.empty()) {
    return Status::InvalidArgument("Tributary join needs at least one input");
  }
  auto order_index = [&](const std::string& var) {
    for (size_t i = 0; i < var_order.size(); ++i) {
      if (var_order[i] == var) return static_cast<int>(i);
    }
    return -1;
  };

  // Sort phase: permute each input's columns into global-order position,
  // sort lexicographically and build the trie levels, freeing the sorted
  // rows once its levels exist (the B-tree backend pays its on-the-fly
  // insertion build instead).
  PreparedJoin prepared;
  Timer sort_timer;
  std::vector<std::unique_ptr<TrieIterator>> tries;
  std::vector<std::unique_ptr<BPlusTree>> trees;
  uint64_t tree_bytes = 0;
  // iters_per_depth[d] = inputs whose trie level matching var_order[d]
  // exists (i.e. atoms containing that variable).
  std::vector<std::vector<int>> iters_per_depth(var_order.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    const Relation& rel = *inputs[i];
    // Column permutation: this atom's variables in global-order sequence.
    std::vector<std::pair<int, int>> order_and_col;  // (global idx, column)
    for (size_t col = 0; col < rel.arity(); ++col) {
      const int idx = order_index(rel.schema().name(col));
      if (idx < 0) {
        return Status::InvalidArgument(
            "variable '" + rel.schema().name(col) +
            "' of input '" + rel.name() + "' missing from var_order");
      }
      order_and_col.emplace_back(idx, static_cast<int>(col));
    }
    std::sort(order_and_col.begin(), order_and_col.end());
    std::vector<int> perm;
    perm.reserve(order_and_col.size());
    for (size_t level = 0; level < order_and_col.size(); ++level) {
      perm.push_back(order_and_col[level].second);
      iters_per_depth[static_cast<size_t>(order_and_col[level].first)]
          .push_back(static_cast<int>(i));
    }
    Relation permuted = rel.PermuteColumns(perm);
    const uint64_t row_bytes = static_cast<uint64_t>(permuted.NumTuples()) *
                               permuted.arity() * sizeof(Value);
    if (options.backend == TJBackend::kBTree) {
      auto tree = std::make_unique<BPlusTree>(permuted.arity());
      tree->InsertAll(permuted);
      trees.push_back(std::move(tree));
      tree_bytes += row_bytes;
      continue;
    }
    permuted.SortLex();
    // The sorted rows and the levels are both live during the build.
    ScopedMemCharge rows_mem(MemCategory::kTrie, row_bytes);
    tries.push_back(std::make_unique<TrieIterator>(&permuted));
    prepared.trie_mem.emplace_back(MemCategory::kTrie, tries.back()->bytes());
  }
  if (options.backend == TJBackend::kBTree) {
    prepared.trie_mem.emplace_back(MemCategory::kTrie, tree_bytes);
  }
  prepared.sort_seconds = sort_timer.Seconds();

  for (size_t d = 0; d < var_order.size(); ++d) {
    if (iters_per_depth[d].empty()) {
      return Status::InvalidArgument("variable '" + var_order[d] +
                                     "' occurs in no input relation");
    }
  }

  // Resolve predicates against the order.
  std::vector<ResolvedPredicate> resolved;
  for (const Predicate& pred : predicates) {
    ResolvedPredicate r;
    r.op = pred.op;
    r.lhs_idx = pred.lhs.is_variable() ? order_index(pred.lhs.var) : -1;
    r.lhs_const = pred.lhs.constant;
    r.rhs_idx = pred.rhs.is_variable() ? order_index(pred.rhs.var) : -1;
    r.rhs_const = pred.rhs.constant;
    if ((pred.lhs.is_variable() && r.lhs_idx < 0) ||
        (pred.rhs.is_variable() && r.rhs_idx < 0)) {
      return Status::InvalidArgument("predicate variable missing from order: " +
                                     pred.ToString());
    }
    r.ready_depth = std::max(r.lhs_idx, r.rhs_idx);
    if (r.ready_depth < 0) r.ready_depth = 0;  // constant-only predicate
    resolved.push_back(r);
  }

  if (options.backend == TJBackend::kBTree) {
    std::vector<std::unique_ptr<BTreeTrieIterator>> cursors;
    cursors.reserve(trees.size());
    for (const auto& tree : trees) {
      cursors.push_back(std::make_unique<BTreeTrieIterator>(tree.get()));
    }
    prepared.joiner = std::make_unique<Joiner<BTreeTrieIterator>>(
        std::move(trees), std::move(cursors), std::move(iters_per_depth),
        resolved, var_order.size(), options);
  } else {
    prepared.joiner = std::make_unique<Joiner<TrieIterator>>(
        std::move(trees), std::move(tries), std::move(iters_per_depth),
        resolved, var_order.size(), options);
  }
  return prepared;
}

// Fills `metrics` from the finished joiner and publishes the aggregated
// trie-operation counts to the active counter registry (single batch after
// the join — never per-tuple registry lookups on the hot path).
void FinishTJMetrics(const JoinDriver& joiner,
                     const std::vector<std::string>& var_order,
                     size_t output_tuples, TJMetrics* metrics) {
  const std::vector<LeapfrogStats>& lf = joiner.lf_stats();
  const TrieOpCounts ops = joiner.Counts();
  if (metrics != nullptr) {
    metrics->seeks = ops.seeks;
    metrics->nexts = ops.nexts;
    metrics->opens = ops.opens;
    metrics->ups = ops.ups;
    metrics->gallop_steps = ops.gallop_steps;
    metrics->output_tuples = output_tuples;
    metrics->seeks_per_var.assign(var_order.size(), 0);
    for (size_t d = 0; d < lf.size() && d < var_order.size(); ++d) {
      metrics->seeks_per_var[d] = lf[d].seeks;
    }
  }
  CounterRegistry* reg = ActiveCounterRegistry();
  if (reg == nullptr) return;
  reg->Add("tj.joins", 1);
  reg->Add("tj.seeks", ops.seeks);
  reg->Add("tj.nexts", ops.nexts);
  reg->Add("tj.opens", ops.opens);
  reg->Add("tj.ups", ops.ups);
  reg->Add("tj.gallop_steps", ops.gallop_steps);
  reg->Add("tj.output_tuples", output_tuples);
  for (size_t d = 0; d < lf.size() && d < var_order.size(); ++d) {
    reg->Add(std::string("tj.seeks.") + var_order[d], lf[d].seeks);
    reg->Add(std::string("tj.nexts.") + var_order[d], lf[d].nexts);
    reg->Add(std::string("tj.keys.") + var_order[d], lf[d].keys);
  }
}

}  // namespace

Result<Relation> TributaryJoin(const std::vector<const Relation*>& inputs,
                               const std::vector<std::string>& var_order,
                               const std::vector<Predicate>& predicates,
                               const TJOptions& options, TJMetrics* metrics) {
  PTP_ASSIGN_OR_RETURN(PreparedJoin prepared,
                       Prepare(inputs, var_order, predicates, options));
  Timer join_timer;
  Relation out("tj_result", Schema(var_order));
  Status status = prepared.joiner->Run(&out);
  if (metrics != nullptr) {
    metrics->sort_seconds = prepared.sort_seconds;
    metrics->join_seconds = join_timer.Seconds();
  }
  FinishTJMetrics(*prepared.joiner, var_order, out.NumTuples(), metrics);
  if (!status.ok()) return status;
  return out;
}

Result<size_t> TributaryCount(const std::vector<const Relation*>& inputs,
                              const std::vector<std::string>& var_order,
                              const std::vector<Predicate>& predicates,
                              const TJOptions& options, TJMetrics* metrics) {
  PTP_ASSIGN_OR_RETURN(PreparedJoin prepared,
                       Prepare(inputs, var_order, predicates, options));
  Timer join_timer;
  Result<size_t> count = prepared.joiner->RunCount();
  if (metrics != nullptr) {
    metrics->sort_seconds = prepared.sort_seconds;
    metrics->join_seconds = join_timer.Seconds();
  }
  FinishTJMetrics(*prepared.joiner, var_order, count.ok() ? *count : 0,
                  metrics);
  return count;
}

Result<Relation> TributaryJoinQuery(const NormalizedQuery& query,
                                    const std::vector<std::string>& var_order,
                                    const TJOptions& options,
                                    TJMetrics* metrics) {
  std::vector<const Relation*> inputs;
  inputs.reserve(query.atoms.size());
  for (const NormalizedAtom& atom : query.atoms) {
    inputs.push_back(&atom.relation);
  }
  PTP_ASSIGN_OR_RETURN(
      Relation full,
      TributaryJoin(inputs, var_order, query.predicates, options, metrics));
  if (query.head_vars == var_order) return full;
  Relation projected = ProjectToVars(full, query.head_vars, "tj_result");
  if (query.head_vars.size() < var_order.size()) {
    projected.SortAndDedup();
  }
  return projected;
}

}  // namespace ptp
