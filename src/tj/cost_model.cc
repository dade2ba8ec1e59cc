#include "tj/cost_model.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/logging.h"

namespace ptp {

TJCostModel::TJCostModel(std::vector<const Relation*> inputs) {
  inputs_.reserve(inputs.size());
  for (const Relation* rel : inputs) {
    inputs_.push_back(
        {rel, std::make_shared<RelationStatsMemo>(rel->NumTuples())});
  }
}

TJCostModel::TJCostModel(const NormalizedQuery& query) {
  inputs_.reserve(query.atoms.size());
  for (const NormalizedAtom& atom : query.atoms) {
    inputs_.push_back(
        {&atom.relation,
         atom.stats != nullptr
             ? atom.stats
             : std::make_shared<RelationStatsMemo>(atom.relation.NumTuples())});
  }
}

double TJCostModel::PrefixDistinct(size_t input, const std::vector<int>& perm,
                                   size_t len) {
  PTP_DCHECK(len >= 1 && len <= perm.size());
  // The number of distinct prefixes depends only on which columns the
  // prefix holds — not on their order, nor on the columns after it — so
  // every order sharing a column set shares one count.
  const Input& in = inputs_[input];
  std::vector<int> cols(perm.begin(), perm.begin() + static_cast<long>(len));
  return static_cast<double>(
      in.stats->Get(*in.relation, std::move(cols)).distinct);
}

std::vector<double> TJCostModel::StepSizes(
    const std::vector<std::string>& var_order) {
  // For each input: its column permutation under the order and, per global
  // step, the prefix length reached.
  struct InputOrder {
    std::vector<int> perm;          // columns in global-order sequence
    std::vector<int> step_of_level; // global step index of each trie level
  };
  std::vector<InputOrder> orders(inputs_.size());
  for (size_t i = 0; i < inputs_.size(); ++i) {
    const Schema& schema = inputs_[i].relation->schema();
    std::vector<std::pair<int, int>> order_and_col;
    for (size_t col = 0; col < schema.arity(); ++col) {
      int idx = -1;
      for (size_t v = 0; v < var_order.size(); ++v) {
        if (var_order[v] == schema.name(col)) {
          idx = static_cast<int>(v);
          break;
        }
      }
      PTP_CHECK_GE(idx, 0);
      order_and_col.emplace_back(idx, static_cast<int>(col));
    }
    std::sort(order_and_col.begin(), order_and_col.end());
    for (const auto& [step, col] : order_and_col) {
      orders[i].perm.push_back(col);
      orders[i].step_of_level.push_back(step);
    }
  }

  std::vector<double> step_sizes(var_order.size(),
                                 std::numeric_limits<double>::infinity());
  for (size_t i = 0; i < inputs_.size(); ++i) {
    const InputOrder& io = orders[i];
    for (size_t level = 0; level < io.perm.size(); ++level) {
      const size_t step = static_cast<size_t>(io.step_of_level[level]);
      const double v_here = PrefixDistinct(i, io.perm, level + 1);
      const double estimate =
          level == 0 ? v_here
                     : v_here / std::max(1.0, PrefixDistinct(i, io.perm, level));
      step_sizes[step] = std::min(step_sizes[step], estimate);
    }
  }
  for (double& s : step_sizes) {
    if (!std::isfinite(s)) s = 0;  // variable in no input: no work
  }
  return step_sizes;
}

double TJCostModel::EstimateCost(const std::vector<std::string>& var_order) {
  return FoldStepCost(StepSizes(var_order));
}

double FoldStepCost(const std::vector<double>& step_sizes) {
  // Cost_i = S_i + S_i * Cost_{i+1}, evaluated right to left.
  double cost = 0;
  for (size_t i = step_sizes.size(); i-- > 0;) {
    cost = step_sizes[i] + step_sizes[i] * cost;
  }
  return cost;
}

}  // namespace ptp
