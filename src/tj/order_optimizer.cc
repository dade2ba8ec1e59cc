#include "tj/order_optimizer.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace ptp {
namespace {

// Join variables (>= 2 atoms) and trailing local variables of a query.
void SplitVariables(const NormalizedQuery& query,
                    std::vector<std::string>* join_vars,
                    std::vector<std::string>* local_vars) {
  for (const std::string& var : query.Variables()) {
    int count = 0;
    for (const NormalizedAtom& atom : query.atoms) {
      if (std::find(atom.variables.begin(), atom.variables.end(), var) !=
          atom.variables.end()) {
        ++count;
      }
    }
    (count >= 2 ? join_vars : local_vars)->push_back(var);
  }
}

}  // namespace

OrderChoice OptimizeVariableOrder(const NormalizedQuery& query,
                                  const OrderOptimizerOptions& options) {
  std::vector<std::string> join_vars, local_vars;
  SplitVariables(query, &join_vars, &local_vars);
  TJCostModel model(query);

  OrderChoice best;
  best.estimated_cost = std::numeric_limits<double>::infinity();

  auto consider = [&](std::vector<std::string> join_perm) {
    std::vector<std::string> order = std::move(join_perm);
    order.insert(order.end(), local_vars.begin(), local_vars.end());
    const double cost = model.EstimateCost(order);
    if (cost < best.estimated_cost) {
      best.estimated_cost = cost;
      best.order = std::move(order);
    }
  };

  if (join_vars.size() <= options.exhaustive_limit) {
    std::vector<std::string> perm = join_vars;
    std::sort(perm.begin(), perm.end());
    do {
      consider(perm);
    } while (std::next_permutation(perm.begin(), perm.end()));
  } else {
    // Greedy: repeatedly append the join variable minimizing the cost of the
    // partial order extended with the remaining variables in default order.
    std::vector<std::string> chosen;
    std::vector<std::string> remaining = join_vars;
    while (!remaining.empty()) {
      double best_cost = std::numeric_limits<double>::infinity();
      size_t best_idx = 0;
      for (size_t i = 0; i < remaining.size(); ++i) {
        std::vector<std::string> candidate = chosen;
        candidate.push_back(remaining[i]);
        for (size_t j = 0; j < remaining.size(); ++j) {
          if (j != i) candidate.push_back(remaining[j]);
        }
        candidate.insert(candidate.end(), local_vars.begin(),
                         local_vars.end());
        const double cost = model.EstimateCost(candidate);
        if (cost < best_cost) {
          best_cost = cost;
          best_idx = i;
        }
      }
      chosen.push_back(remaining[best_idx]);
      remaining.erase(remaining.begin() + static_cast<long>(best_idx));
    }
    consider(chosen);
  }

  PTP_CHECK(!best.order.empty());
  return best;
}

std::vector<OrderChoice> EnumerateOrders(const NormalizedQuery& query,
                                         size_t max_orders) {
  std::vector<std::string> join_vars, local_vars;
  SplitVariables(query, &join_vars, &local_vars);
  TJCostModel model(query);

  std::vector<OrderChoice> choices;
  std::vector<std::string> perm = join_vars;
  std::sort(perm.begin(), perm.end());
  do {
    OrderChoice choice;
    choice.order = perm;
    choice.order.insert(choice.order.end(), local_vars.begin(),
                        local_vars.end());
    choice.estimated_cost = model.EstimateCost(choice.order);
    choices.push_back(std::move(choice));
  } while (choices.size() < max_orders &&
           std::next_permutation(perm.begin(), perm.end()));
  return choices;
}

}  // namespace ptp
