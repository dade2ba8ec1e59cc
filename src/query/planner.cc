#include "query/planner.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>

#include "common/logging.h"

namespace ptp {
namespace {

// Per-atom statistics in "variable space": cardinality plus distinct count
// for each variable of the atom.
struct AtomStats {
  double card = 0;
  std::map<std::string, double> distinct;
};

AtomStats ComputeAtomStats(const NormalizedAtom& atom) {
  AtomStats s;
  s.card = static_cast<double>(atom.relation.NumTuples());
  for (size_t col = 0; col < atom.variables.size(); ++col) {
    s.distinct[atom.variables[col]] = static_cast<double>(
        AtomColumnStats(atom, {static_cast<int>(col)}).distinct);
  }
  return s;
}

// Estimated size of joining two variable-keyed stats; also produces the
// stats of the join result (union of variables; distinct counts capped by
// the result cardinality).
AtomStats JoinStats(const AtomStats& left, const AtomStats& right,
                    double* est_size) {
  double denom = 1.0;
  for (const auto& [var, dl] : left.distinct) {
    auto it = right.distinct.find(var);
    if (it != right.distinct.end()) {
      denom *= std::max({dl, it->second, 1.0});
    }
  }
  double size = left.card * right.card / denom;
  if (est_size != nullptr) *est_size = size;
  AtomStats out;
  out.card = size;
  for (const auto& [var, d] : left.distinct) {
    out.distinct[var] = std::min(d, size);
  }
  for (const auto& [var, d] : right.distinct) {
    double merged = d;
    auto it = out.distinct.find(var);
    if (it != out.distinct.end()) merged = std::min(merged, it->second);
    out.distinct[var] = std::min(merged, size);
  }
  return out;
}

bool SharesVariable(const AtomStats& acc, const NormalizedAtom& atom) {
  for (const std::string& var : atom.variables) {
    if (acc.distinct.count(var)) return true;
  }
  return false;
}

}  // namespace

double EstimateJoinSize(double left_card,
                        const std::vector<double>& left_distinct,
                        double right_card,
                        const std::vector<double>& right_distinct) {
  PTP_CHECK_EQ(left_distinct.size(), right_distinct.size());
  double denom = 1.0;
  for (size_t i = 0; i < left_distinct.size(); ++i) {
    denom *= std::max({left_distinct[i], right_distinct[i], 1.0});
  }
  return left_card * right_card / denom;
}

std::vector<int> GreedyLeftDeepOrder(const NormalizedQuery& query) {
  const size_t n = query.atoms.size();
  if (n == 0) return {};
  std::vector<AtomStats> stats;
  stats.reserve(n);
  for (const NormalizedAtom& atom : query.atoms) {
    stats.push_back(ComputeAtomStats(atom));
  }

  // Seed: the pair of (connected, if possible) atoms with the smallest
  // estimated join size; fall back to the smallest single atom.
  std::vector<int> order;
  std::vector<bool> used(n, false);
  if (n == 1) return {0};

  double best_size = std::numeric_limits<double>::infinity();
  int best_i = 0, best_j = 1;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      bool connected = SharesVariable(stats[i], query.atoms[j]);
      if (!connected) continue;
      double size;
      JoinStats(stats[i], stats[j], &size);
      // Prefer seeds with smaller inputs on ties to mimic pushing selective
      // atoms first.
      double score = size + 1e-9 * (stats[i].card + stats[j].card);
      if (score < best_size) {
        best_size = score;
        best_i = static_cast<int>(i);
        best_j = static_cast<int>(j);
      }
    }
  }
  order.push_back(best_i);
  order.push_back(best_j);
  used[static_cast<size_t>(best_i)] = used[static_cast<size_t>(best_j)] = true;
  AtomStats acc = JoinStats(stats[static_cast<size_t>(best_i)],
                            stats[static_cast<size_t>(best_j)], nullptr);

  while (order.size() < n) {
    double best = std::numeric_limits<double>::infinity();
    int pick = -1;
    bool pick_connected = false;
    for (size_t k = 0; k < n; ++k) {
      if (used[k]) continue;
      bool connected = SharesVariable(acc, query.atoms[k]);
      double size;
      JoinStats(acc, stats[k], &size);
      // Strongly prefer connected atoms (cross products only as last resort).
      if (connected && !pick_connected) {
        pick = static_cast<int>(k);
        best = size;
        pick_connected = true;
      } else if (connected == pick_connected && size < best) {
        pick = static_cast<int>(k);
        best = size;
      }
    }
    PTP_CHECK_GE(pick, 0);
    used[static_cast<size_t>(pick)] = true;
    order.push_back(pick);
    acc = JoinStats(acc, stats[static_cast<size_t>(pick)], nullptr);
  }
  return order;
}

std::vector<double> EstimateLeftDeepSizes(const NormalizedQuery& query,
                                          const std::vector<int>& order) {
  std::vector<double> sizes;
  if (order.empty()) return sizes;
  AtomStats acc = ComputeAtomStats(query.atoms[static_cast<size_t>(order[0])]);
  sizes.push_back(acc.card);
  for (size_t i = 1; i < order.size(); ++i) {
    double size;
    acc = JoinStats(acc,
                    ComputeAtomStats(query.atoms[static_cast<size_t>(order[i])]),
                    &size);
    sizes.push_back(size);
  }
  return sizes;
}

}  // namespace ptp
