#ifndef PTP_TJ_COST_MODEL_H_
#define PTP_TJ_COST_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "query/query.h"
#include "storage/stats.h"

namespace ptp {

/// Cost model for the Tributary join (paper Sec. 5.1).
///
/// For a global variable order phi(1) ... phi(k), the per-step intersection
/// size is estimated as
///
///   S_1 = min over atoms R_j containing phi(1) of V(R_j, (phi(1)))
///   S_i = min over atoms R_j containing phi(i) of
///           V(R_j, p_{i,j}) / V(R_j, p_{i-1,j})
///
/// where p_{i,j} is the prefix of R_j's variables (in global order) up to
/// and including phi(i), and V(R, p) is the number of distinct p-prefixes.
/// The total cost (estimated number of binary searches) follows the
/// recursion of Eq. (4):   Cost_i = S_i + S_i * Cost_{i+1}.
///
/// V(R, p) does not depend on the order of p's columns, so the model reads
/// it per (input, column set) from a RelationStatsMemo: evaluating all n!
/// orders of a query counts each atom-local column subset at most once, and
/// an atom that carries its base relation's memo (NormalizedAtom::stats)
/// reads counts that earlier queries over the same relation already made.
class TJCostModel {
 public:
  /// `inputs` must outlive the model; schemas carry variable names. The
  /// model counts their statistics itself, each column set once.
  explicit TJCostModel(std::vector<const Relation*> inputs);

  /// The atoms of `query` (which must outlive the model) as inputs, each
  /// read through its base relation's memo where it has one.
  explicit TJCostModel(const NormalizedQuery& query);

  /// Estimated cost of `var_order` (must cover all input variables).
  double EstimateCost(const std::vector<std::string>& var_order);

  /// The per-step intersection estimates S_1..S_k for `var_order`
  /// (exposed for tests and the greedy optimizer).
  std::vector<double> StepSizes(const std::vector<std::string>& var_order);

 private:
  struct Input {
    const Relation* relation;
    std::shared_ptr<RelationStatsMemo> stats;
  };

  /// V(R_input, prefix of length `len` under column permutation `perm`).
  double PrefixDistinct(size_t input, const std::vector<int>& perm,
                        size_t len);

  std::vector<Input> inputs_;
};

/// Folds step sizes into the Eq. (4) cost.
double FoldStepCost(const std::vector<double>& step_sizes);

}  // namespace ptp

#endif  // PTP_TJ_COST_MODEL_H_
