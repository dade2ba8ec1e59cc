#ifndef PTP_TESTS_TEST_UTIL_H_
#define PTP_TESTS_TEST_UTIL_H_

#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/workloads.h"
#include "exec/metrics.h"
#include "query/query.h"
#include "storage/relation.h"

namespace ptp {
namespace test {

/// Brute-force evaluation of a normalized conjunctive query by backtracking
/// over atoms (exponential; only for tiny test inputs). Returns the full
/// binding relation with schema = query.Variables(), no projection.
inline Relation BruteForceJoin(const NormalizedQuery& q) {
  const std::vector<std::string> vars = q.Variables();
  Relation out("brute", Schema(vars));
  std::map<std::string, Value> binding;

  auto predicates_hold = [&](bool all_bound) {
    for (const Predicate& p : q.predicates) {
      Value l, r;
      if (p.lhs.is_variable()) {
        auto it = binding.find(p.lhs.var);
        if (it == binding.end()) {
          if (all_bound) return false;
          continue;
        }
        l = it->second;
      } else {
        l = p.lhs.constant;
      }
      if (p.rhs.is_variable()) {
        auto it = binding.find(p.rhs.var);
        if (it == binding.end()) {
          if (all_bound) return false;
          continue;
        }
        r = it->second;
      } else {
        r = p.rhs.constant;
      }
      if (!Predicate::Eval(l, p.op, r)) return false;
    }
    return true;
  };

  auto recurse = [&](auto&& self, size_t atom_idx) -> void {
    if (atom_idx == q.atoms.size()) {
      if (!predicates_hold(true)) return;
      Tuple t;
      for (const std::string& v : vars) t.push_back(binding.at(v));
      out.AddTuple(t);
      return;
    }
    const NormalizedAtom& atom = q.atoms[atom_idx];
    for (size_t row = 0; row < atom.relation.NumTuples(); ++row) {
      std::vector<std::string> newly_bound;
      bool ok = true;
      for (size_t col = 0; col < atom.variables.size() && ok; ++col) {
        const Value v = atom.relation.At(row, col);
        auto it = binding.find(atom.variables[col]);
        if (it == binding.end()) {
          binding[atom.variables[col]] = v;
          newly_bound.push_back(atom.variables[col]);
        } else if (it->second != v) {
          ok = false;
        }
      }
      if (ok && predicates_hold(false)) self(self, atom_idx + 1);
      for (const std::string& v : newly_bound) binding.erase(v);
    }
  };
  recurse(recurse, 0);
  return out;
}

/// Random binary relation over a small domain (dense enough to join).
inline Relation RandomBinaryRelation(const std::string& name,
                                     const std::vector<std::string>& vars,
                                     size_t tuples, Value domain, Rng* rng) {
  Relation rel(name, Schema(vars));
  for (size_t i = 0; i < tuples; ++i) {
    Tuple t;
    for (size_t c = 0; c < vars.size(); ++c) {
      t.push_back(static_cast<Value>(rng->Uniform(
          static_cast<uint64_t>(domain))));
    }
    rel.AddTuple(t);
  }
  rel.SortAndDedup();
  rel.set_name(name);
  return rel;
}

/// The paper workloads at test size: a 400-node Twitter graph (Zipf 0.7)
/// and Freebase at 8 % scale, seeded.
inline WorkloadScale TinyScale() {
  WorkloadScale scale;
  scale.twitter.num_nodes = 400;
  scale.twitter.num_edges = 2500;
  scale.twitter.zipf_exponent = 0.7;
  scale.freebase_scale = 0.08;
  scale.seed = 99;
  return scale;
}

/// Recovery retries booked across every stage and exchange of a run.
inline size_t TotalRetries(const QueryMetrics& m) {
  size_t total = 0;
  for (const StageMetrics& s : m.stages) total += s.retries;
  for (const ShuffleMetrics& s : m.shuffles) total += s.retries;
  return total;
}

}  // namespace test
}  // namespace ptp

#endif  // PTP_TESTS_TEST_UTIL_H_
