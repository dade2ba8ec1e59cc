#ifndef PTP_QUERY_QUERY_H_
#define PTP_QUERY_QUERY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/catalog.h"
#include "storage/stats.h"
#include "storage/value.h"

namespace ptp {

/// A term in an atom: either a variable (named) or a constant value.
struct Term {
  enum class Kind { kVariable, kConstant };

  static Term Var(std::string name) {
    Term t;
    t.kind = Kind::kVariable;
    t.var = std::move(name);
    return t;
  }
  static Term Const(Value v) {
    Term t;
    t.kind = Kind::kConstant;
    t.constant = v;
    return t;
  }

  bool is_variable() const { return kind == Kind::kVariable; }
  bool is_constant() const { return kind == Kind::kConstant; }

  bool operator==(const Term& o) const {
    return kind == o.kind && var == o.var &&
           (kind == Kind::kVariable || constant == o.constant);
  }

  Kind kind = Kind::kVariable;
  std::string var;
  Value constant = 0;
};

/// One body atom `R(t1, ..., tk)` of a conjunctive query.
struct Atom {
  std::string relation;
  std::vector<Term> terms;

  /// Variables appearing in this atom, in term order, without duplicates.
  std::vector<std::string> Variables() const;

  /// True if `var` occurs among the terms.
  bool HasVariable(const std::string& var) const;

  /// "R(x, y, 3)"
  std::string ToString() const;
};

/// Comparison operators usable in query bodies (e.g. Q4's `f1 > f2`).
enum class CmpOp { kLt, kLe, kGt, kGe, kEq, kNe };

/// A comparison predicate between two terms.
struct Predicate {
  Term lhs;
  CmpOp op = CmpOp::kLt;
  Term rhs;

  /// Evaluates the predicate given bound values for both sides.
  static bool Eval(Value l, CmpOp op, Value r);

  /// Variables referenced by the predicate.
  std::vector<std::string> Variables() const;

  std::string ToString() const;
};

/// A conjunctive query `H(head_vars) :- atom_1, ..., atom_l, pred_1, ...`.
/// The Datalog-rule form used throughout the paper (Eq. 1).
class ConjunctiveQuery {
 public:
  ConjunctiveQuery() = default;
  ConjunctiveQuery(std::string head_name, std::vector<std::string> head_vars,
                   std::vector<Atom> atoms,
                   std::vector<Predicate> predicates = {});

  const std::string& head_name() const { return head_name_; }
  const std::vector<std::string>& head_vars() const { return head_vars_; }
  const std::vector<Atom>& atoms() const { return atoms_; }
  const std::vector<Predicate>& predicates() const { return predicates_; }

  /// All body variables in order of first occurrence.
  const std::vector<std::string>& variables() const { return variables_; }

  /// Variables that occur in >= 2 atoms (the join variables; these are the
  /// dimensions of the HyperCube).
  std::vector<std::string> JoinVariables() const;

  /// Index of `var` in variables(), or -1.
  int VariableIndex(const std::string& var) const;

  /// Validates the query against `catalog`: every atom's relation exists and
  /// has matching arity; every head variable occurs in the body.
  Status Validate(const Catalog& catalog) const;

  /// "H(x, y) :- R(x, z), S(z, y), x < y."
  std::string ToString() const;

 private:
  void RecomputeVariables();

  std::string head_name_;
  std::vector<std::string> head_vars_;
  std::vector<Atom> atoms_;
  std::vector<Predicate> predicates_;
  std::vector<std::string> variables_;
};

/// A normalized atom references a (possibly filtered/deduplicated) relation
/// whose columns correspond 1:1 to distinct variables.
struct NormalizedAtom {
  /// Distinct variables, one per column of `relation`.
  std::vector<std::string> variables;
  /// Materialized input after pushing down constant selections and resolving
  /// repeated variables within the atom.
  Relation relation;
  /// The base relation's statistics memo (Catalog::Stats) when `relation`
  /// is the base relation unfiltered: every term a distinct variable, so
  /// its columns are the base columns in order. Null for a filtered atom,
  /// whose statistics are counted on its own rows. Whoever replaces
  /// `relation` resets this.
  std::shared_ptr<RelationStatsMemo> stats = nullptr;
};

/// Exact statistics of `atom`'s projection onto its columns `cols` (a set):
/// read from the base relation's memo when the atom has one, counted on the
/// atom's rows otherwise.
ColumnSetStats AtomColumnStats(const NormalizedAtom& atom,
                               std::vector<int> cols);

/// Normalized query: constants pushed into selections, every atom's columns
/// are distinct variables. This is the form all execution strategies consume
/// ("we pushed selection down", paper footnote 3).
struct NormalizedQuery {
  std::vector<std::string> head_vars;
  std::vector<NormalizedAtom> atoms;
  std::vector<Predicate> predicates;  // variable-vs-variable or vs-constant

  /// All variables in first-occurrence order.
  std::vector<std::string> Variables() const;
};

/// Applies constant selections / repeated-variable filters of `query` against
/// `catalog` and returns the normalized form.
Result<NormalizedQuery> Normalize(const ConjunctiveQuery& query,
                                  const Catalog& catalog);

}  // namespace ptp

#endif  // PTP_QUERY_QUERY_H_
