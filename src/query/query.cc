#include "query/query.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "common/str_util.h"

namespace ptp {

std::vector<std::string> Atom::Variables() const {
  std::vector<std::string> vars;
  for (const Term& t : terms) {
    if (t.is_variable() &&
        std::find(vars.begin(), vars.end(), t.var) == vars.end()) {
      vars.push_back(t.var);
    }
  }
  return vars;
}

bool Atom::HasVariable(const std::string& var) const {
  for (const Term& t : terms) {
    if (t.is_variable() && t.var == var) return true;
  }
  return false;
}

std::string Atom::ToString() const {
  std::ostringstream os;
  os << relation << "(";
  for (size_t i = 0; i < terms.size(); ++i) {
    if (i > 0) os << ", ";
    if (terms[i].is_variable()) {
      os << terms[i].var;
    } else {
      os << terms[i].constant;
    }
  }
  os << ")";
  return os.str();
}

bool Predicate::Eval(Value l, CmpOp op, Value r) {
  switch (op) {
    case CmpOp::kLt:
      return l < r;
    case CmpOp::kLe:
      return l <= r;
    case CmpOp::kGt:
      return l > r;
    case CmpOp::kGe:
      return l >= r;
    case CmpOp::kEq:
      return l == r;
    case CmpOp::kNe:
      return l != r;
  }
  return false;
}

std::vector<std::string> Predicate::Variables() const {
  std::vector<std::string> vars;
  if (lhs.is_variable()) vars.push_back(lhs.var);
  if (rhs.is_variable() && (!lhs.is_variable() || rhs.var != lhs.var)) {
    vars.push_back(rhs.var);
  }
  return vars;
}

std::string Predicate::ToString() const {
  auto term_str = [](const Term& t) {
    return t.is_variable() ? t.var : ptp::ToString(t.constant);
  };
  const char* op_str = "?";
  switch (op) {
    case CmpOp::kLt:
      op_str = "<";
      break;
    case CmpOp::kLe:
      op_str = "<=";
      break;
    case CmpOp::kGt:
      op_str = ">";
      break;
    case CmpOp::kGe:
      op_str = ">=";
      break;
    case CmpOp::kEq:
      op_str = "=";
      break;
    case CmpOp::kNe:
      op_str = "!=";
      break;
  }
  return term_str(lhs) + " " + op_str + " " + term_str(rhs);
}

ConjunctiveQuery::ConjunctiveQuery(std::string head_name,
                                   std::vector<std::string> head_vars,
                                   std::vector<Atom> atoms,
                                   std::vector<Predicate> predicates)
    : head_name_(std::move(head_name)),
      head_vars_(std::move(head_vars)),
      atoms_(std::move(atoms)),
      predicates_(std::move(predicates)) {
  RecomputeVariables();
}

void ConjunctiveQuery::RecomputeVariables() {
  variables_.clear();
  for (const Atom& atom : atoms_) {
    for (const Term& t : atom.terms) {
      if (t.is_variable() && std::find(variables_.begin(), variables_.end(),
                                       t.var) == variables_.end()) {
        variables_.push_back(t.var);
      }
    }
  }
}

std::vector<std::string> ConjunctiveQuery::JoinVariables() const {
  std::vector<std::string> join_vars;
  for (const std::string& var : variables_) {
    int count = 0;
    for (const Atom& atom : atoms_) {
      if (atom.HasVariable(var)) ++count;
    }
    if (count >= 2) join_vars.push_back(var);
  }
  return join_vars;
}

int ConjunctiveQuery::VariableIndex(const std::string& var) const {
  for (size_t i = 0; i < variables_.size(); ++i) {
    if (variables_[i] == var) return static_cast<int>(i);
  }
  return -1;
}

Status ConjunctiveQuery::Validate(const Catalog& catalog) const {
  if (atoms_.empty()) {
    return Status::InvalidArgument("query has no body atoms");
  }
  for (const Atom& atom : atoms_) {
    PTP_ASSIGN_OR_RETURN(const Relation* rel, catalog.Get(atom.relation));
    if (rel->arity() != atom.terms.size()) {
      return Status::InvalidArgument(
          StrFormat("atom %s has %zu terms but relation has arity %zu",
                    atom.ToString().c_str(), atom.terms.size(), rel->arity()));
    }
  }
  for (const std::string& var : head_vars_) {
    if (std::find(variables_.begin(), variables_.end(), var) ==
        variables_.end()) {
      return Status::InvalidArgument("head variable '" + var +
                                     "' does not occur in the body");
    }
  }
  for (const Predicate& pred : predicates_) {
    for (const std::string& var : pred.Variables()) {
      if (std::find(variables_.begin(), variables_.end(), var) ==
          variables_.end()) {
        return Status::InvalidArgument("predicate variable '" + var +
                                       "' does not occur in the body");
      }
    }
  }
  return Status::OK();
}

std::string ConjunctiveQuery::ToString() const {
  std::ostringstream os;
  os << head_name_ << "(" << Join(head_vars_, ", ") << ") :- ";
  for (size_t i = 0; i < atoms_.size(); ++i) {
    if (i > 0) os << ", ";
    os << atoms_[i].ToString();
  }
  for (const Predicate& pred : predicates_) {
    os << ", " << pred.ToString();
  }
  os << ".";
  return os.str();
}

std::vector<std::string> NormalizedQuery::Variables() const {
  std::vector<std::string> vars;
  for (const NormalizedAtom& atom : atoms) {
    for (const std::string& v : atom.variables) {
      if (std::find(vars.begin(), vars.end(), v) == vars.end()) {
        vars.push_back(v);
      }
    }
  }
  return vars;
}

ColumnSetStats AtomColumnStats(const NormalizedAtom& atom,
                               std::vector<int> cols) {
  return atom.stats != nullptr ? atom.stats->Get(atom.relation, std::move(cols))
                               : CountColumnSet(atom.relation, std::move(cols));
}

Result<NormalizedQuery> Normalize(const ConjunctiveQuery& query,
                                  const Catalog& catalog) {
  PTP_RETURN_IF_ERROR(query.Validate(catalog));
  NormalizedQuery out;
  out.head_vars = query.head_vars();
  out.predicates = query.predicates();
  for (const Atom& atom : query.atoms()) {
    PTP_ASSIGN_OR_RETURN(const Relation* base, catalog.Get(atom.relation));
    NormalizedAtom norm;
    norm.variables = atom.Variables();

    // Column index of the first occurrence of each kept variable.
    std::vector<int> keep_cols;
    for (const std::string& var : norm.variables) {
      for (size_t i = 0; i < atom.terms.size(); ++i) {
        if (atom.terms[i].is_variable() && atom.terms[i].var == var) {
          keep_cols.push_back(static_cast<int>(i));
          break;
        }
      }
    }

    // Columns are named by the atom's variables, so downstream operators
    // can match columns by variable.
    norm.relation = Relation(atom.relation, Schema(norm.variables));
    const bool needs_filter =
        keep_cols.size() != atom.terms.size();  // constants or repeats
    if (!needs_filter) {
      // Every term is a distinct variable: keep_cols is the identity, so
      // the atom is the base relation renamed and shares its statistics.
      norm.relation.mutable_data() = base->data();
      norm.stats = catalog.Stats(atom.relation);
    } else {
      for (size_t row = 0; row < base->NumTuples(); ++row) {
        const Value* r = base->Row(row);
        bool match = true;
        // Constant selections.
        for (size_t i = 0; match && i < atom.terms.size(); ++i) {
          if (atom.terms[i].is_constant() && r[i] != atom.terms[i].constant) {
            match = false;
          }
        }
        // Repeated-variable equalities within the atom.
        for (size_t i = 0; match && i < atom.terms.size(); ++i) {
          if (!atom.terms[i].is_variable()) continue;
          for (size_t j = i + 1; match && j < atom.terms.size(); ++j) {
            if (atom.terms[j].is_variable() &&
                atom.terms[j].var == atom.terms[i].var && r[i] != r[j]) {
              match = false;
            }
          }
        }
        if (!match) continue;
        Tuple t;
        t.reserve(keep_cols.size());
        for (int c : keep_cols) t.push_back(r[static_cast<size_t>(c)]);
        norm.relation.AddTuple(t);
      }
    }
    out.atoms.push_back(std::move(norm));
  }
  return out;
}

}  // namespace ptp
