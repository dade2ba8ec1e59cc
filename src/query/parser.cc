#include "query/parser.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <utility>
#include <vector>

#include "common/str_util.h"
#include "query/normalize_text.h"

namespace ptp {
namespace {

/// A rule as written: names and terms are views of the source text with
/// their spelling (quotes, signs, leading zeros) intact, so the same parse
/// both builds the query and renders its canonical key.
struct SpelledAtom {
  std::string_view relation;
  std::vector<std::string_view> terms;
};

struct SpelledPredicate {
  std::string_view lhs;
  std::string_view op;  // canonical: "==" is written "="
  CmpOp cmp = CmpOp::kLt;
  std::string_view rhs;
};

struct SpelledRule {
  SpelledAtom head;
  std::vector<SpelledAtom> atoms;
  std::vector<SpelledPredicate> predicates;
};

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Identifiers are variables; quoted strings and integers are constants.
bool IsVariable(std::string_view term) {
  return term[0] != '"' && term[0] != '-' &&
         !std::isdigit(static_cast<unsigned char>(term[0]));
}

/// Hand-rolled recursive-descent parser. The grammar is tiny, so a cursor
/// over the input with ad-hoc token functions keeps this dependency-free
/// and easy to audit.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<SpelledRule> Parse() {
    SpelledRule rule;
    PTP_ASSIGN_OR_RETURN(std::string_view head, ParseIdent());
    PTP_ASSIGN_OR_RETURN(rule.head, ParseTermList(head));
    for (std::string_view t : rule.head.terms) {
      if (!IsVariable(t)) return Err("head terms must be variables");
    }
    if (!Consume(":-")) return Err("expected ':-' after head");

    do {
      // Lookahead: atom if ident followed by '(' — otherwise comparison.
      PTP_ASSIGN_OR_RETURN(std::string_view first, ParseTerm());
      SkipSpace();
      if (IsVariable(first) && Peek() == '(') {
        PTP_ASSIGN_OR_RETURN(SpelledAtom atom, ParseTermList(first));
        rule.atoms.push_back(std::move(atom));
      } else {
        SpelledPredicate p;
        p.lhs = first;
        PTP_RETURN_IF_ERROR(ParseCmpOp(&p));
        PTP_ASSIGN_OR_RETURN(p.rhs, ParseTerm());
        rule.predicates.push_back(p);
      }
    } while (Consume(",") || ConsumeWord("AND") || ConsumeWord("and"));
    Consume(".");
    SkipSpace();
    if (pos_ != text_.size()) return Err("unexpected trailing input");
    return rule;
  }

 private:
  Status Err(const std::string& msg) {
    return Status::InvalidArgument(
        StrFormat("parse error at offset %zu: %s", pos_, msg.c_str()));
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(std::string_view token) {
    SkipSpace();
    if (text_.substr(pos_).starts_with(token)) {
      pos_ += token.size();
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    SkipSpace();
    if (!text_.substr(pos_).starts_with(word)) return false;
    size_t end = pos_ + word.size();
    if (end < text_.size() && IsIdentChar(text_[end])) return false;
    pos_ = end;
    return true;
  }

  Result<std::string_view> ParseIdent() {
    SkipSpace();
    size_t start = pos_;
    while (pos_ < text_.size() && IsIdentChar(text_[pos_])) ++pos_;
    if (pos_ == start) return Err("expected identifier");
    return text_.substr(start, pos_ - start);
  }

  /// One term, spelled as written (a string literal keeps its quotes).
  Result<std::string_view> ParseTerm() {
    SkipSpace();
    const size_t start = pos_;
    char c = Peek();
    if (c == '"') {
      ++pos_;
      while (pos_ < text_.size() && text_[pos_] != '"') ++pos_;
      if (pos_ == text_.size()) return Err("unterminated string literal");
      ++pos_;  // closing quote
      return text_.substr(start, pos_ - start);
    }
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '-') {
      if (c == '-') ++pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      if (pos_ == start || (c == '-' && pos_ == start + 1)) {
        return Err("malformed integer literal");
      }
      return text_.substr(start, pos_ - start);
    }
    return ParseIdent();
  }

  Result<SpelledAtom> ParseTermList(std::string_view relation) {
    if (!Consume("(")) return Err("expected '(' after relation name");
    SpelledAtom atom{relation, {}};
    do {
      PTP_ASSIGN_OR_RETURN(std::string_view term, ParseTerm());
      atom.terms.push_back(term);
    } while (Consume(","));
    if (!Consume(")")) return Err("expected ',' or ')' in term list");
    return atom;
  }

  Status ParseCmpOp(SpelledPredicate* p) {
    static constexpr std::pair<std::string_view, CmpOp> kOps[] = {
        {"<=", CmpOp::kLe}, {">=", CmpOp::kGe}, {"!=", CmpOp::kNe},
        {"==", CmpOp::kEq}, {"<", CmpOp::kLt},  {">", CmpOp::kGt},
        {"=", CmpOp::kEq}};
    for (const auto& [op, cmp] : kOps) {
      if (Consume(op)) {
        p->op = op == "==" ? "=" : op;
        p->cmp = cmp;
        return Status::OK();
      }
    }
    return Err("expected comparison operator");
  }

  std::string_view text_;
  size_t pos_ = 0;
};

Result<Term> BuildTerm(std::string_view text, std::string_view term,
                       Dictionary* dict) {
  if (IsVariable(term)) return Term::Var(std::string(term));
  if (term[0] != '"') {
    return Term::Const(static_cast<Value>(
        std::strtoll(std::string(term).c_str(), nullptr, 10)));
  }
  if (dict == nullptr) {
    return Status::InvalidArgument(
        StrFormat("parse error at offset %zu: string literal but no "
                  "dictionary",
                  static_cast<size_t>(term.data() - text.data())));
  }
  return Term::Const(
      dict->Intern(std::string(term.substr(1, term.size() - 2))));
}

/// "Rel(t1, t2, ...)" with the terms as spelled.
std::string RenderAtom(std::string_view relation, const SpelledAtom& atom) {
  std::string out(relation);
  out += '(';
  for (size_t i = 0; i < atom.terms.size(); ++i) {
    if (i > 0) out += ", ";
    out += atom.terms[i];
  }
  out += ')';
  return out;
}

/// Whitespace-collapse fallback for text that does not parse.
std::string CollapseWhitespace(std::string_view text) {
  std::string out;
  bool pending_space = false;
  for (char c : text) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      pending_space = !out.empty();
      continue;
    }
    if (pending_space) {
      out += ' ';
      pending_space = false;
    }
    out += c;
  }
  if (out.ends_with('.')) {
    out.pop_back();
    while (out.ends_with(' ')) out.pop_back();
  }
  return out;
}

}  // namespace

Result<ConjunctiveQuery> ParseDatalog(std::string_view text,
                                      Dictionary* dict) {
  PTP_ASSIGN_OR_RETURN(SpelledRule rule, Parser(text).Parse());
  std::vector<Atom> atoms;
  for (const SpelledAtom& spelled : rule.atoms) {
    Atom& atom = atoms.emplace_back();
    atom.relation = spelled.relation;
    for (std::string_view t : spelled.terms) {
      PTP_ASSIGN_OR_RETURN(Term term, BuildTerm(text, t, dict));
      atom.terms.push_back(std::move(term));
    }
  }
  std::vector<Predicate> predicates;
  for (const SpelledPredicate& p : rule.predicates) {
    PTP_ASSIGN_OR_RETURN(Term lhs, BuildTerm(text, p.lhs, dict));
    PTP_ASSIGN_OR_RETURN(Term rhs, BuildTerm(text, p.rhs, dict));
    predicates.push_back(Predicate{std::move(lhs), p.cmp, std::move(rhs)});
  }
  return ConjunctiveQuery(
      std::string(rule.head.relation),
      std::vector<std::string>(rule.head.terms.begin(), rule.head.terms.end()),
      std::move(atoms), std::move(predicates));
}

std::string NormalizeQueryText(std::string_view text) {
  Result<SpelledRule> rule = Parser(text).Parse();
  if (!rule.ok()) return CollapseWhitespace(text);
  // The head name labels the output and never resolves against the
  // catalog, so only its case is folded; join order is the planner's
  // choice, so atoms and then predicates are sorted.
  std::string head(rule->head.relation);
  for (char& c : head) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  std::vector<std::string> atoms;
  for (const SpelledAtom& a : rule->atoms) {
    atoms.push_back(RenderAtom(a.relation, a));
  }
  std::vector<std::string> predicates;
  for (const SpelledPredicate& p : rule->predicates) {
    std::string rendered(p.lhs);
    rendered.append(" ").append(p.op).append(" ").append(p.rhs);
    predicates.push_back(std::move(rendered));
  }
  std::sort(atoms.begin(), atoms.end());
  std::sort(predicates.begin(), predicates.end());
  atoms.insert(atoms.end(), predicates.begin(), predicates.end());
  return RenderAtom(head, rule->head) + " :- " + Join(atoms, ", ");
}

}  // namespace ptp
