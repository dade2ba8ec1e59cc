#ifndef PTP_QUERY_NORMALIZE_TEXT_H_
#define PTP_QUERY_NORMALIZE_TEXT_H_

#include <string>
#include <string_view>

namespace ptp {

/// Canonicalizes Datalog query text for use as a lookup key (plan cache,
/// feedback store), so cosmetically-different spellings of the same query
/// share one entry. Two texts that parse to the same query modulo body
/// order produce the same normalized string.
///
/// Normalizations applied:
///   - whitespace collapsed (", " between terms/items, " :- " after head,
///     single spaces around comparison operators)
///   - the "AND" item separator (either spelling the parser accepts)
///     rewritten to ","
///   - the optional trailing "." dropped
///   - "==" rewritten to "=" (the parser treats them identically)
///   - the head relation name folded to lowercase (it labels the result
///     relation and never resolves against the catalog)
///   - body atoms sorted lexicographically by their rendered form, then
///     comparison predicates likewise (join order is the planner's choice,
///     not the text's)
///
/// Variable and body relation identifiers keep their case: case is
/// semantic there (distinct variables, catalog lookups). Every term keeps
/// its spelling (`007` stays `007`, string literals keep their quotes).
///
/// The function is purely textual — no catalog, no dictionary. It is
/// defined in query/parser.cc and renders ParseDatalog's own parse, so the
/// parser is the only code that scans Datalog text. Text the parser
/// rejects falls back to whitespace collapsing plus trailing-dot removal,
/// so invalid queries still normalize deterministically (they fail at
/// parse, under a stable key).
std::string NormalizeQueryText(std::string_view text);

}  // namespace ptp

#endif  // PTP_QUERY_NORMALIZE_TEXT_H_
