#ifndef PTP_EXEC_LOCAL_OPS_H_
#define PTP_EXEC_LOCAL_OPS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "query/query.h"
#include "storage/relation.h"

namespace ptp {

/// The paper's binary *symmetric* hash join (Sec. 3): a natural join of two
/// relations whose schemas carry variable names, on all shared names. Output
/// schema = left columns followed by the right-only columns; with no shared
/// name it is the cross product (left rows outer). It pulls from both inputs
/// in round-robin fashion, inserting each arriving tuple into its own hash
/// table and probing the other side's table, so it pays to build hash tables
/// on BOTH inputs — this is why broadcast plans burn ~W times more CPU
/// (every worker hash-builds the full broadcast relations), the effect
/// behind Q2's 30x BR_HJ CPU blow-up.
///
/// The emission order is a function of the interleaved arrival sequence (a
/// pair is emitted by whichever side arrives second), so compacting a
/// bloom-filtered right input would reorder the output. `right_arrival`,
/// when non-null, restores the unfiltered interleave: entry r is right row
/// r's arrival round in the unfiltered stream of `right_virtual_rows` rows
/// (strictly increasing — ShuffleResult::arrival). Dropped tuples provably
/// never emit (the filter has no false negatives), so replaying survivors
/// at their original rounds makes the filtered run's output bit-identical
/// to the unfiltered run's.
///
/// Each output row is written once, straight into the output's buffer.
/// `preds` is applied at emit: a pair that fails a predicate decidable on
/// the output schema is never written, and the surviving rows keep their
/// unfiltered order. The others are ignored (the caller applies them
/// later), so the output equals FilterByPredicates of the unfiltered join,
/// row for row.
Relation SymmetricHashJoinLocal(
    const Relation& left, const Relation& right,
    std::string out_name = "join",
    const std::vector<uint32_t>* right_arrival = nullptr,
    size_t right_virtual_rows = 0,
    const std::vector<Predicate>& preds = {});

/// Keeps the tuples of `rel` that satisfy every predicate in `preds` whose
/// variables are all bound by rel's schema. Predicates referencing unbound
/// variables are ignored (the caller applies them later in the pipeline).
/// Filters in place: pass an rvalue (`std::move(frag)`) and the relation's
/// buffer moves through, with no copy when nothing applies.
Relation FilterByPredicates(Relation rel, const std::vector<Predicate>& preds);

/// Splits `preds` into (applicable now, still pending) given bound `schema`.
void SplitApplicablePredicates(const std::vector<Predicate>& preds,
                               const Schema& schema,
                               std::vector<Predicate>* applicable,
                               std::vector<Predicate>* pending);

/// Projects `rel` onto the named columns (must all exist), keeping
/// duplicates.
Relation ProjectToVars(const Relation& rel,
                       const std::vector<std::string>& vars,
                       std::string out_name = "project");

/// Projects onto `vars` and removes duplicates (semijoin key extraction —
/// "local preprocessing" step of the distributed semijoin, Sec. 3.6).
Relation DistinctProject(const Relation& rel,
                         const std::vector<std::string>& vars,
                         std::string out_name = "distinct");

/// Semijoin rel ⋉ filter on all shared column names: keeps tuples of `rel`
/// with at least one match in `filter`. With no shared names this degrades
/// to "keep all iff filter nonempty" (cross-semijoin).
Relation SemiJoinLocal(const Relation& rel, const Relation& filter);

}  // namespace ptp

#endif  // PTP_EXEC_LOCAL_OPS_H_
