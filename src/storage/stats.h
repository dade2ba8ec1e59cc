#ifndef PTP_STORAGE_STATS_H_
#define PTP_STORAGE_STATS_H_

#include <cstddef>
#include <map>
#include <mutex>
#include <vector>

#include "storage/relation.h"

namespace ptp {

/// Exact statistics of a relation's projection onto a set of its columns.
struct ColumnSetStats {
  /// V(R, cols): the number of distinct projections.
  size_t distinct = 0;
  /// Rows sharing the most frequent projection (for a single column: the
  /// frequency of its heaviest value).
  size_t max_frequency = 0;
};

/// Counts the projection of `rel` onto `cols` (a set: order and repeats do
/// not matter) by copying, sorting and scanning it. Statistics are planning
/// work, not query execution: the count runs with every per-query sink
/// detached, so a run whose plan came from a cache publishes the same
/// counters and memory account as one that planned.
ColumnSetStats CountColumnSet(const Relation& rel, std::vector<int> cols);

/// V(R, first `prefix_len` columns of `rel`).
size_t CountDistinctPrefixes(const Relation& rel, size_t prefix_len);

/// The per-relation statistics the paper's Sec. 5.1 cost model assumes are
/// stored with the relation, kept exactly and computed lazily: each column
/// set of the relation is counted once, on its first request, and then
/// shared by every query, planner and thread that reads the relation. The
/// Catalog owns one memo per relation and replaces it with the relation.
///
/// Thread-safe. A count runs outside the lock and is inserted if absent;
/// counts are deterministic, so two threads racing on one set only waste
/// work.
class RelationStatsMemo {
 public:
  /// `rows`: the described relation's cardinality, checked on every read.
  explicit RelationStatsMemo(size_t rows) : rows_(rows) {}

  RelationStatsMemo(const RelationStatsMemo&) = delete;
  RelationStatsMemo& operator=(const RelationStatsMemo&) = delete;

  /// The statistics of column set `cols` of `rel`, which must hold the rows
  /// this memo describes, with the same column numbering. `rel` is read
  /// only when the set is requested for the first time.
  ColumnSetStats Get(const Relation& rel, std::vector<int> cols);

  /// Number of counts run so far: once per column set, unless two threads
  /// raced on one.
  size_t counts() const;

 private:
  const size_t rows_;
  mutable std::mutex mu_;
  std::map<std::vector<int>, ColumnSetStats> sets_;
  size_t counts_ = 0;
};

}  // namespace ptp

#endif  // PTP_STORAGE_STATS_H_
