#ifndef PTP_STORAGE_RELATION_H_
#define PTP_STORAGE_RELATION_H_

#include <span>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace ptp {

/// In-memory relation stored as a flat row-major array of int64 values.
///
/// The Tributary join sorts it lexicographically and copies it, in one pass,
/// into per-level arrays of distinct keys (tj/trie_iterator.h), where a
/// seek gallops over contiguous keys. It is also what the simulated shuffle
/// moves between workers.
class Relation {
 public:
  Relation() = default;
  Relation(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  Relation(const Relation&) = default;
  Relation& operator=(const Relation&) = default;
  Relation(Relation&&) = default;
  Relation& operator=(Relation&&) = default;

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  const Schema& schema() const { return schema_; }
  size_t arity() const { return schema_.arity(); }
  size_t NumTuples() const {
    return arity() == 0 ? 0 : data_.size() / arity();
  }
  bool empty() const { return data_.empty(); }

  /// Appends one tuple; `tuple.size()` must equal arity().
  void AddTuple(std::span<const Value> tuple) {
    PTP_DCHECK(tuple.size() == arity());
    data_.insert(data_.end(), tuple.begin(), tuple.end());
  }
  void AddTuple(std::initializer_list<Value> tuple) {
    AddTuple(std::span<const Value>(tuple.begin(), tuple.size()));
  }

  /// Appends the `row`-th tuple of `other` (schemas must have equal arity).
  void AddTupleFrom(const Relation& other, size_t row) {
    PTP_DCHECK(other.arity() == arity());
    const Value* src = other.Row(row);
    data_.insert(data_.end(), src, src + arity());
  }

  /// Pointer to the first value of tuple `row`.
  const Value* Row(size_t row) const {
    PTP_DCHECK(row < NumTuples());
    return data_.data() + row * arity();
  }

  Value At(size_t row, size_t col) const {
    PTP_DCHECK(col < arity());
    return Row(row)[col];
  }

  /// Materializes tuple `row`.
  Tuple GetTuple(size_t row) const {
    const Value* r = Row(row);
    return Tuple(r, r + arity());
  }

  std::vector<Value>& mutable_data() { return data_; }
  const std::vector<Value>& data() const { return data_; }

  /// Reserves space for `n` tuples.
  void Reserve(size_t n) { data_.reserve(n * arity()); }
  void Clear() { data_.clear(); }

  /// Returns a copy with columns re-ordered per `perm`: output column i is
  /// input column perm[i]. perm may drop/duplicate columns (projection).
  Relation PermuteColumns(const std::vector<int>& perm,
                          std::string new_name = "") const;

  /// Sorts tuples lexicographically on all columns, left to right.
  void SortLex();

  /// True if tuples are lexicographically sorted on all columns.
  bool IsSortedLex() const;

  /// Removes adjacent duplicate tuples; relation must be sorted.
  void DedupSorted();

  /// Removes duplicates regardless of order (sorts internally).
  void SortAndDedup() {
    SortLex();
    DedupSorted();
  }

  /// Row-set equality ignoring tuple order (copies and sorts both sides).
  bool EqualsUnordered(const Relation& other) const;

  /// EqualsUnordered against `sorted`, which must already be in SortLex
  /// order: copies and sorts this side only, so checking many relations
  /// against one reference sorts the reference once.
  bool EqualsUnorderedSorted(const Relation& sorted) const;

  /// Debug rendering, capped at `max_rows` rows.
  std::string ToString(size_t max_rows = 20) const;

 private:
  std::string name_;
  Schema schema_;
  std::vector<Value> data_;
};

/// Lexicographic comparison of two rows of width `arity`.
inline int CompareRows(const Value* a, const Value* b, size_t arity) {
  for (size_t i = 0; i < arity; ++i) {
    if (a[i] < b[i]) return -1;
    if (a[i] > b[i]) return 1;
  }
  return 0;
}

}  // namespace ptp

#endif  // PTP_STORAGE_RELATION_H_
