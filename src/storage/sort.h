#ifndef PTP_STORAGE_SORT_H_
#define PTP_STORAGE_SORT_H_

#include <cstddef>
#include <vector>

#include "storage/value.h"

namespace ptp {

/// Sorts `data` — a flat row-major array of rows of width `arity` —
/// lexicographically. This is the "sorting phase" of the Tributary join; it
/// runs after reshuffling (preprocessing into B-trees is impossible there).
///
/// Large inputs take an MSB-radix path: rows are partitioned by the leading
/// bits of column 0 (bucket boundaries depend only on the data), each
/// partition is sorted independently, and partitions concatenate in bucket
/// order — so the result is bit-identical to a plain comparison sort. When
/// called outside a runtime parallel region the partition/scatter/sort
/// passes run on runtime::ParallelFor; inside a worker body (the Tributary
/// per-fragment sorts) the same radix path runs sequentially, still beating
/// one big std::sort on comparison count and locality. Small inputs fall
/// back to the seed's direct std::sort. See docs/KERNELS.md.
void SortRowsLex(std::vector<Value>* data, size_t arity);

/// Number of rows in the half-open row range [lo, hi) of `data` whose first
/// `prefix_len` columns are strictly less than `key` (lexicographically).
/// (TrieIterator searches one column instead — the rows it searches share
/// the prefix above it; see KeyBlockEnd in tj/trie_iterator.h.)
size_t LowerBoundRows(const std::vector<Value>& data, size_t arity, size_t lo,
                      size_t hi, const Value* key, size_t prefix_len);

/// Like LowerBoundRows but counts rows less-than-or-equal (upper bound).
size_t UpperBoundRows(const std::vector<Value>& data, size_t arity, size_t lo,
                      size_t hi, const Value* key, size_t prefix_len);

/// Test hook: row-count thresholds above which SortRowsLex takes the radix
/// path / the parallel radix path. Returns the previous values; pass the
/// result back to restore. Conformance tests force {1, 1} so tiny workloads
/// exercise the radix and parallel code paths.
struct RadixSortTuning {
  size_t min_rows;           // radix path at or above this many rows
  size_t parallel_min_rows;  // parallel passes at or above this many rows
};
RadixSortTuning SetRadixSortTuningForTest(RadixSortTuning tuning);

}  // namespace ptp

#endif  // PTP_STORAGE_SORT_H_
