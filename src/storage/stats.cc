#include "storage/stats.h"

#include <algorithm>
#include <numeric>

#include "runtime/thread_pool.h"
#include "storage/sort.h"

namespace ptp {

ColumnSetStats CountColumnSet(const Relation& rel, std::vector<int> cols) {
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  const size_t n = rel.NumTuples();
  const size_t width = cols.size();
  if (n == 0) return {};
  if (width == 0) return {1, n};
  for (int c : cols) PTP_CHECK(c >= 0 && static_cast<size_t>(c) < rel.arity());
  runtime::ScopedQueryContext detached{runtime::QueryContext{}};
  std::vector<Value> rows;
  rows.reserve(n * width);
  for (size_t row = 0; row < n; ++row) {
    const Value* r = rel.Row(row);
    for (int c : cols) rows.push_back(r[c]);
  }
  SortRowsLex(&rows, width);
  ColumnSetStats stats;
  size_t run = 0;
  for (size_t i = 0; i < n; ++i) {
    if (i == 0 || CompareRows(rows.data() + (i - 1) * width,
                              rows.data() + i * width, width) != 0) {
      ++stats.distinct;
      run = 0;
    }
    stats.max_frequency = std::max(stats.max_frequency, ++run);
  }
  return stats;
}

size_t CountDistinctPrefixes(const Relation& rel, size_t prefix_len) {
  PTP_CHECK_LE(prefix_len, rel.arity());
  std::vector<int> cols(prefix_len);
  std::iota(cols.begin(), cols.end(), 0);
  return CountColumnSet(rel, std::move(cols)).distinct;
}

ColumnSetStats RelationStatsMemo::Get(const Relation& rel,
                                      std::vector<int> cols) {
  // A different cardinality means the caller's rows are not this memo's
  // relation (e.g. an atom whose relation was replaced after Normalize).
  PTP_CHECK_EQ(rel.NumTuples(), rows_);
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sets_.find(cols);
    if (it != sets_.end()) return it->second;
  }
  const ColumnSetStats stats = CountColumnSet(rel, cols);
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_;
  return sets_.emplace(std::move(cols), stats).first->second;
}

size_t RelationStatsMemo::counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counts_;
}

}  // namespace ptp
