#include "storage/relation.h"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "storage/sort.h"

namespace ptp {

Relation Relation::PermuteColumns(const std::vector<int>& perm,
                                  std::string new_name) const {
  std::vector<std::string> out_names;
  out_names.reserve(perm.size());
  for (int p : perm) {
    PTP_CHECK_GE(p, 0);
    PTP_CHECK_LT(static_cast<size_t>(p), arity());
    out_names.push_back(schema_.name(static_cast<size_t>(p)));
  }
  Relation out(new_name.empty() ? name_ : std::move(new_name),
               Schema(std::move(out_names)));
  const size_t n = NumTuples();
  out.data_.resize(n * perm.size());
  Value* dst = out.data_.data();
  for (size_t row = 0; row < n; ++row) {
    const Value* src = Row(row);
    for (size_t i = 0; i < perm.size(); ++i) {
      *dst++ = src[static_cast<size_t>(perm[i])];
    }
  }
  return out;
}

void Relation::SortLex() { SortRowsLex(&data_, arity()); }

bool Relation::IsSortedLex() const {
  const size_t n = NumTuples();
  for (size_t i = 1; i < n; ++i) {
    if (CompareRows(Row(i - 1), Row(i), arity()) > 0) return false;
  }
  return true;
}

void Relation::DedupSorted() {
  PTP_DCHECK(IsSortedLex());
  const size_t a = arity();
  const size_t n = NumTuples();
  if (n <= 1) return;
  size_t write = 1;
  for (size_t read = 1; read < n; ++read) {
    if (CompareRows(Row(read), data_.data() + (write - 1) * a, a) != 0) {
      if (write != read) {
        std::copy(Row(read), Row(read) + a, data_.data() + write * a);
      }
      ++write;
    }
  }
  data_.resize(write * a);
}

bool Relation::EqualsUnordered(const Relation& other) const {
  if (arity() != other.arity()) return false;
  if (NumTuples() != other.NumTuples()) return false;
  Relation sorted = other;
  sorted.SortLex();
  return EqualsUnorderedSorted(sorted);
}

bool Relation::EqualsUnorderedSorted(const Relation& sorted) const {
  PTP_DCHECK(sorted.IsSortedLex());
  if (arity() != sorted.arity()) return false;
  if (NumTuples() != sorted.NumTuples()) return false;
  Relation a = *this;
  a.SortLex();
  return a.data_ == sorted.data_;
}

std::string Relation::ToString(size_t max_rows) const {
  std::ostringstream os;
  os << name_ << schema_.ToString() << " [" << NumTuples() << " tuples]";
  const size_t n = std::min(NumTuples(), max_rows);
  for (size_t row = 0; row < n; ++row) {
    os << "\n  (";
    for (size_t col = 0; col < arity(); ++col) {
      if (col > 0) os << ", ";
      os << At(row, col);
    }
    os << ")";
  }
  if (NumTuples() > max_rows) os << "\n  ...";
  return os.str();
}

}  // namespace ptp
