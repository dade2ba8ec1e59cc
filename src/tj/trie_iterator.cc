#include "tj/trie_iterator.h"

#include <algorithm>
#include <cstdint>
#include <limits>

namespace ptp {
namespace {

// Where the levels of one relation live while they are filled: level l's
// keys at keys[l], its child starts at child[l] (l below the leaf).
struct LevelOut {
  Value* const* keys;
  uint32_t* const* child;
};

// The CSR build for rows of a statically known width, in two passes over
// the sorted rows: count each level's keys, then fill. A row opens a key at
// level l when it differs from the previous row in a column <= l. Both
// passes are branch-free per row, and their column loops have a
// compile-time trip count, so they unroll (as SortFixedRange does in
// storage/sort.cc).
template <size_t kArity>
void CountKeysFixed(const Value* rows, size_t n, size_t* counts) {
  size_t count[kArity];
  for (size_t l = 0; l < kArity; ++l) count[l] = 1;  // row 0 opens every key
  for (size_t r = 1; r < n; ++r) {
    const Value* row = rows + r * kArity;
    const Value* prev = row - kArity;
    bool fresh = false;
#pragma GCC unroll 4
    for (size_t l = 0; l < kArity; ++l) {
      fresh |= row[l] != prev[l];
      count[l] += fresh;
    }
  }
  for (size_t l = 0; l < kArity; ++l) counts[l] = count[l];
}

// Every row writes its column l into level l's next free slot, and (above
// the leaf) the next level's key count as that key's child start; only a
// row that opens a key at level l moves the slot on, so a row that does not
// is overwritten by the next one. Each level has one slot past its keys for
// that. The final child start of each inner level is its end sentinel.
template <size_t kArity>
void FillLevelsFixed(const Value* rows, size_t n, const LevelOut& out) {
  size_t next[kArity] = {};
  Value* keys[kArity];
  uint32_t* child[kArity];
  for (size_t l = 0; l < kArity; ++l) {
    keys[l] = out.keys[l];
    child[l] = l + 1 < kArity ? out.child[l] : nullptr;
  }
  auto put = [&](const Value* row, const Value* prev, bool fresh) {
#pragma GCC unroll 4
    for (size_t l = 0; l < kArity; ++l) {
      fresh |= row[l] != prev[l];
      keys[l][next[l]] = row[l];
      if (l + 1 < kArity) {
        child[l][next[l]] = static_cast<uint32_t>(next[l + 1]);
      }
      next[l] += fresh;
    }
  };
  // Row 0 compares against itself; `fresh` opens its keys.
  put(rows, rows, true);
  for (size_t r = 1; r < n; ++r) {
    put(rows + r * kArity, rows + (r - 1) * kArity, false);
  }
  for (size_t l = 0; l + 1 < kArity; ++l) {
    child[l][next[l]] = static_cast<uint32_t>(next[l + 1]);
  }
}

// Any arity, for relations wider than the fixed-width builds cover: the
// same two branch-free passes with a run-time column loop.
void CountKeysGeneric(const Value* rows, size_t n, size_t arity,
                      size_t* counts) {
  for (size_t l = 0; l < arity; ++l) counts[l] = 1;
  for (size_t r = 1; r < n; ++r) {
    const Value* row = rows + r * arity;
    const Value* prev = row - arity;
    bool fresh = false;
    for (size_t l = 0; l < arity; ++l) {
      fresh |= row[l] != prev[l];
      counts[l] += fresh;
    }
  }
}

void FillLevelsGeneric(const Value* rows, size_t n, size_t arity,
                       const LevelOut& out) {
  std::vector<size_t> next(arity, 0);
  auto put = [&](const Value* row, const Value* prev, bool fresh) {
    for (size_t l = 0; l < arity; ++l) {
      fresh |= row[l] != prev[l];
      out.keys[l][next[l]] = row[l];
      if (l + 1 < arity) {
        out.child[l][next[l]] = static_cast<uint32_t>(next[l + 1]);
      }
      next[l] += fresh;
    }
  };
  put(rows, rows, true);
  for (size_t r = 1; r < n; ++r) {
    put(rows + r * arity, rows + (r - 1) * arity, false);
  }
  for (size_t l = 0; l + 1 < arity; ++l) {
    out.child[l][next[l]] = static_cast<uint32_t>(next[l + 1]);
  }
}

void CountKeys(const Value* rows, size_t n, size_t arity, size_t* counts) {
  switch (arity) {
    case 1:
      return CountKeysFixed<1>(rows, n, counts);
    case 2:
      return CountKeysFixed<2>(rows, n, counts);
    case 3:
      return CountKeysFixed<3>(rows, n, counts);
    case 4:
      return CountKeysFixed<4>(rows, n, counts);
    default:
      return CountKeysGeneric(rows, n, arity, counts);
  }
}

void FillLevels(const Value* rows, size_t n, size_t arity,
                const LevelOut& out) {
  switch (arity) {
    case 1:
      return FillLevelsFixed<1>(rows, n, out);
    case 2:
      return FillLevelsFixed<2>(rows, n, out);
    case 3:
      return FillLevelsFixed<3>(rows, n, out);
    case 4:
      return FillLevelsFixed<4>(rows, n, out);
    default:
      return FillLevelsGeneric(rows, n, arity, out);
  }
}

}  // namespace

TrieIterator::TrieIterator(const Relation* rel)
    : levels_(rel->arity()), frames_(rel->arity()) {
  PTP_DCHECK(rel->IsSortedLex());
  const size_t arity = rel->arity();
  const size_t n = rel->NumTuples();
  PTP_CHECK_LE(n, static_cast<size_t>(std::numeric_limits<uint32_t>::max()))
      << "trie child starts are 32-bit row counts";
  if (arity == 0) return;

  std::vector<size_t> counts(arity, 0);
  if (n > 0) CountKeys(rel->data().data(), n, arity, counts.data());
  // One allocation for every level's keys and one for every inner level's
  // child starts; each level gets one slot more than its keys.
  size_t num_keys = 0;
  size_t num_child = 0;
  for (size_t l = 0; l < arity; ++l) {
    num_keys += counts[l] + 1;
    if (l + 1 < arity) num_child += counts[l] + 1;
  }
  keys_ = std::make_unique_for_overwrite<Value[]>(num_keys);
  child_ = std::make_unique_for_overwrite<uint32_t[]>(num_child);
  bytes_ = num_keys * sizeof(Value) + num_child * sizeof(uint32_t);
  std::vector<Value*> keys(arity);
  std::vector<uint32_t*> child(arity, nullptr);
  Value* key_at = keys_.get();
  uint32_t* child_at = child_.get();
  for (size_t l = 0; l < arity; ++l) {
    keys[l] = key_at;
    key_at += counts[l] + 1;
    if (l + 1 < arity) {
      child[l] = child_at;
      child_at += counts[l] + 1;
    }
    levels_[l] = {keys[l], child[l], counts[l]};
  }
  if (n > 0) {
    FillLevels(rel->data().data(), n, arity, {keys.data(), child.data()});
  } else {
    std::fill_n(child_.get(), num_child, 0);  // every level's end sentinel
  }
}

}  // namespace ptp
