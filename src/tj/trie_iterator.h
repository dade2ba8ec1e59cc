#ifndef PTP_TJ_TRIE_ITERATOR_H_
#define PTP_TJ_TRIE_ITERATOR_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "storage/relation.h"
#include "tj/trie_cursor.h"

namespace ptp {

/// One past the last row of the run of rows in [pos, hi) that hold the same
/// value as row `pos` in the column `col` points into (rows `stride` values
/// apart). The column must be ascending over [pos, hi). Gallops pos+1,
/// pos+2, pos+4, ... until a probe leaves the run, then binary-searches the
/// last bracket: O(log run length), and one probe for a run of one row —
/// the common case at a set relation's last trie level.
inline size_t KeyBlockEnd(const Value* col, size_t stride, size_t pos,
                          size_t hi) {
  const Value key = col[pos * stride];
  size_t bound = 1;
  while (pos + bound < hi && col[(pos + bound) * stride] <= key) {
    bound <<= 1;
  }
  // Rows up to pos + bound/2 hold the key; the run ends in
  // (pos + bound/2, min(pos + bound, hi)].
  size_t lo = pos + bound / 2 + 1;
  size_t end = std::min(pos + bound, hi);
  while (lo < end) {
    const size_t mid = lo + (end - lo) / 2;
    if (col[mid * stride] <= key) {
      lo = mid + 1;
    } else {
      end = mid;
    }
  }
  return lo;
}

/// Presents a lexicographically sorted relation as a trie, implementing the
/// LFTJ iterator API (Veldhuizen '14) over a flat array instead of a B-tree:
///
///   Open()  — descend to the first key of the next attribute level
///   Up()    — return to the parent level
///   Next()  — advance to the next distinct key at this level
///   Seek(v) — least key >= v at this level (binary search, O(log n);
///             the paper's Sec. 2.2 trade-off vs. LogicBlox's O(1) B-tree)
///   Key() / AtEnd()
///
/// A level's keys are the distinct values of column `depth` among the rows
/// that share the current prefix; those rows are a contiguous sub-array, so
/// state per level is just a [pos, hi) range plus the current key block.
///
/// The per-key operations are defined here, in the header, so the join
/// driver (which names this `final` type) inlines them.
class TrieIterator final : public TrieCursor {
 public:
  /// `rel` must outlive the iterator, be sorted with SortLex(), and stay
  /// unmodified while the iterator is in use.
  explicit TrieIterator(const Relation* rel)
      : rel_(rel),
        data_(rel->data().data()),
        arity_(rel->arity()),
        num_rows_(rel->NumTuples()),
        levels_(rel->arity()) {
    PTP_DCHECK(rel_->IsSortedLex());
  }

  /// Current level; -1 before the first Open().
  int depth() const override { return depth_; }

  /// True if positioned past the last key of the current level.
  bool AtEnd() const override { return Top().at_end; }

  /// Current key; requires !AtEnd() and depth() >= 0.
  Value Key() const override {
    PTP_DCHECK(depth_ >= 0 && !AtEnd());
    return Top().key;
  }

  /// Descends to the first key one level deeper. Requires !AtEnd() (or
  /// depth() == -1 and a nonempty relation).
  void Open() override {
    size_t lo = 0;
    size_t hi = num_rows_;
    if (depth_ >= 0) {
      PTP_DCHECK(!AtEnd());
      lo = Top().pos;
      hi = Top().block_end;
    }
    PTP_DCHECK(lo < hi);
    PTP_CHECK_LT(static_cast<size_t>(depth_ + 1), arity_);
    ++num_opens_;
    ++depth_;
    Level& level = Top();
    level.hi = hi;
    level.pos = lo;
    level.at_end = false;
    FindBlockEnd(&level);
  }

  /// Ascends one level. Requires depth() >= 0.
  void Up() override {
    PTP_DCHECK(depth_ >= 0);
    ++num_ups_;
    --depth_;
  }

  /// Advances to the next distinct key at this level.
  void Next() override {
    Level& level = Top();
    PTP_DCHECK(!level.at_end);
    ++num_nexts_;
    level.pos = level.block_end;
    if (level.pos >= level.hi) {
      level.at_end = true;
      return;
    }
    FindBlockEnd(&level);
  }

  /// Positions at the least key >= v at this level, or AtEnd().
  void Seek(Value v) override {
    Level& level = Top();
    PTP_DCHECK(!level.at_end);
    ++num_seeks_;
    if (level.key >= v) return;  // already positioned
    // The target is the first row with column value >= v within
    // [block_end, hi) — rows before block_end share the current (smaller)
    // key. LFTJ seeks advance monotonically and the leapfrog intersection
    // usually lands close by, so gallop from the current position first:
    // probe block_end + 1, +2, +4, ... to bracket the target in
    // O(log distance) steps, then binary-search only inside that bracket.
    const Value* col = data_ + depth_;
    const size_t base = level.block_end;
    size_t bound = 1;
    while (base + bound < level.hi && col[(base + bound) * arity_] < v) {
      bound <<= 1;
      ++num_gallop_steps_;
    }
    // Rows at or before base + bound/2 are known < v (bound/2 was the last
    // successful probe; bound/2 == 0 brackets [base, base + 1)).
    size_t lo = base + bound / 2;
    size_t hi = std::min(base + bound, level.hi);
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (col[mid * arity_] < v) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    level.pos = lo;
    if (level.pos >= level.hi) {
      level.at_end = true;
      return;
    }
    FindBlockEnd(&level);
  }

  bool EmptyRelation() const override { return num_rows_ == 0; }

  /// Number of Seek() calls performed (cost-model instrumentation).
  size_t num_seeks() const override { return num_seeks_; }
  /// Number of Next() calls performed.
  size_t num_nexts() const override { return num_nexts_; }
  size_t num_opens() const override { return num_opens_; }
  size_t num_ups() const override { return num_ups_; }
  /// Galloping probe steps spent bracketing Seek() targets before the
  /// bounded binary search. Block-end gallops are not counted.
  size_t num_gallop_steps() const override { return num_gallop_steps_; }

  const Relation& relation() const { return *rel_; }

  /// Row range [first, last) of the current key block in relation().
  /// Requires !AtEnd() and depth() >= 0.
  std::pair<size_t, size_t> KeyBlock() const {
    PTP_DCHECK(depth_ >= 0 && !AtEnd());
    return {Top().pos, Top().block_end};
  }

 private:
  struct Level {
    size_t hi;         // one past the last row with the current prefix
    size_t pos;        // first row of the current key block
    size_t block_end;  // one past the last row of the current key block
    Value key;         // column `depth` of row `pos`; valid unless at_end
    bool at_end;
  };

  Level& Top() { return levels_[static_cast<size_t>(depth_)]; }
  const Level& Top() const { return levels_[static_cast<size_t>(depth_)]; }

  /// Loads the key at `level->pos` and finds its block end. The rows in
  /// [pos, hi) share the prefix above this level, so this level's column is
  /// ascending there and the block is the run of rows equal to the key.
  void FindBlockEnd(Level* level) {
    const Value* col = data_ + depth_;
    level->key = col[level->pos * arity_];
    level->block_end = KeyBlockEnd(col, arity_, level->pos, level->hi);
  }

  const Relation* rel_;
  const Value* data_;  // rel_'s row-major values
  size_t arity_;
  size_t num_rows_;
  std::vector<Level> levels_;  // one slot per trie level, sized once
  int depth_ = -1;
  size_t num_seeks_ = 0;
  size_t num_nexts_ = 0;
  size_t num_opens_ = 0;
  size_t num_ups_ = 0;
  size_t num_gallop_steps_ = 0;
};

}  // namespace ptp

#endif  // PTP_TJ_TRIE_ITERATOR_H_
