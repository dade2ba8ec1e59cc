#ifndef PTP_TJ_TRIE_ITERATOR_H_
#define PTP_TJ_TRIE_ITERATOR_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/logging.h"
#include "storage/relation.h"
#include "tj/trie_cursor.h"

namespace ptp {

/// Presents a lexicographically sorted relation as a trie, implementing the
/// LFTJ iterator API (Veldhuizen '14) over flat arrays instead of a B-tree:
///
///   Open()  — descend to the first key of the next attribute level
///   Up()    — return to the parent level
///   Next()  — advance to the next distinct key at this level
///   Seek(v) — least key >= v at this level (galloping search, O(log n);
///             the paper's Sec. 2.2 trade-off vs. LogicBlox's O(1) B-tree)
///   Key() / AtEnd()
///
/// The constructor copies the sorted rows into CSR levels, in two passes
/// over the rows (count, then fill). Level d holds one key per distinct
/// (d+1)-column prefix — the distinct values of column d under each
/// distinct d-column prefix, in row order — and, above the leaf, where each
/// key's children start in level d+1. The leaf level drops duplicate rows.
/// The iterator reads only the levels, so the relation may be freed once
/// the iterator exists. A level's state is a [pos, end) range of its keys:
/// Open() reads the child range, Next() is ++pos, and Seek() gallops over
/// distinct keys.
///
/// The per-key operations are defined here, in the header, so the join
/// driver (which names this `final` type) inlines them.
class TrieIterator final : public TrieCursor {
 public:
  /// `rel` must be sorted with SortLex(), have fewer than 2^32 rows, and be
  /// unmodified while the constructor runs; it is not used afterwards.
  explicit TrieIterator(const Relation* rel);

  /// Current level; -1 before the first Open().
  int depth() const override { return depth_; }

  /// True if positioned past the last key of the current level.
  bool AtEnd() const override { return Top().pos == Top().end; }

  /// Current key; requires !AtEnd() and depth() >= 0.
  Value Key() const override {
    PTP_DCHECK(depth_ >= 0 && !AtEnd());
    return Top().key;
  }

  /// Descends to the first key one level deeper. Requires !AtEnd() (or
  /// depth() == -1 and a nonempty relation).
  void Open() override {
    PTP_CHECK_LT(static_cast<size_t>(depth_ + 1), levels_.size());
    size_t lo = 0;
    size_t hi = levels_[0].size;
    if (depth_ >= 0) {
      PTP_DCHECK(!AtEnd());
      const uint32_t* child = levels_[static_cast<size_t>(depth_)].child;
      lo = child[Top().pos];
      hi = child[Top().pos + 1];
    }
    PTP_DCHECK(lo < hi);
    ++num_opens_;
    ++depth_;
    Frame& frame = Top();
    frame.keys = levels_[static_cast<size_t>(depth_)].keys;
    frame.pos = lo;
    frame.end = hi;
    frame.key = frame.keys[lo];
  }

  /// Ascends one level. Requires depth() >= 0.
  void Up() override {
    PTP_DCHECK(depth_ >= 0);
    ++num_ups_;
    --depth_;
  }

  /// Advances to the next distinct key at this level.
  void Next() override {
    Frame& frame = Top();
    PTP_DCHECK(frame.pos < frame.end);
    ++num_nexts_;
    if (++frame.pos < frame.end) frame.key = frame.keys[frame.pos];
  }

  /// Positions at the least key >= v at this level, or AtEnd().
  void Seek(Value v) override {
    Frame& frame = Top();
    PTP_DCHECK(frame.pos < frame.end);
    ++num_seeks_;
    if (frame.key >= v) return;  // already positioned
    // The target is the first key >= v in (pos, end). LFTJ seeks advance
    // monotonically and the leapfrog intersection usually lands close by,
    // so gallop from the current position first: probe base + 1, +2, +4,
    // ... to bracket the target in O(log distance) steps, then
    // binary-search only inside that bracket.
    const Value* keys = frame.keys;
    const size_t base = frame.pos + 1;
    size_t bound = 1;
    while (base + bound < frame.end && keys[base + bound] < v) {
      bound <<= 1;
      ++num_gallop_steps_;
    }
    // Keys at or before base + bound/2 are known < v (bound/2 was the last
    // successful probe; bound/2 == 0 brackets [base, base + 1)).
    size_t lo = base + bound / 2;
    size_t hi = std::min(base + bound, frame.end);
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (keys[mid] < v) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    frame.pos = lo;
    if (lo < frame.end) frame.key = keys[lo];
  }

  bool EmptyRelation() const override {
    return levels_.empty() || levels_[0].size == 0;
  }

  /// Number of Seek() calls performed (cost-model instrumentation).
  size_t num_seeks() const override { return num_seeks_; }
  /// Number of Next() calls performed.
  size_t num_nexts() const override { return num_nexts_; }
  size_t num_opens() const override { return num_opens_; }
  size_t num_ups() const override { return num_ups_; }
  /// Galloping probe steps, in distinct keys, spent bracketing Seek()
  /// targets before the bounded binary search.
  size_t num_gallop_steps() const override { return num_gallop_steps_; }

  /// Level d's keys, in trie order.
  std::span<const Value> LevelKeys(size_t d) const {
    return {levels_[d].keys, levels_[d].size};
  }
  /// Level d's child starts into level d+1 (d below the leaf): key i's
  /// children are [starts[i], starts[i + 1]); one entry more than keys.
  std::span<const uint32_t> LevelChildStarts(size_t d) const {
    PTP_DCHECK(d + 1 < levels_.size());
    return {levels_[d].child, levels_[d].size + 1};
  }
  /// Bytes the levels occupy (charged as MemCategory::kTrie).
  size_t bytes() const { return bytes_; }

 private:
  struct Level {
    const Value* keys;      // `size` keys (plus one scratch slot)
    const uint32_t* child;  // size + 1 child starts; null at the leaf
    size_t size;
  };
  struct Frame {
    const Value* keys;  // the level's key array
    size_t pos;         // current key
    size_t end;         // one past the last key under the parent's key
    Value key;          // keys[pos]; valid unless pos == end
  };

  Frame& Top() { return frames_[static_cast<size_t>(depth_)]; }
  const Frame& Top() const { return frames_[static_cast<size_t>(depth_)]; }

  std::unique_ptr<Value[]> keys_;      // every level's keys, level by level
  std::unique_ptr<uint32_t[]> child_;  // every inner level's child starts
  size_t bytes_ = 0;
  std::vector<Level> levels_;   // views into keys_ / child_, one per column
  std::vector<Frame> frames_;   // one slot per trie level, sized once
  int depth_ = -1;
  size_t num_seeks_ = 0;
  size_t num_nexts_ = 0;
  size_t num_opens_ = 0;
  size_t num_ups_ = 0;
  size_t num_gallop_steps_ = 0;
};

}  // namespace ptp

#endif  // PTP_TJ_TRIE_ITERATOR_H_
