#ifndef PTP_TJ_LEAPFROG_H_
#define PTP_TJ_LEAPFROG_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "tj/trie_cursor.h"

namespace ptp {

/// Counters for the leapfrog work done at one trie level; the Tributary
/// join keeps one per variable, which is exactly the per-variable seek
/// attribution the Sec. 5 cost model predicts (and the obs counter
/// registry exports as "tj.seeks.<var>").
struct LeapfrogStats {
  size_t seeks = 0;   // TrieCursor::Seek calls issued by the leapfrog
  size_t nexts = 0;   // TrieCursor::Next calls issued by the leapfrog
  size_t keys = 0;    // common keys found (intersection output size)
};

/// Leapfrog intersection of k trie iterators positioned at the same level
/// (Veldhuizen '14, Algorithm "leapfrog-join"): enumerates the values common
/// to all iterators in ascending order by repeatedly seeking the smallest
/// iterator past the largest key.
///
/// `Cursor` is the iterator type. The default, the abstract TrieCursor,
/// mixes backends through virtual calls; the Tributary join instantiates it
/// with a concrete `final` backend so every per-key call binds statically.
template <typename Cursor = TrieCursor>
class LeapfrogJoin {
 public:
  /// All iterators must already be Open()ed at the level to intersect.
  /// `stats`, when given, accumulates across this instance's lifetime (it
  /// may be shared by many instances, e.g. one per recursion depth).
  /// Moving a caller's vector in (and back out with ReleaseIters) reuses
  /// its buffer: constructing a leapfrog then allocates nothing.
  explicit LeapfrogJoin(std::vector<Cursor*> iters,
                        LeapfrogStats* stats = nullptr)
      : iters_(std::move(iters)), stats_(stats) {
    PTP_CHECK(!iters_.empty());
    for (Cursor* it : iters_) {
      if (it->AtEnd()) {
        at_end_ = true;
        return;
      }
    }
    // Sort by current key so iters_[p] is the smallest and the predecessor
    // (cyclically) holds the largest key.
    std::sort(iters_.begin(), iters_.end(), [](const Cursor* a,
                                               const Cursor* b) {
      return a->Key() < b->Key();
    });
    Search();
  }

  bool AtEnd() const { return at_end_; }
  /// Current common key; requires !AtEnd().
  Value Key() const { return key_; }

  /// Advances to the next common key.
  void Next() {
    PTP_DCHECK(!at_end_);
    Cursor* it = iters_[p_];
    if (stats_ != nullptr) ++stats_->nexts;
    it->Next();
    if (it->AtEnd()) {
      at_end_ = true;
      return;
    }
    Advance();
    Search();
  }

  /// Positions at the least common key >= v.
  void Seek(Value v) {
    PTP_DCHECK(!at_end_);
    if (key_ >= v) return;
    Cursor* it = iters_[p_];
    if (stats_ != nullptr) ++stats_->seeks;
    it->Seek(v);
    if (it->AtEnd()) {
      at_end_ = true;
      return;
    }
    Advance();
    Search();
  }

  /// Hands the iterators (in the leapfrog's current order) back to the
  /// caller; this instance must not be used afterwards.
  std::vector<Cursor*> ReleaseIters() { return std::move(iters_); }

 private:
  /// Moves p_ to the next iterator in the cycle.
  void Advance() {
    if (++p_ == iters_.size()) p_ = 0;
  }

  /// Core search loop: leapfrogs until all iterators agree on one key.
  void Search() {
    // Invariant: iters_ is cyclically ordered by key starting at p_; the
    // max key is held by the predecessor of p_.
    Value max_key = iters_[p_ == 0 ? iters_.size() - 1 : p_ - 1]->Key();
    while (true) {
      Cursor* it = iters_[p_];
      if (it->Key() == max_key) {
        key_ = max_key;
        if (stats_ != nullptr) ++stats_->keys;
        return;  // all k iterators agree
      }
      if (stats_ != nullptr) ++stats_->seeks;
      it->Seek(max_key);
      if (it->AtEnd()) {
        at_end_ = true;
        return;
      }
      max_key = it->Key();
      Advance();
    }
  }

  std::vector<Cursor*> iters_;
  LeapfrogStats* stats_ = nullptr;  // not owned; may be null
  size_t p_ = 0;                    // index of the iterator to move next
  Value key_ = 0;
  bool at_end_ = false;
};

}  // namespace ptp

#endif  // PTP_TJ_LEAPFROG_H_
