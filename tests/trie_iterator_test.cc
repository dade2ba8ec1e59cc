#include "tj/trie_iterator.h"

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "storage/sort.h"
#include "tj/leapfrog.h"

namespace ptp {
namespace {

Relation SortedRel(std::vector<Tuple> rows,
                   std::vector<std::string> names) {
  Relation r("R", Schema(std::move(names)));
  for (const Tuple& t : rows) r.AddTuple(t);
  r.SortLex();
  return r;
}

TEST(TrieIteratorTest, WalksFirstLevelDistinctKeys) {
  Relation r = SortedRel({{1, 5}, {1, 7}, {2, 3}, {4, 1}, {4, 9}}, {"a", "b"});
  TrieIterator it(&r);
  it.Open();
  std::vector<Value> keys;
  while (!it.AtEnd()) {
    keys.push_back(it.Key());
    it.Next();
  }
  EXPECT_EQ(keys, (std::vector<Value>{1, 2, 4}));
}

TEST(TrieIteratorTest, SecondLevelScopedToPrefix) {
  Relation r = SortedRel({{1, 5}, {1, 7}, {2, 3}, {4, 1}, {4, 9}}, {"a", "b"});
  TrieIterator it(&r);
  it.Open();          // a = 1
  it.Open();          // b within a=1
  std::vector<Value> keys;
  while (!it.AtEnd()) {
    keys.push_back(it.Key());
    it.Next();
  }
  EXPECT_EQ(keys, (std::vector<Value>{5, 7}));
  it.Up();
  it.Next();  // a = 2
  EXPECT_EQ(it.Key(), 2);
  it.Open();
  EXPECT_EQ(it.Key(), 3);
}

TEST(TrieIteratorTest, SeekFindsLeastKeyGE) {
  Relation r = SortedRel({{1, 0}, {3, 0}, {7, 0}, {9, 0}}, {"a", "b"});
  TrieIterator it(&r);
  it.Open();
  it.Seek(2);
  EXPECT_EQ(it.Key(), 3);
  it.Seek(3);  // seek to current key: stays
  EXPECT_EQ(it.Key(), 3);
  it.Seek(8);
  EXPECT_EQ(it.Key(), 9);
  it.Seek(10);
  EXPECT_TRUE(it.AtEnd());
}

TEST(TrieIteratorTest, SeekWithinPrefixRange) {
  Relation r = SortedRel({{1, 2}, {1, 4}, {1, 8}, {2, 1}, {2, 9}}, {"a", "b"});
  TrieIterator it(&r);
  it.Open();  // a=1
  it.Open();  // b in {2,4,8}
  it.Seek(5);
  EXPECT_EQ(it.Key(), 8);
  it.Seek(9);  // exceeds the a=1 block; must not leak into a=2's values
  EXPECT_TRUE(it.AtEnd());
}

TEST(TrieIteratorTest, UpRestoresParentPosition) {
  Relation r = SortedRel({{1, 2}, {3, 4}}, {"a", "b"});
  TrieIterator it(&r);
  it.Open();
  it.Next();  // a=3
  it.Open();  // b=4
  EXPECT_EQ(it.Key(), 4);
  it.Up();
  EXPECT_EQ(it.Key(), 3);
}

TEST(TrieIteratorTest, CountsSeeks) {
  Relation r = SortedRel({{1, 0}, {5, 0}}, {"a", "b"});
  TrieIterator it(&r);
  it.Open();
  it.Seek(4);
  it.Seek(6);
  EXPECT_EQ(it.num_seeks(), 2u);
}

// Row-block lengths the level build must fold correctly: 1, 2, 2^k and
// 2^k +- 1 rows.
const size_t kBlockLengths[] = {1,  2,  3,  4,  5,  7,  8,  9,
                                15, 16, 17, 31, 32, 33, 63, 64, 65};

size_t PickLength(Rng* rng) {
  return kBlockLengths[rng->Uniform(std::size(kBlockLengths))];
}

// Sub-blocks per enclosing block: mostly one, so the enclosing block keeps
// a picked length, sometimes two or three.
size_t PickFanout(Rng* rng) {
  return rng->Uniform(2) == 0 ? 1 : 1 + rng->Uniform(3);
}

// An arity-3 bag relation built bottom up: a c-block of picked length n is
// n identical rows, a b-block is one to three c-blocks, and an a-block one
// to three b-blocks — so blocks of every picked length occur at every level.
Relation BlockLengthRelation(Rng* rng) {
  Relation rel("R", Schema{"a", "b", "c"});
  Value a = 0;
  for (int i = 0; i < 32; ++i) {
    a += 1 + static_cast<Value>(rng->Uniform(3));
    Value b = static_cast<Value>(rng->Uniform(4));
    for (size_t bs = PickFanout(rng); bs > 0; --bs) {
      b += 1 + static_cast<Value>(rng->Uniform(3));
      Value c = static_cast<Value>(rng->Uniform(4));
      for (size_t cs = PickFanout(rng); cs > 0; --cs) {
        c += 1 + static_cast<Value>(rng->Uniform(3));
        for (size_t k = PickLength(rng); k > 0; --k) rel.AddTuple({a, b, c});
      }
    }
  }
  rel.SortLex();
  return rel;
}

struct BlockCoverage {
  std::set<size_t> lengths;  // row-block lengths seen
  size_t ends_at_hi = 0;     // blocks ending exactly at their parent's end
};

// The trie levels of a sorted relation, computed from its rows alone: level
// d has one key per block of rows sharing a (d+1)-column prefix (block ends
// found with UpperBoundRows), and a key's children are the level-(d+1)
// blocks inside its block.
struct ReferenceLevels {
  std::vector<std::vector<Value>> keys;
  std::vector<std::vector<uint32_t>> child_starts;

  ReferenceLevels(const Relation& rel, std::vector<BlockCoverage>* coverage)
      : keys(rel.arity()), child_starts(rel.arity() - 1) {
    const size_t arity = rel.arity();
    const size_t n = rel.NumTuples();
    std::vector<std::vector<size_t>> block_starts(arity);
    for (size_t d = 0; d < arity; ++d) {
      size_t parent_end = 0;
      for (size_t pos = 0; pos < n;) {
        const size_t end =
            UpperBoundRows(rel.data(), arity, pos, n, rel.Row(pos), d + 1);
        if (d > 0 && pos >= parent_end) {
          parent_end =
              UpperBoundRows(rel.data(), arity, pos, n, rel.Row(pos), d);
        }
        if (coverage != nullptr) {
          (*coverage)[d].lengths.insert(end - pos);
          if (d > 0 && end == parent_end) ++(*coverage)[d].ends_at_hi;
          if (d == 0 && end == n) ++(*coverage)[d].ends_at_hi;
        }
        keys[d].push_back(rel.At(pos, d));
        block_starts[d].push_back(pos);
        pos = end;
      }
    }
    for (size_t d = 0; d + 1 < arity; ++d) {
      for (size_t start : block_starts[d]) {
        const auto& below = block_starts[d + 1];
        child_starts[d].push_back(static_cast<uint32_t>(
            std::lower_bound(below.begin(), below.end(), start) -
            below.begin()));
      }
      child_starts[d].push_back(static_cast<uint32_t>(keys[d + 1].size()));
    }
  }
};

void ExpectLevelsMatch(const TrieIterator& it, const ReferenceLevels& ref) {
  for (size_t d = 0; d < ref.keys.size(); ++d) {
    const auto keys = it.LevelKeys(d);
    EXPECT_EQ(std::vector<Value>(keys.begin(), keys.end()), ref.keys[d])
        << "level " << d;
    if (d + 1 < ref.keys.size()) {
      const auto starts = it.LevelChildStarts(d);
      EXPECT_EQ(std::vector<uint32_t>(starts.begin(), starts.end()),
                ref.child_starts[d])
          << "level " << d;
    }
  }
}

// Walks the level the iterator has just opened — reference keys [lo, hi)
// of level depth() — mixing Next() with short and long Seek()s, and checks
// every position against the reference.
void CheckWalk(TrieIterator* it, const ReferenceLevels& ref, size_t lo,
               size_t hi, Rng* rng) {
  const size_t depth = static_cast<size_t>(it->depth());
  const std::vector<Value>& keys = ref.keys[depth];
  size_t pos = lo;
  while (pos < hi) {
    ASSERT_FALSE(it->AtEnd()) << "depth " << depth << " pos " << pos;
    ASSERT_EQ(it->Key(), keys[pos]) << "depth " << depth << " pos " << pos;
    if (depth + 1 < ref.keys.size()) {
      it->Open();
      CheckWalk(it, ref, ref.child_starts[depth][pos],
                ref.child_starts[depth][pos + 1], rng);
      it->Up();
    }
    Value target = 0;
    switch (rng->Uniform(4)) {
      case 0:
        it->Next();
        ++pos;
        continue;
      case 1:
        target = keys[pos];  // already positioned: stays
        break;
      case 2:
        target = keys[pos] + 1 + static_cast<Value>(rng->Uniform(4));
        break;
      default:
        target = keys[pos] + 1 + static_cast<Value>(rng->Uniform(64));
        break;
    }
    it->Seek(target);
    while (pos < hi && keys[pos] < target) ++pos;
  }
  EXPECT_TRUE(it->AtEnd()) << "depth " << depth;
}

TEST(TrieIteratorTest, LevelsMatchRowBlocks) {
  std::vector<BlockCoverage> coverage(3);
  for (uint64_t seed = 0; seed < 30; ++seed) {
    Rng rng(seed);
    Relation rel = BlockLengthRelation(&rng);
    const ReferenceLevels ref(rel, &coverage);
    TrieIterator it(&rel);
    ExpectLevelsMatch(it, ref);
    it.Open();
    CheckWalk(&it, ref, 0, ref.keys[0].size(), &rng);
  }
  for (size_t depth = 0; depth < coverage.size(); ++depth) {
    for (size_t len : kBlockLengths) {
      EXPECT_TRUE(coverage[depth].lengths.count(len))
          << "depth " << depth << " never saw a block of " << len << " rows";
    }
    EXPECT_GT(coverage[depth].ends_at_hi, 0u) << "depth " << depth;
  }
}

TEST(TrieIteratorTest, EmptyRelationHasEmptyLevels) {
  Relation rel("R", Schema{"a", "b"});
  TrieIterator it(&rel);
  EXPECT_TRUE(it.EmptyRelation());
  EXPECT_TRUE(it.LevelKeys(0).empty());
  EXPECT_TRUE(it.LevelKeys(1).empty());
  ASSERT_EQ(it.LevelChildStarts(0).size(), 1u);
  EXPECT_EQ(it.LevelChildStarts(0)[0], 0u);
}

TEST(TrieIteratorTest, EdgeRelationsMatchReference) {
  std::vector<Relation> rels;
  rels.push_back(SortedRel({{4, 2, 9}}, {"a", "b", "c"}));  // one row
  rels.push_back(SortedRel({{1}, {5}, {5}, {9}, {9}, {9}}, {"x"}));  // arity 1
  rels.push_back(SortedRel(std::vector<Tuple>(50, {3, 4, 5}),
                           {"a", "b", "c"}));  // all duplicates
  rels.push_back(SortedRel({{1, 1, 1, 1}, {1, 1, 1, 2}, {1, 1, 2, 1},
                            {1, 2, 1, 1}, {2, 1, 1, 1}, {2, 1, 1, 1}},
                           {"a", "b", "c", "d"}));  // arity 4
  rels.push_back(SortedRel({{1, 1, 1, 1, 1}, {1, 1, 1, 1, 2}, {1, 2, 0, 0, 0},
                            {1, 2, 0, 0, 0}, {3, 0, 0, 0, 0}},
                           {"a", "b", "c", "d", "e"}));  // generic arity
  for (const Relation& rel : rels) {
    SCOPED_TRACE(rel.ToString());
    const ReferenceLevels ref(rel, nullptr);
    TrieIterator it(&rel);
    EXPECT_FALSE(it.EmptyRelation());
    ExpectLevelsMatch(it, ref);
    Rng rng(7);
    it.Open();
    CheckWalk(&it, ref, 0, ref.keys[0].size(), &rng);
  }
}

TEST(LeapfrogTest, IntersectsThreeLists) {
  Relation a = SortedRel({{1}, {3}, {4}, {7}, {9}}, {"x"});
  Relation b = SortedRel({{2}, {3}, {7}, {8}, {9}}, {"x"});
  Relation c = SortedRel({{0}, {3}, {5}, {7}, {9}, {11}}, {"x"});
  TrieIterator ia(&a), ib(&b), ic(&c);
  ia.Open();
  ib.Open();
  ic.Open();
  LeapfrogJoin lf({&ia, &ib, &ic});
  std::vector<Value> common;
  while (!lf.AtEnd()) {
    common.push_back(lf.Key());
    lf.Next();
  }
  EXPECT_EQ(common, (std::vector<Value>{3, 7, 9}));
}

TEST(LeapfrogTest, EmptyIntersection) {
  Relation a = SortedRel({{1}, {2}}, {"x"});
  Relation b = SortedRel({{3}, {4}}, {"x"});
  TrieIterator ia(&a), ib(&b);
  ia.Open();
  ib.Open();
  LeapfrogJoin lf({&ia, &ib});
  EXPECT_TRUE(lf.AtEnd());
}

TEST(LeapfrogTest, SingleIteratorEnumeratesAll) {
  Relation a = SortedRel({{1}, {5}, {5}, {9}}, {"x"});
  TrieIterator ia(&a);
  ia.Open();
  LeapfrogJoin lf({&ia});
  std::vector<Value> keys;
  while (!lf.AtEnd()) {
    keys.push_back(lf.Key());
    lf.Next();
  }
  EXPECT_EQ(keys, (std::vector<Value>{1, 5, 9}));
}

TEST(LeapfrogTest, SeekAdvancesAllIterators) {
  Relation a = SortedRel({{1}, {4}, {8}, {12}}, {"x"});
  Relation b = SortedRel({{1}, {4}, {8}, {12}}, {"x"});
  TrieIterator ia(&a), ib(&b);
  ia.Open();
  ib.Open();
  LeapfrogJoin lf({&ia, &ib});
  EXPECT_EQ(lf.Key(), 1);
  lf.Seek(5);
  EXPECT_EQ(lf.Key(), 8);
  lf.Seek(100);
  EXPECT_TRUE(lf.AtEnd());
}

}  // namespace
}  // namespace ptp
