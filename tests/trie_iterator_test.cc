#include "tj/trie_iterator.h"

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

// Key-block lengths the block-end gallop must bracket correctly: 1, 2, 2^k
// and 2^k +- 1 rows.
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
  std::set<size_t> lengths;  // key-block lengths seen
  size_t ends_at_hi = 0;     // blocks ending exactly at the range end
};

// Walks the level the iterator has just opened (rows [lo, hi)), mixing
// Next() with short and long Seek()s, and checks every key block against
// the prefix upper bound a full binary search over [pos, hi) finds.
void CheckLevel(TrieIterator* it, const Relation& rel, size_t hi, Rng* rng,
                std::vector<BlockCoverage>* coverage) {
  const size_t depth = static_cast<size_t>(it->depth());
  while (!it->AtEnd()) {
    const auto [pos, end] = it->KeyBlock();
    ASSERT_EQ(end, UpperBoundRows(rel.data(), rel.arity(), pos, hi,
                                  rel.Row(pos), depth + 1))
        << "depth " << depth << " pos " << pos;
    (*coverage)[depth].lengths.insert(end - pos);
    if (end == hi) ++(*coverage)[depth].ends_at_hi;
    if (depth + 1 < rel.arity()) {
      it->Open();
      CheckLevel(it, rel, end, rng, coverage);
      it->Up();
    }
    switch (rng->Uniform(3)) {
      case 0:
        it->Next();
        break;
      case 1:
        it->Seek(it->Key() + 1);
        break;
      default:
        it->Seek(it->Key() + 1 + static_cast<Value>(rng->Uniform(8)));
        break;
    }
  }
}

TEST(TrieIteratorTest, BlockEndMatchesPrefixUpperBound) {
  std::vector<BlockCoverage> coverage(3);
  for (uint64_t seed = 0; seed < 30; ++seed) {
    Rng rng(seed);
    Relation rel = BlockLengthRelation(&rng);
    TrieIterator it(&rel);
    it.Open();
    CheckLevel(&it, rel, rel.NumTuples(), &rng, &coverage);
  }
  for (size_t depth = 0; depth < coverage.size(); ++depth) {
    for (size_t len : kBlockLengths) {
      EXPECT_TRUE(coverage[depth].lengths.count(len))
          << "depth " << depth << " never saw a block of " << len << " rows";
    }
    EXPECT_GT(coverage[depth].ends_at_hi, 0u) << "depth " << depth;
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
