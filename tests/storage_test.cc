#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "storage/catalog.h"
#include "storage/dictionary.h"
#include "storage/relation.h"
#include "storage/sort.h"
#include "storage/stats.h"

namespace ptp {
namespace {

TEST(SchemaTest, IndexOfAndArity) {
  Schema s{"x", "y", "z"};
  EXPECT_EQ(s.arity(), 3u);
  EXPECT_EQ(s.IndexOf("x"), 0);
  EXPECT_EQ(s.IndexOf("z"), 2);
  EXPECT_EQ(s.IndexOf("w"), -1);
  EXPECT_EQ(s.ToString(), "(x, y, z)");
}

TEST(RelationTest, AddAndAccess) {
  Relation r("R", Schema{"a", "b"});
  r.AddTuple({1, 2});
  r.AddTuple({3, 4});
  EXPECT_EQ(r.NumTuples(), 2u);
  EXPECT_EQ(r.At(0, 0), 1);
  EXPECT_EQ(r.At(1, 1), 4);
  EXPECT_EQ(r.GetTuple(1), (Tuple{3, 4}));
}

TEST(RelationTest, SortLexOrdersRows) {
  Relation r("R", Schema{"a", "b"});
  r.AddTuple({3, 1});
  r.AddTuple({1, 2});
  r.AddTuple({1, 1});
  r.AddTuple({2, 9});
  r.SortLex();
  EXPECT_TRUE(r.IsSortedLex());
  EXPECT_EQ(r.GetTuple(0), (Tuple{1, 1}));
  EXPECT_EQ(r.GetTuple(1), (Tuple{1, 2}));
  EXPECT_EQ(r.GetTuple(2), (Tuple{2, 9}));
  EXPECT_EQ(r.GetTuple(3), (Tuple{3, 1}));
}

TEST(RelationTest, DedupSortedRemovesDuplicates) {
  Relation r("R", Schema{"a", "b"});
  r.AddTuple({1, 1});
  r.AddTuple({1, 1});
  r.AddTuple({1, 2});
  r.AddTuple({1, 2});
  r.AddTuple({2, 2});
  r.DedupSorted();
  EXPECT_EQ(r.NumTuples(), 3u);
}

TEST(RelationTest, PermuteColumnsReordersAndProjects) {
  Relation r("R", Schema{"a", "b", "c"});
  r.AddTuple({1, 2, 3});
  Relation p = r.PermuteColumns({2, 0}, "P");
  EXPECT_EQ(p.schema().names(), (std::vector<std::string>{"c", "a"}));
  EXPECT_EQ(p.GetTuple(0), (Tuple{3, 1}));
}

TEST(RelationTest, EqualsUnorderedIgnoresRowOrder) {
  Relation a("A", Schema{"x"});
  a.AddTuple({1});
  a.AddTuple({2});
  Relation b("B", Schema{"x"});
  b.AddTuple({2});
  b.AddTuple({1});
  EXPECT_TRUE(a.EqualsUnordered(b));
  // Against a reference sorted once: a is sorted, b is not.
  EXPECT_TRUE(b.EqualsUnorderedSorted(a));
  Relation twice("T", Schema{"x"});
  twice.AddTuple({1});
  twice.AddTuple({1});
  EXPECT_FALSE(twice.EqualsUnorderedSorted(a));
  b.AddTuple({3});
  EXPECT_FALSE(a.EqualsUnordered(b));
  EXPECT_FALSE(b.EqualsUnorderedSorted(a));
}

TEST(SortTest, GenericArityMatchesFixed) {
  // arity 5 goes through the index-sort path; verify against std::sort of
  // materialized tuples.
  Rng rng(9);
  const size_t kArity = 5;
  std::vector<Value> flat;
  std::vector<Tuple> rows;
  for (int i = 0; i < 500; ++i) {
    Tuple t;
    for (size_t k = 0; k < kArity; ++k) {
      t.push_back(static_cast<Value>(rng.Uniform(10)));
    }
    rows.push_back(t);
    flat.insert(flat.end(), t.begin(), t.end());
  }
  SortRowsLex(&flat, kArity);
  std::sort(rows.begin(), rows.end());
  std::vector<Value> expected;
  for (const Tuple& t : rows) expected.insert(expected.end(), t.begin(), t.end());
  EXPECT_EQ(flat, expected);
}

TEST(SortTest, LowerUpperBoundRows) {
  std::vector<Value> data = {1, 1, 1, 2, 2, 1, 2, 2, 3, 1};  // arity 2
  Value key2[] = {2, 0};
  EXPECT_EQ(LowerBoundRows(data, 2, 0, 5, key2, 1), 2u);  // first row with a>=2
  EXPECT_EQ(UpperBoundRows(data, 2, 0, 5, key2, 1), 4u);  // past last a<=2
  Value key22[] = {2, 2};
  EXPECT_EQ(LowerBoundRows(data, 2, 0, 5, key22, 2), 3u);
}

TEST(StatsTest, DistinctAndPrefixCounts) {
  Relation r("R", Schema{"a", "b"});
  r.AddTuple({1, 1});
  r.AddTuple({1, 2});
  r.AddTuple({2, 1});
  r.AddTuple({2, 1});  // duplicate row
  RelationStatsMemo memo(r.NumTuples());
  EXPECT_EQ(memo.Get(r, {0}).distinct, 2u);       // V(R, (a))
  EXPECT_EQ(memo.Get(r, {1}).distinct, 2u);       // V(R, (b))
  EXPECT_EQ(memo.Get(r, {0, 1}).distinct, 3u);    // V(R, (a,b))
  EXPECT_EQ(memo.Get(r, {1, 0}).distinct, 3u);    // a set: order is moot
  EXPECT_EQ(memo.Get(r, {1}).max_frequency, 3u);  // b = 1 three times
  EXPECT_EQ(memo.Get(r, {0, 1}).max_frequency, 2u);
  EXPECT_EQ(memo.Get(r, {}).distinct, 1u);
  EXPECT_EQ(memo.counts(), 4u);  // {0}, {1}, {0,1}, {}: each counted once
  EXPECT_EQ(CountDistinctPrefixes(r, 1), 2u);
  EXPECT_EQ(CountDistinctPrefixes(r, 2), 3u);
  EXPECT_EQ(CountColumnSet(Relation("E", Schema{"a"}), {0}).distinct, 0u);
}

TEST(DictionaryTest, InternIsIdempotent) {
  Dictionary d;
  Value a = d.Intern("hello");
  Value b = d.Intern("world");
  EXPECT_NE(a, b);
  EXPECT_EQ(d.Intern("hello"), a);
  EXPECT_EQ(d.String(a), "hello");
  EXPECT_EQ(d.Lookup("nope"), -1);
}

TEST(CatalogTest, PutGetAndNames) {
  Catalog c;
  Relation r("R", Schema{"x"});
  r.AddTuple({1});
  c.Put(std::move(r));
  EXPECT_TRUE(c.Contains("R"));
  auto got = c.Get("R");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)->NumTuples(), 1u);
  EXPECT_FALSE(c.Get("S").ok());
  EXPECT_EQ(c.TotalTuples(), 1u);
}

}  // namespace
}  // namespace ptp
