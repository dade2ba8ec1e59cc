#include "tj/tributary_join.h"

#include <limits>
#include <sstream>

#include "common/hash.h"
#include "data/workloads.h"
#include "gtest/gtest.h"
#include "obs/counters.h"
#include "plan/strategies.h"
#include "runtime/parallel.h"
#include "test_util.h"

namespace ptp {
namespace {

TEST(TributaryJoinTest, PaperFigure2Example) {
  // Q(x,y,z) :- R(x,y), S(y,z), T(x,z)  on the Figure 2 data.
  Relation r("R", Schema{"x", "y"});
  for (auto [a, b] : std::vector<std::pair<Value, Value>>{
           {0, 1}, {2, 0}, {2, 3}, {2, 5}, {3, 4}, {4, 2}, {5, 6}}) {
    r.AddTuple({a, b});
  }
  Relation s("S", Schema{"y", "z"});
  for (auto [a, b] : std::vector<std::pair<Value, Value>>{
           {0, 1}, {2, 0}, {2, 3}, {2, 5}, {3, 4}, {4, 2}, {5, 6}}) {
    s.AddTuple({a, b});
  }
  Relation t("T", Schema{"x", "z"});
  for (auto [a, b] : std::vector<std::pair<Value, Value>>{
           {0, 2}, {1, 0}, {2, 4}, {3, 2}, {4, 3}, {5, 2}, {6, 5}}) {
    t.AddTuple({a, b});
  }
  TJMetrics metrics;
  auto result = TributaryJoin({&r, &s, &t}, {"x", "y", "z"}, {}, {}, &metrics);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The paper walks the algorithm to its first output (2, 3, 4).
  ASSERT_GE(result->NumTuples(), 1u);
  EXPECT_EQ(result->GetTuple(0), (Tuple{2, 3, 4}));
  EXPECT_GT(metrics.seeks, 0u);
  EXPECT_EQ(metrics.output_tuples, result->NumTuples());
}

TEST(TributaryJoinTest, MatchesBruteForceOnTriangles) {
  Rng rng(11);
  NormalizedQuery q;
  q.atoms.push_back(
      {{"x", "y"}, test::RandomBinaryRelation("R", {"x", "y"}, 60, 12, &rng)});
  q.atoms.push_back(
      {{"y", "z"}, test::RandomBinaryRelation("S", {"y", "z"}, 60, 12, &rng)});
  q.atoms.push_back(
      {{"z", "x"}, test::RandomBinaryRelation("T", {"z", "x"}, 60, 12, &rng)});
  q.head_vars = {"x", "y", "z"};
  Relation expected = test::BruteForceJoin(q);
  auto result = TributaryJoinQuery(q, {"x", "y", "z"});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->EqualsUnordered(expected));
}

TEST(TributaryJoinTest, ResultIndependentOfVariableOrder) {
  Rng rng(13);
  NormalizedQuery q;
  q.atoms.push_back(
      {{"x", "y"}, test::RandomBinaryRelation("R", {"x", "y"}, 80, 10, &rng)});
  q.atoms.push_back(
      {{"y", "z"}, test::RandomBinaryRelation("S", {"y", "z"}, 80, 10, &rng)});
  q.atoms.push_back(
      {{"z", "x"}, test::RandomBinaryRelation("T", {"z", "x"}, 80, 10, &rng)});
  q.head_vars = {"x", "y", "z"};

  std::vector<std::vector<std::string>> orders = {
      {"x", "y", "z"}, {"x", "z", "y"}, {"y", "x", "z"},
      {"y", "z", "x"}, {"z", "x", "y"}, {"z", "y", "x"}};
  auto first = TributaryJoinQuery(q, orders[0]);
  ASSERT_TRUE(first.ok());
  for (size_t i = 1; i < orders.size(); ++i) {
    auto other = TributaryJoinQuery(q, orders[i]);
    ASSERT_TRUE(other.ok());
    EXPECT_TRUE(first->EqualsUnordered(*other)) << "order #" << i;
  }
}

TEST(TributaryJoinTest, BinaryJoinIsMergeJoin) {
  Rng rng(17);
  NormalizedQuery q;
  q.atoms.push_back(
      {{"a", "b"}, test::RandomBinaryRelation("R", {"a", "b"}, 50, 8, &rng)});
  q.atoms.push_back(
      {{"b", "c"}, test::RandomBinaryRelation("S", {"b", "c"}, 50, 8, &rng)});
  q.head_vars = {"a", "b", "c"};
  Relation expected = test::BruteForceJoin(q);
  // head (a,b,c) != order (b,a,c), so the result is projected back to head.
  auto result = TributaryJoinQuery(q, {"b", "a", "c"});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->EqualsUnordered(expected));
}

TEST(TributaryJoinTest, PredicatesPruneDuringJoin) {
  Rng rng(19);
  NormalizedQuery q;
  q.atoms.push_back(
      {{"x", "y"}, test::RandomBinaryRelation("R", {"x", "y"}, 70, 9, &rng)});
  q.atoms.push_back(
      {{"y", "z"}, test::RandomBinaryRelation("S", {"y", "z"}, 70, 9, &rng)});
  q.head_vars = {"x", "y", "z"};
  q.predicates.push_back(
      Predicate{Term::Var("x"), CmpOp::kLt, Term::Var("z")});
  q.predicates.push_back(Predicate{Term::Var("y"), CmpOp::kGe,
                                   Term::Const(3)});
  Relation expected = test::BruteForceJoin(q);
  auto result = TributaryJoinQuery(q, {"x", "y", "z"});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->EqualsUnordered(expected));
}

TEST(TributaryJoinTest, ProjectionDeduplicates) {
  Relation r("R", Schema{"x", "y"});
  r.AddTuple({1, 10});
  r.AddTuple({1, 20});
  r.AddTuple({2, 10});
  Relation s("S", Schema{"y", "z"});
  s.AddTuple({10, 5});
  s.AddTuple({20, 5});
  NormalizedQuery q;
  q.atoms.push_back({{"x", "y"}, r});
  q.atoms.push_back({{"y", "z"}, s});
  q.head_vars = {"z"};
  auto result = TributaryJoinQuery(q, {"x", "y", "z"});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->NumTuples(), 1u);  // z=5 once (set semantics)
}

TEST(TributaryJoinTest, EmptyInputYieldsEmptyResult) {
  Relation r("R", Schema{"x", "y"});
  Relation s("S", Schema{"y", "z"});
  s.AddTuple({1, 2});
  auto result = TributaryJoin({&r, &s}, {"x", "y", "z"}, {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->NumTuples(), 0u);
}

TEST(TributaryJoinTest, OutputBudgetTriggersResourceExhausted) {
  // Cross-product-ish heavy query via a shared variable with one value.
  Relation r("R", Schema{"k", "a"});
  Relation s("S", Schema{"k", "b"});
  for (Value i = 0; i < 100; ++i) {
    r.AddTuple({0, i});
    s.AddTuple({0, i});
  }
  TJOptions opts;
  opts.max_output_rows = 50;
  auto result = TributaryJoin({&r, &s}, {"k", "a", "b"}, {}, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(TributaryJoinTest, SeekBudgetTriggersResourceExhausted) {
  Rng rng(23);
  Relation r = test::RandomBinaryRelation("R", {"x", "y"}, 200, 40, &rng);
  Relation s = test::RandomBinaryRelation("S", {"y", "z"}, 200, 40, &rng);
  TJOptions opts;
  opts.max_seeks = 10;
  auto result = TributaryJoin({&r, &s}, {"x", "y", "z"}, {}, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(TributaryJoinTest, MissingVariableInOrderIsInvalid) {
  Relation r("R", Schema{"x", "y"});
  r.AddTuple({1, 2});
  auto result = TributaryJoin({&r}, {"x"}, {});
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(TributaryJoinTest, VariableInNoInputIsInvalid) {
  Relation r("R", Schema{"x"});
  r.AddTuple({1});
  auto result = TributaryJoin({&r}, {"x", "ghost"}, {});
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Counter identity. The join's outputs, their order and every tj.* counter
// are pinned to golden values on Q1-Q8 at a small fixed scale, on both trie
// backends and through HC_TJ. The join driver, the leapfrog and the trie
// iterators may change how they do the work, never which work they do: any
// drift in a seek, next, open, up, gallop step or emitted row fails here.
// On a mismatch a test prints the measured row in table syntax; update a
// golden only with a change that means to change the work done.

WorkloadScale GoldenScale() {
  WorkloadScale scale;
  scale.twitter.num_nodes = 400;
  scale.twitter.num_edges = 2500;
  scale.twitter.zipf_exponent = 0.7;
  scale.freebase_scale = 0.08;
  scale.seed = 99;
  return scale;
}

// Order-sensitive digest of a relation's rows.
uint64_t InOrderHash(const Relation& rel) {
  uint64_t h = 0x51ed270b;
  for (Value v : rel.data()) {
    h = HashCombine(h, Mix64(static_cast<uint64_t>(v)));
  }
  return h;
}

// "name=value" for every tj.* counter, in name order.
std::string TJCounters(const CounterRegistry& registry) {
  std::ostringstream out;
  for (const auto& [name, value] : registry.CountersWithPrefix("tj.")) {
    out << (out.tellp() > 0 ? " " : "") << name << "=" << value;
  }
  return out.str();
}

struct TJRun {
  Status status;
  size_t rows = 0;  // rows emitted, also when the join fails
  uint64_t hash = 0;
  size_t seeks = 0;
  std::string counters;
};

TJRun RunDirect(const NormalizedQuery& q, TJBackend backend,
                size_t max_seeks = std::numeric_limits<size_t>::max()) {
  std::vector<const Relation*> inputs;
  for (const NormalizedAtom& atom : q.atoms) inputs.push_back(&atom.relation);
  TJOptions opts;
  opts.backend = backend;
  opts.max_seeks = max_seeks;
  CounterRegistry registry;
  runtime::ScopedQueryContext sinks({.counters = &registry});
  TJMetrics metrics;
  auto result = TributaryJoin(inputs, q.Variables(), q.predicates, opts,
                              &metrics);
  TJRun run;
  run.status = result.status();
  run.rows = metrics.output_tuples;
  run.hash = result.ok() ? InOrderHash(*result) : 0;
  run.seeks = metrics.seeks;
  run.counters = TJCounters(registry);
  return run;
}

struct GoldenDirect {
  int query;
  TJBackend backend;
  uint64_t hash;
  size_t rows;
  const char* counters;
  // Rows emitted before ResourceExhausted at max_seeks = seeks - 1 and at
  // max_seeks = seeks / 2 (kDone: the join completes within the budget).
  size_t rows_at_seeks_minus_1;
  size_t rows_at_half_seeks;
};

constexpr TJBackend kArr = TJBackend::kSortedArray;
constexpr TJBackend kBT = TJBackend::kBTree;
constexpr size_t kDone = std::numeric_limits<size_t>::max();

const GoldenDirect kGoldenDirect[] = {
    {1, kArr, 0x579133ae25f0cdb1ULL, 3315,
     "tj.gallop_steps=27897 tj.joins=1 tj.keys.x=367 tj.keys.y=2416 "
     "tj.keys.z=3315 tj.nexts=6098 tj.nexts.x=367 tj.nexts.y=2416 "
     "tj.nexts.z=3315 tj.opens=5568 tj.output_tuples=3315 tj.seeks=24997 "
     "tj.seeks.x=383 tj.seeks.y=2486 tj.seeks.z=22128 tj.ups=5568",
     3315, 1629},
    {1, kBT, 0x579133ae25f0cdb1ULL, 3315,
     "tj.gallop_steps=0 tj.joins=1 tj.keys.x=367 tj.keys.y=2416 "
     "tj.keys.z=3315 tj.nexts=6098 tj.nexts.x=367 tj.nexts.y=2416 "
     "tj.nexts.z=3315 tj.opens=5568 tj.output_tuples=3315 tj.seeks=31095 "
     "tj.seeks.x=383 tj.seeks.y=2486 tj.seeks.z=22128 tj.ups=5568",
     kDone, 1609},
    {2, kArr, 0xdb03f9bd0f4ff51cULL, 3488,
     "tj.gallop_steps=200283 tj.joins=1 tj.keys.p=3488 tj.keys.x=367 "
     "tj.keys.y=2416 tj.keys.z=3499 tj.nexts=9770 tj.nexts.p=3488 "
     "tj.nexts.x=367 tj.nexts.y=2416 tj.nexts.z=3499 tj.opens=18849 "
     "tj.output_tuples=3488 tj.seeks=113874 tj.seeks.p=70521 tj.seeks.x=757 "
     "tj.seeks.y=4935 tj.seeks.z=37661 tj.ups=18849",
     3488, 1731},
    {2, kBT, 0xdb03f9bd0f4ff51cULL, 3488,
     "tj.gallop_steps=0 tj.joins=1 tj.keys.p=3488 tj.keys.x=367 "
     "tj.keys.y=2416 tj.keys.z=3499 tj.nexts=9770 tj.nexts.p=3488 "
     "tj.nexts.x=367 tj.nexts.y=2416 tj.nexts.z=3499 tj.opens=18849 "
     "tj.output_tuples=3488 tj.seeks=123644 tj.seeks.p=70521 tj.seeks.x=757 "
     "tj.seeks.y=4935 tj.seeks.z=37661 tj.ups=18849",
     kDone, 1723},
    {3, kArr, 0xcb524441d57d14ebULL, 583,
     "tj.gallop_steps=3312 tj.joins=1 tj.keys.a1=1 tj.keys.a2=41 "
     "tj.keys.cast=583 tj.keys.film=41 tj.keys.p=583 tj.keys.p1=41 "
     "tj.keys.p2=22 tj.nexts=1312 tj.nexts.a1=1 tj.nexts.a2=41 "
     "tj.nexts.cast=583 tj.nexts.film=41 tj.nexts.p=583 tj.nexts.p1=41 "
     "tj.nexts.p2=22 tj.opens=918 tj.output_tuples=583 tj.seeks=1284 "
     "tj.seeks.a1=0 tj.seeks.a2=41 tj.seeks.cast=0 tj.seeks.film=76 "
     "tj.seeks.p=574 tj.seeks.p1=40 tj.seeks.p2=553 tj.ups=918",
     583, 332},
    {3, kBT, 0xcb524441d57d14ebULL, 583,
     "tj.gallop_steps=0 tj.joins=1 tj.keys.a1=1 tj.keys.a2=41 "
     "tj.keys.cast=583 tj.keys.film=41 tj.keys.p=583 tj.keys.p1=41 "
     "tj.keys.p2=22 tj.nexts=1312 tj.nexts.a1=1 tj.nexts.a2=41 "
     "tj.nexts.cast=583 tj.nexts.film=41 tj.nexts.p=583 tj.nexts.p1=41 "
     "tj.nexts.p2=22 tj.opens=918 tj.output_tuples=583 tj.seeks=2596 "
     "tj.seeks.a1=0 tj.seeks.a2=41 tj.seeks.cast=0 tj.seeks.film=76 "
     "tj.seeks.p=574 tj.seeks.p1=40 tj.seeks.p2=553 tj.ups=918",
     kDone, 332},
    {4, kArr, 0xd8c5f8fc4920ed07ULL, 7847,
     "tj.gallop_steps=1036710 tj.joins=1 tj.keys.a1=218 tj.keys.a2=8776 "
     "tj.keys.f1=880 tj.keys.f2=79941 tj.keys.p1=880 tj.keys.p2=8776 "
     "tj.keys.p3=79941 tj.keys.p4=7847 tj.nexts=187259 tj.nexts.a1=218 "
     "tj.nexts.a2=8776 tj.nexts.f1=880 tj.nexts.f2=79941 tj.nexts.p1=880 "
     "tj.nexts.p2=8776 tj.nexts.p3=79941 tj.nexts.p4=7847 tj.opens=239704 "
     "tj.output_tuples=7847 tj.seeks=358399 tj.seeks.a1=217 tj.seeks.a2=8352 "
     "tj.seeks.f1=841 tj.seeks.f2=74693 tj.seeks.p1=879 tj.seeks.p2=8737 "
     "tj.seeks.p3=79517 tj.seeks.p4=185163 tj.ups=239704",
     7847, 6086},
    {4, kBT, 0xd8c5f8fc4920ed07ULL, 7847,
     "tj.gallop_steps=0 tj.joins=1 tj.keys.a1=218 tj.keys.a2=8776 "
     "tj.keys.f1=880 tj.keys.f2=79941 tj.keys.p1=880 tj.keys.p2=8776 "
     "tj.keys.p3=79941 tj.keys.p4=7847 tj.nexts=187259 tj.nexts.a1=218 "
     "tj.nexts.a2=8776 tj.nexts.f1=880 tj.nexts.f2=79941 tj.nexts.p1=880 "
     "tj.nexts.p2=8776 tj.nexts.p3=79941 tj.nexts.p4=7847 tj.opens=239704 "
     "tj.output_tuples=7847 tj.seeks=545658 tj.seeks.a1=217 tj.seeks.a2=8352 "
     "tj.seeks.f1=841 tj.seeks.f2=74693 tj.seeks.p1=879 tj.seeks.p2=8737 "
     "tj.seeks.p3=79517 tj.seeks.p4=185163 tj.ups=239704",
     kDone, 6252},
    {5, kArr, 0x4e7bbce1c8a27f27ULL, 53094,
     "tj.gallop_steps=376633 tj.joins=1 tj.keys.p=53094 tj.keys.x=367 "
     "tj.keys.y=2416 tj.keys.z=44017 tj.nexts=99894 tj.nexts.p=53094 "
     "tj.nexts.x=367 tj.nexts.y=2416 tj.nexts.z=44017 tj.opens=93602 "
     "tj.output_tuples=53094 tj.seeks=416776 tj.seeks.p=368866 tj.seeks.x=383 "
     "tj.seeks.y=2486 tj.seeks.z=45041 tj.ups=93602",
     53094, 25392},
    {5, kBT, 0x4e7bbce1c8a27f27ULL, 53094,
     "tj.gallop_steps=0 tj.joins=1 tj.keys.p=53094 tj.keys.x=367 "
     "tj.keys.y=2416 tj.keys.z=44017 tj.nexts=99894 tj.nexts.p=53094 "
     "tj.nexts.x=367 tj.nexts.y=2416 tj.nexts.z=44017 tj.opens=93602 "
     "tj.output_tuples=53094 tj.seeks=516670 tj.seeks.p=368866 tj.seeks.x=383 "
     "tj.seeks.y=2486 tj.seeks.z=45041 tj.ups=93602",
     kDone, 25339},
    {6, kArr, 0xc667b9a590536eb7ULL, 16408,
     "tj.gallop_steps=152968 tj.joins=1 tj.keys.p=16408 tj.keys.x=367 "
     "tj.keys.y=2416 tj.keys.z=3499 tj.nexts=22690 tj.nexts.p=16408 "
     "tj.nexts.x=367 tj.nexts.y=2416 tj.nexts.z=3499 tj.opens=14983 "
     "tj.output_tuples=16408 tj.seeks=114036 tj.seeks.p=73132 tj.seeks.x=757 "
     "tj.seeks.y=2486 tj.seeks.z=37661 tj.ups=14983",
     16408, 8071},
    {6, kBT, 0xc667b9a590536eb7ULL, 16408,
     "tj.gallop_steps=0 tj.joins=1 tj.keys.p=16408 tj.keys.x=367 "
     "tj.keys.y=2416 tj.keys.z=3499 tj.nexts=22690 tj.nexts.p=16408 "
     "tj.nexts.x=367 tj.nexts.y=2416 tj.nexts.z=3499 tj.opens=14983 "
     "tj.output_tuples=16408 tj.seeks=136726 tj.seeks.p=73132 tj.seeks.x=757 "
     "tj.seeks.y=2486 tj.seeks.z=37661 tj.ups=14983",
     kDone, 8057},
    {7, kArr, 0xb0b3debf35eeb3a5ULL, 16,
     "tj.gallop_steps=15 tj.joins=1 tj.keys.a=61 tj.keys.aw=1 tj.keys.h=32 "
     "tj.keys.y=61 tj.nexts=155 tj.nexts.a=61 tj.nexts.aw=1 tj.nexts.h=32 "
     "tj.nexts.y=61 tj.opens=98 tj.output_tuples=16 tj.seeks=86 tj.seeks.a=0 "
     "tj.seeks.aw=0 tj.seeks.h=86 tj.seeks.y=0 tj.ups=98",
     16, 3},
    {7, kBT, 0xb0b3debf35eeb3a5ULL, 16,
     "tj.gallop_steps=0 tj.joins=1 tj.keys.a=61 tj.keys.aw=1 tj.keys.h=32 "
     "tj.keys.y=61 tj.nexts=155 tj.nexts.a=61 tj.nexts.aw=1 tj.nexts.h=32 "
     "tj.nexts.y=61 tj.opens=98 tj.output_tuples=16 tj.seeks=241 tj.seeks.a=0 "
     "tj.seeks.aw=0 tj.seeks.h=86 tj.seeks.y=0 tj.ups=98",
     kDone, 3},
    {8, kArr, 0x22b6c2952b392b6ULL, 2207,
     "tj.gallop_steps=107115 tj.joins=1 tj.keys.a=218 tj.keys.d=2207 "
     "tj.keys.f1=4915 tj.keys.f2=3308 tj.keys.p1=880 tj.keys.p2=7782 "
     "tj.nexts=19310 tj.nexts.a=218 tj.nexts.d=2207 tj.nexts.f1=4915 "
     "tj.nexts.f2=3308 tj.nexts.p1=880 tj.nexts.p2=7782 tj.opens=34208 "
     "tj.output_tuples=2207 tj.seeks=30592 tj.seeks.a=217 tj.seeks.d=5397 "
     "tj.seeks.f1=10158 tj.seeks.f2=6200 tj.seeks.p1=879 tj.seeks.p2=7741 "
     "tj.ups=34208",
     2207, 787},
    {8, kBT, 0x22b6c2952b392b6ULL, 2207,
     "tj.gallop_steps=0 tj.joins=1 tj.keys.a=218 tj.keys.d=2207 "
     "tj.keys.f1=4915 tj.keys.f2=3308 tj.keys.p1=880 tj.keys.p2=7782 "
     "tj.nexts=19310 tj.nexts.a=218 tj.nexts.d=2207 tj.nexts.f1=4915 "
     "tj.nexts.f2=3308 tj.nexts.p1=880 tj.nexts.p2=7782 tj.opens=34208 "
     "tj.output_tuples=2207 tj.seeks=49902 tj.seeks.a=217 tj.seeks.d=5397 "
     "tj.seeks.f1=10158 tj.seeks.f2=6200 tj.seeks.p1=879 tj.seeks.p2=7741 "
     "tj.ups=34208",
     kDone, 808},
};

size_t RowsAtBudget(const NormalizedQuery& q, TJBackend backend,
                    size_t max_seeks) {
  TJRun run = RunDirect(q, backend, max_seeks);
  if (run.status.ok()) return kDone;
  EXPECT_EQ(run.status.code(), StatusCode::kResourceExhausted)
      << run.status.ToString();
  return run.rows;
}

std::string BudgetLiteral(size_t rows) {
  return rows == kDone ? "kDone" : std::to_string(rows);
}

TEST(TributaryJoinGolden, DirectJoinMatchesGoldenOnBothBackends) {
  WorkloadFactory factory(GoldenScale());
  for (const GoldenDirect& g : kGoldenDirect) {
    SCOPED_TRACE("Q" + std::to_string(g.query) +
                 (g.backend == kArr ? " array" : " btree"));
    auto wl = factory.Make(g.query);
    ASSERT_TRUE(wl.ok()) << wl.status().ToString();
    TJRun run = RunDirect(wl->normalized, g.backend);
    ASSERT_TRUE(run.status.ok()) << run.status.ToString();
    // The seek budget fails at the same point: the exact count passes with
    // the same output; smaller budgets stop after the golden row counts.
    TJRun exact = RunDirect(wl->normalized, g.backend, run.seeks);
    ASSERT_TRUE(exact.status.ok()) << exact.status.ToString();
    EXPECT_EQ(exact.hash, run.hash);
    const size_t at_minus_1 =
        RowsAtBudget(wl->normalized, g.backend, run.seeks - 1);
    const size_t at_half = RowsAtBudget(wl->normalized, g.backend,
                                        run.seeks / 2);
    std::ostringstream row;
    row << "{" << g.query << ", " << (g.backend == kArr ? "kArr" : "kBT")
        << ", 0x" << std::hex << run.hash << std::dec << "ULL, " << run.rows
        << ",\n \"" << run.counters << "\",\n " << BudgetLiteral(at_minus_1)
        << ", " << BudgetLiteral(at_half) << "},";
    EXPECT_EQ(run.hash, g.hash) << row.str();
    EXPECT_EQ(run.rows, g.rows) << row.str();
    EXPECT_EQ(run.counters, g.counters) << row.str();
    EXPECT_EQ(at_minus_1, g.rows_at_seeks_minus_1) << row.str();
    EXPECT_EQ(at_half, g.rows_at_half_seeks) << row.str();
  }
}

struct GoldenHCTJ {
  int query;
  uint64_t hash;
  size_t rows;
  const char* counters;
};

const GoldenHCTJ kGoldenHCTJ[] = {
    {1, 0xfb6e53aa1844a5eULL, 3315,
     "tj.gallop_steps=38549 tj.joins=16 tj.keys.x=1805 tj.keys.y=6357 "
     "tj.keys.z=3315 tj.nexts=11477 tj.nexts.x=1805 tj.nexts.y=6357 "
     "tj.nexts.z=3315 tj.opens=16356 tj.output_tuples=3315 tj.seeks=31460 "
     "tj.seeks.x=2220 tj.seeks.y=9563 tj.seeks.z=19677 tj.ups=16356"},
    {2, 0xa266d5205fd891bdULL, 3488,
     "tj.gallop_steps=307327 tj.joins=16 tj.keys.p=3488 tj.keys.x=2124 "
     "tj.keys.y=7914 tj.keys.z=6738 tj.nexts=20264 tj.nexts.p=3488 "
     "tj.nexts.x=2124 tj.nexts.y=7914 tj.nexts.z=6738 tj.opens=50376 "
     "tj.output_tuples=3488 tj.seeks=162289 tj.seeks.p=68454 tj.seeks.x=5055 "
     "tj.seeks.y=18923 tj.seeks.z=69857 tj.ups=50376"},
    {3, 0x47d247b2226eaf9cULL, 78,
     "tj.gallop_steps=5382 tj.joins=16 tj.keys.a1=16 tj.keys.a2=155 "
     "tj.keys.cast=583 tj.keys.film=155 tj.keys.p=583 tj.keys.p1=164 "
     "tj.keys.p2=44 tj.nexts=1700 tj.nexts.a1=16 tj.nexts.a2=155 "
     "tj.nexts.cast=583 tj.nexts.film=155 tj.nexts.p=583 tj.nexts.p1=164 "
     "tj.nexts.p2=44 tj.opens=1847 tj.output_tuples=583 tj.seeks=2635 "
     "tj.seeks.a2=155 tj.seeks.film=313 tj.seeks.p=568 tj.seeks.p1=452 "
     "tj.seeks.p2=1147 tj.ups=1847"},
    {4, 0x74d54167605365b1ULL, 840,
     "tj.gallop_steps=1954385 tj.joins=16 tj.keys.a1=2388 tj.keys.a2=29303 "
     "tj.keys.f1=6152 tj.keys.f2=139561 tj.keys.p1=6424 tj.keys.p2=32056 "
     "tj.keys.p3=146565 tj.keys.p4=7847 tj.nexts=370296 tj.nexts.a1=2388 "
     "tj.nexts.a2=29303 tj.nexts.f1=6152 tj.nexts.f2=139561 tj.nexts.p1=6424 "
     "tj.nexts.p2=32056 tj.nexts.p3=146565 tj.nexts.p4=7847 tj.opens=519946 "
     "tj.output_tuples=7847 tj.seeks=549941 tj.seeks.a1=2780 "
     "tj.seeks.a2=33202 tj.seeks.f1=6416 tj.seeks.f2=143416 tj.seeks.p1=6408 "
     "tj.seeks.p2=31828 tj.seeks.p3=145011 tj.seeks.p4=180880 tj.ups=519946"},
    {5, 0xa65275cafa57db0eULL, 53094,
     "tj.gallop_steps=452744 tj.joins=16 tj.keys.p=53094 tj.keys.x=2332 "
     "tj.keys.y=8547 tj.keys.z=78203 tj.nexts=142176 tj.nexts.p=53094 "
     "tj.nexts.x=2332 tj.nexts.y=8547 tj.nexts.z=78203 tj.opens=178196 "
     "tj.output_tuples=53094 tj.seeks=456284 tj.seeks.p=354928 "
     "tj.seeks.x=2722 tj.seeks.y=10049 tj.seeks.z=88585 tj.ups=178196"},
    {6, 0xbcc641a97a63a626ULL, 16408,
     "tj.gallop_steps=157447 tj.joins=16 tj.keys.p=16408 tj.keys.x=990 "
     "tj.keys.y=6626 tj.keys.z=3499 tj.nexts=27523 tj.nexts.p=16408 "
     "tj.nexts.x=990 tj.nexts.y=6626 tj.nexts.z=3499 tj.opens=28904 "
     "tj.output_tuples=16408 tj.seeks=120138 tj.seeks.p=73132 tj.seeks.x=2071 "
     "tj.seeks.y=9986 tj.seeks.z=34949 tj.ups=28904"},
    {7, 0x741f622ffb8a4ad6ULL, 15,
     "tj.gallop_steps=7 tj.joins=16 tj.keys.a=61 tj.keys.aw=15 tj.keys.h=32 "
     "tj.keys.y=61 tj.nexts=169 tj.nexts.a=61 tj.nexts.aw=15 tj.nexts.h=32 "
     "tj.nexts.y=61 tj.opens=169 tj.output_tuples=16 tj.seeks=68 "
     "tj.seeks.h=68 tj.ups=169"},
    {8, 0x5623709f7b46e048ULL, 912,
     "tj.gallop_steps=112721 tj.joins=16 tj.keys.a=1329 tj.keys.d=2207 "
     "tj.keys.f1=4915 tj.keys.f2=3308 tj.keys.p1=2669 tj.keys.p2=7782 "
     "tj.nexts=22210 tj.nexts.a=1329 tj.nexts.d=2207 tj.nexts.f1=4915 "
     "tj.nexts.f2=3308 tj.nexts.p1=2669 tj.nexts.p2=7782 tj.opens=40038 "
     "tj.output_tuples=2207 tj.seeks=33985 tj.seeks.a=1953 tj.seeks.d=5397 "
     "tj.seeks.f1=10158 tj.seeks.f2=6200 tj.seeks.p1=2653 tj.seeks.p2=7624 "
     "tj.ups=40038"},
};

TEST(TributaryJoinGolden, HCTJMatchesGolden) {
  WorkloadFactory factory(GoldenScale());
  runtime::SetThreads(1);
  for (const GoldenHCTJ& g : kGoldenHCTJ) {
    SCOPED_TRACE("Q" + std::to_string(g.query));
    auto wl = factory.Make(g.query);
    ASSERT_TRUE(wl.ok()) << wl.status().ToString();
    StrategyOptions opts;
    opts.num_workers = 16;
    opts.var_order = wl->normalized.Variables();
    CounterRegistry registry;
    runtime::ScopedQueryContext sinks({.counters = &registry});
    auto result = RunStrategy(wl->normalized, ShuffleKind::kHypercube,
                              JoinKind::kTributary, opts);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const uint64_t hash = InOrderHash(result->output);
    const std::string counters = TJCounters(registry);
    std::ostringstream row;
    row << "{" << g.query << ", 0x" << std::hex << hash << std::dec << "ULL, "
        << result->output.NumTuples() << ",\n \"" << counters << "\"},";
    EXPECT_EQ(hash, g.hash) << row.str();
    EXPECT_EQ(result->output.NumTuples(), g.rows) << row.str();
    EXPECT_EQ(counters, g.counters) << row.str();
  }
  runtime::SetThreads(0);
}

// Property sweep: random 4-cycle queries across seeds match brute force.
class TJRandomSweep : public ::testing::TestWithParam<int> {};

TEST_P(TJRandomSweep, FourCycleMatchesBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  NormalizedQuery q;
  q.atoms.push_back(
      {{"x", "y"}, test::RandomBinaryRelation("R", {"x", "y"}, 40, 8, &rng)});
  q.atoms.push_back(
      {{"y", "z"}, test::RandomBinaryRelation("S", {"y", "z"}, 40, 8, &rng)});
  q.atoms.push_back(
      {{"z", "p"}, test::RandomBinaryRelation("T", {"z", "p"}, 40, 8, &rng)});
  q.atoms.push_back(
      {{"p", "x"}, test::RandomBinaryRelation("K", {"p", "x"}, 40, 8, &rng)});
  q.head_vars = {"x", "y", "z", "p"};
  Relation expected = test::BruteForceJoin(q);
  auto result = TributaryJoinQuery(q, {"x", "y", "z", "p"});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->EqualsUnordered(expected));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TJRandomSweep, ::testing::Range(0, 12));

}  // namespace
}  // namespace ptp
