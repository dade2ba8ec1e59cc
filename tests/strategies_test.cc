#include "plan/strategies.h"

#include <memory>
#include <sstream>
#include <string>

#include "common/hash.h"
#include "data/workloads.h"
#include "exec/lifecycle.h"
#include "fault/fault.h"
#include "gtest/gtest.h"
#include "obs/counters.h"
#include "obs/profile.h"
#include "obs/profile_report.h"
#include "obs/resource.h"
#include "query/parser.h"
#include "runtime/parallel.h"
#include "test_util.h"

namespace ptp {
namespace {

// Builds a normalized query over freshly generated random relations.
NormalizedQuery RandomQuery(const char* text, uint64_t seed, size_t tuples,
                            Value domain) {
  Rng rng(seed);
  auto parsed = ParseDatalog(text, nullptr);
  PTP_CHECK(parsed.ok()) << parsed.status().ToString();
  Catalog catalog;
  for (const Atom& atom : parsed->atoms()) {
    if (!catalog.Contains(atom.relation)) {
      catalog.Put(test::RandomBinaryRelation(
          atom.relation, atom.Variables(), tuples, domain, &rng));
    }
  }
  auto nq = Normalize(*parsed, catalog);
  PTP_CHECK(nq.ok()) << nq.status().ToString();
  return std::move(nq).value();
}

Relation ExpectedOutput(const NormalizedQuery& q) {
  Relation full = test::BruteForceJoin(q);
  Relation projected("expected", Schema(q.head_vars));
  {
    std::vector<int> cols;
    for (const std::string& v : q.head_vars) {
      cols.push_back(full.schema().IndexOf(v));
    }
    projected = full.PermuteColumns(cols, "expected");
  }
  if (q.head_vars.size() < q.Variables().size()) {
    projected.SortAndDedup();
  }
  return projected;
}

struct StrategyCase {
  ShuffleKind shuffle;
  JoinKind join;
};

class AllStrategiesAgree
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(AllStrategiesAgree, TriangleQuery) {
  const auto [seed, workers] = GetParam();
  NormalizedQuery q = RandomQuery(
      "T(x,y,z) :- R(x,y), S(y,z), U(z,x).", static_cast<uint64_t>(seed),
      100, 14);
  Relation expected = ExpectedOutput(q);
  StrategyOptions opts;
  opts.num_workers = workers;
  for (const auto& [shuffle, join] : AllStrategies()) {
    auto result = RunStrategy(q, shuffle, join, opts);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_FALSE(result->metrics.failed)
        << StrategyName(shuffle, join) << ": "
        << result->metrics.fail_reason;
    EXPECT_TRUE(result->output.EqualsUnordered(expected))
        << StrategyName(shuffle, join) << " wrong result ("
        << result->output.NumTuples() << " vs " << expected.NumTuples()
        << " tuples), workers=" << workers;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndWorkers, AllStrategiesAgree,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(1, 3, 8, 16)));

TEST(StrategiesTest, AcyclicPathQueryAgrees) {
  NormalizedQuery q = RandomQuery(
      "P(x,w) :- R(x,y), S(y,z), U(z,w).", 77, 120, 12);
  Relation expected = ExpectedOutput(q);
  StrategyOptions opts;
  opts.num_workers = 8;
  for (const auto& [shuffle, join] : AllStrategies()) {
    auto result = RunStrategy(q, shuffle, join, opts);
    ASSERT_TRUE(result.ok());
    ASSERT_FALSE(result->metrics.failed);
    EXPECT_TRUE(result->output.EqualsUnordered(expected))
        << StrategyName(shuffle, join);
  }
}

TEST(StrategiesTest, PredicateQueryAgrees) {
  NormalizedQuery q = RandomQuery(
      "Q(x,z) :- R(x,y), S(y,z), x < z.", 31, 120, 12);
  Relation expected = ExpectedOutput(q);
  StrategyOptions opts;
  opts.num_workers = 6;
  for (const auto& [shuffle, join] : AllStrategies()) {
    auto result = RunStrategy(q, shuffle, join, opts);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->output.EqualsUnordered(expected))
        << StrategyName(shuffle, join);
  }
}

TEST(StrategiesTest, FourCliqueAgrees) {
  NormalizedQuery q = RandomQuery(
      "C(x,y,z,p) :- R(x,y), S(y,z), U(z,p), P(p,x), K(x,z), L(y,p).", 5,
      90, 10);
  Relation expected = ExpectedOutput(q);
  StrategyOptions opts;
  opts.num_workers = 16;
  for (const auto& [shuffle, join] : AllStrategies()) {
    auto result = RunStrategy(q, shuffle, join, opts);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->output.EqualsUnordered(expected))
        << StrategyName(shuffle, join);
  }
}

TEST(StrategiesTest, SingleAtomQueryProjects) {
  NormalizedQuery q = RandomQuery("Q(x) :- R(x,y).", 8, 50, 10);
  Relation expected = ExpectedOutput(q);
  StrategyOptions opts;
  opts.num_workers = 4;
  auto result =
      RunStrategy(q, ShuffleKind::kRegular, JoinKind::kHashJoin, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->output.EqualsUnordered(expected));
}

TEST(StrategiesTest, HypercubeShufflesLessThanBroadcastOnTriangles) {
  // The headline claim of Q1: HC moves ~4x less data than RS and ~10x less
  // than BR when intermediate results are large. With random (not skewed)
  // data RS can be competitive, so only assert HC < BR here.
  NormalizedQuery q = RandomQuery(
      "T(x,y,z) :- R(x,y), S(y,z), U(z,x).", 10, 400, 25);
  StrategyOptions opts;
  opts.num_workers = 16;
  auto hc = RunStrategy(q, ShuffleKind::kHypercube, JoinKind::kTributary, opts);
  auto br = RunStrategy(q, ShuffleKind::kBroadcast, JoinKind::kTributary, opts);
  ASSERT_TRUE(hc.ok() && br.ok());
  EXPECT_LT(hc->metrics.TuplesShuffled(), br->metrics.TuplesShuffled());
}

TEST(StrategiesTest, BudgetExhaustionReportsFailNotError) {
  // A query with a huge intermediate and a tiny budget must FAIL gracefully.
  NormalizedQuery q = RandomQuery(
      "T(x,y,z) :- R(x,y), S(y,z), U(z,x).", 12, 300, 6);  // dense -> big
  StrategyOptions opts;
  opts.num_workers = 4;
  opts.intermediate_budget = 100;
  auto rs = RunStrategy(q, ShuffleKind::kRegular, JoinKind::kHashJoin, opts);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_TRUE(rs->metrics.failed);
  EXPECT_FALSE(rs->metrics.fail_reason.empty());
  // The stage that aborted the run is marked failed (and only that one).
  ASSERT_FALSE(rs->metrics.stages.empty());
  EXPECT_TRUE(rs->metrics.stages.back().failed);
  for (size_t i = 0; i + 1 < rs->metrics.stages.size(); ++i) {
    EXPECT_FALSE(rs->metrics.stages[i].failed);
  }
}

TEST(StrategiesTest, AbortSemanticsIdenticalAcrossThreadCounts) {
  // A failing run must reach the same verdict — same fail reason, same
  // booked stages, same failed-stage marking — whether the workers ran
  // serialized or concurrently.
  NormalizedQuery q = RandomQuery(
      "T(x,y,z) :- R(x,y), S(y,z), U(z,x).", 12, 300, 6);
  StrategyOptions opts;
  opts.num_workers = 8;
  opts.intermediate_budget = 100;
  runtime::SetThreads(1);
  auto serial = RunStrategy(q, ShuffleKind::kRegular, JoinKind::kHashJoin,
                            opts);
  runtime::SetThreads(8);
  auto parallel = RunStrategy(q, ShuffleKind::kRegular, JoinKind::kHashJoin,
                              opts);
  runtime::SetThreads(0);
  ASSERT_TRUE(serial.ok() && parallel.ok());
  EXPECT_TRUE(serial->metrics.failed);
  EXPECT_EQ(serial->metrics.failed, parallel->metrics.failed);
  EXPECT_EQ(serial->metrics.fail_reason, parallel->metrics.fail_reason);
  ASSERT_EQ(serial->metrics.stages.size(), parallel->metrics.stages.size());
  for (size_t i = 0; i < serial->metrics.stages.size(); ++i) {
    EXPECT_EQ(serial->metrics.stages[i].failed,
              parallel->metrics.stages[i].failed);
    EXPECT_EQ(serial->metrics.stages[i].output_tuples,
              parallel->metrics.stages[i].output_tuples);
  }
}

TEST(StrategiesTest, SortBudgetFailsTributaryButNotHashJoin) {
  // RS_TJ must sort the (large) intermediate; RS_HJ streams it. With a sort
  // budget squeezed between the two, only RS_TJ FAILs — the paper's Q4/Q5
  // asymmetry.
  NormalizedQuery q = RandomQuery(
      "P(x,w) :- R(x,y), S(y,z), U(z,w).", 14, 300, 8);
  StrategyOptions opts;
  opts.num_workers = 4;
  opts.intermediate_budget = 10'000'000;
  opts.sort_budget = 10;  // absurdly small: any intermediate sort fails
  auto rs_tj =
      RunStrategy(q, ShuffleKind::kRegular, JoinKind::kTributary, opts);
  auto rs_hj =
      RunStrategy(q, ShuffleKind::kRegular, JoinKind::kHashJoin, opts);
  ASSERT_TRUE(rs_tj.ok() && rs_hj.ok());
  EXPECT_TRUE(rs_tj->metrics.failed);
  EXPECT_FALSE(rs_hj->metrics.failed);
}

TEST(StrategiesTest, ExplicitJoinOrderIsHonored) {
  NormalizedQuery q = RandomQuery(
      "T(x,y,z) :- R(x,y), S(y,z), U(z,x).", 15, 80, 10);
  StrategyOptions opts;
  opts.num_workers = 4;
  opts.join_order = {2, 1, 0};
  auto result =
      RunStrategy(q, ShuffleKind::kRegular, JoinKind::kHashJoin, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->join_order_used, (std::vector<int>{2, 1, 0}));
  EXPECT_TRUE(result->output.EqualsUnordered(ExpectedOutput(q)));
}

TEST(StrategiesTest, ExplicitVarOrderIsHonored) {
  NormalizedQuery q = RandomQuery(
      "T(x,y,z) :- R(x,y), S(y,z), U(z,x).", 16, 80, 10);
  StrategyOptions opts;
  opts.num_workers = 4;
  opts.var_order = {"z", "x", "y"};
  auto result =
      RunStrategy(q, ShuffleKind::kHypercube, JoinKind::kTributary, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->var_order_used, opts.var_order);
  EXPECT_TRUE(result->output.EqualsUnordered(ExpectedOutput(q)));
}

TEST(StrategiesTest, RoundDownConfigStillCorrect) {
  // Sec. 4's motivating pathology: the 4-clique on 15 workers has optimal
  // fractional shares 15^(1/4) ~= 1.96 per variable; rounding down uses a
  // single cell — no parallelism — yet the result must stay correct.
  // Equal cardinalities (a self-join) make the LP optimum the symmetric
  // e_i = 1/4 point.
  Rng rng(18);
  Relation edges =
      test::RandomBinaryRelation("E", {"a", "b"}, 80, 10, &rng);
  Catalog catalog;
  for (const char* alias : {"R", "S", "U", "P", "K", "L"}) {
    Relation copy = edges;
    copy.set_name(alias);
    catalog.Put(std::move(copy));
  }
  auto parsed = ParseDatalog(
      "C(x,y,z,p) :- R(x,y), S(y,z), U(z,p), P(p,x), K(x,z), L(y,p).",
      nullptr);
  ASSERT_TRUE(parsed.ok());
  auto nq = Normalize(*parsed, catalog);
  ASSERT_TRUE(nq.ok());
  NormalizedQuery q = std::move(nq).value();
  StrategyOptions opts;
  opts.num_workers = 15;
  opts.hc_round_down = true;
  auto result =
      RunStrategy(q, ShuffleKind::kHypercube, JoinKind::kTributary, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->output.EqualsUnordered(ExpectedOutput(q)));
  EXPECT_EQ(result->hc_config.NumCells(), 1);

  // Algorithm 1 on the same instance parallelizes (uses > 1 cell).
  opts.hc_round_down = false;
  auto ours =
      RunStrategy(q, ShuffleKind::kHypercube, JoinKind::kTributary, opts);
  ASSERT_TRUE(ours.ok());
  EXPECT_GT(ours->hc_config.NumCells(), 1);
  EXPECT_TRUE(ours->output.EqualsUnordered(ExpectedOutput(q)));
}

TEST(StrategiesTest, SkewAwareRegularShuffleStillCorrect) {
  NormalizedQuery q = RandomQuery(
      "T(x,y,z) :- R(x,y), S(y,z), U(z,x).", 21, 150, 8);  // dense: hubs
  StrategyOptions opts;
  opts.num_workers = 8;
  auto plain =
      RunStrategy(q, ShuffleKind::kRegular, JoinKind::kHashJoin, opts);
  opts.rs_skew_aware = true;
  auto aware =
      RunStrategy(q, ShuffleKind::kRegular, JoinKind::kHashJoin, opts);
  ASSERT_TRUE(plain.ok() && aware.ok());
  ASSERT_FALSE(plain->metrics.failed);
  ASSERT_FALSE(aware->metrics.failed);
  EXPECT_TRUE(aware->output.EqualsUnordered(plain->output));
}

TEST(StrategiesTest, MetricsArePopulated) {
  NormalizedQuery q = RandomQuery(
      "T(x,y,z) :- R(x,y), S(y,z), U(z,x).", 19, 150, 14);
  StrategyOptions opts;
  opts.num_workers = 8;
  auto result =
      RunStrategy(q, ShuffleKind::kHypercube, JoinKind::kTributary, opts);
  ASSERT_TRUE(result.ok());
  const QueryMetrics& m = result->metrics;
  EXPECT_FALSE(m.failed);
  EXPECT_EQ(m.shuffles.size(), 3u);  // one HCS per atom
  for (const ShuffleMetrics& s : m.shuffles) EXPECT_GT(s.tuples_sent, 0u);
  EXPECT_GT(m.TuplesShuffled(), 0u);
  // One booked barrier: the local Tributary join, clean on the first
  // attempt, producing exactly the gathered output (HC emits every
  // triangle on one worker, and the head keeps every variable).
  ASSERT_EQ(m.stages.size(), 1u);
  const StageMetrics& stage = m.stages[0];
  EXPECT_EQ(stage.label, "local TJ");
  EXPECT_FALSE(stage.failed);
  EXPECT_FALSE(stage.degraded);
  EXPECT_EQ(stage.retries, 0u);
  EXPECT_EQ(stage.output_tuples, result->output.NumTuples());
  EXPECT_TRUE(m.degradations.empty());
  EXPECT_EQ(m.backoff_seconds, 0.0);
  // The query wall clock is the sum of the booked shuffles and barriers.
  EXPECT_GT(m.wall_seconds, 0.0);
  EXPECT_GE(m.wall_seconds, stage.wall_seconds);
  // Every logical worker has a time account of each kind.
  EXPECT_EQ(m.worker_seconds.size(), 8u);
  EXPECT_EQ(m.worker_sort_seconds.size(), 8u);
  EXPECT_EQ(m.worker_join_seconds.size(), 8u);
  EXPECT_EQ(m.output_tuples, result->output.NumTuples());
}

// ---------------------------------------------------------------------------
// StrategyGolden: everything a run reports, pinned for Q1-Q8 x the six
// strategies under five schedules, with a meter and a lifecycle installed
// as on a served query. One digest per (query, strategy, schedule) covers
// the ordered stage and shuffle lists (labels, outputs, retries, failed and
// degraded flags), degradations, fail reason and code, the counter
// snapshot, peak and charged bytes, lifecycle polls, and the in-order
// output. A refactor of the strategy layer must leave every digest as is.
// ---------------------------------------------------------------------------

WorkloadScale GoldenScale() {
  WorkloadScale scale;
  scale.twitter.num_nodes = 400;
  scale.twitter.num_edges = 2500;
  scale.twitter.zipf_exponent = 0.7;
  scale.freebase_scale = 0.08;
  scale.seed = 99;
  return scale;
}

std::string GoldenAtomLabel(const NormalizedAtom& atom) {
  std::string label = atom.relation.name() + "(";
  for (size_t i = 0; i < atom.variables.size(); ++i) {
    if (i > 0) label += ", ";
    label += atom.variables[i];
  }
  return label + ")";
}

enum GoldenSchedule {
  kClean,
  kLocalTJDegrade,  // persistent operator error in "local TJ"
  kRoundDegrade,    // persistent crash in round "join_1"
  kHCFallback,      // persistent drop on the first HyperCube exchange
  kCancelAt3,       // CancelAfterPolls(3)
  kNumSchedules,
};

std::string GoldenFaults(GoldenSchedule schedule, const NormalizedQuery& q) {
  switch (schedule) {
    case kLocalTJDegrade:
      return "err@attempt=*,stage=local TJ";
    case kRoundDegrade:
      return "crash@attempt=*,stage=join_1";
    case kHCFallback:
      return "drop@attempt=*,label=HCS " + GoldenAtomLabel(q.atoms[0]);
    default:
      return "";
  }
}

uint64_t HashText(const std::string& text) {
  uint64_t h = 0x9ae16a3b2f90404fULL;
  for (unsigned char c : text) h = HashCombine(h, c);
  return HashCombine(h, text.size());
}

uint64_t DigestTextAndOutput(const std::string& text, const Relation& output) {
  uint64_t h = HashText(text);
  h = HashCombine(h, output.arity());
  for (Value v : output.data()) {
    h = HashCombine(h, Mix64(static_cast<uint64_t>(v)));
  }
  return h;
}

// Runs one strategy under `schedule` and digests its full report.
uint64_t GoldenDigest(const NormalizedQuery& q, ShuffleKind shuffle,
                      JoinKind join, GoldenSchedule schedule) {
  StrategyOptions opts;
  opts.num_workers = 16;
  CounterRegistry registry;
  ResourceMeter meter;
  QueryLifecycle lifecycle;
  if (schedule == kCancelAt3) lifecycle.CancelAfterPolls(3);
  std::unique_ptr<FaultInjector> injector;
  const std::string faults = GoldenFaults(schedule, q);
  if (!faults.empty()) {
    auto plan = FaultPlan::Parse(faults);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    injector = std::make_unique<FaultInjector>(std::move(plan).value());
  }
  runtime::ScopedQueryContext sinks({.counters = &registry, .meter = &meter,
                                     .faults = injector.get(),
                                     .lifecycle = &lifecycle});
  Result<StrategyResult> result = RunStrategy(q, shuffle, join, opts);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return 0;

  const QueryMetrics& m = result->metrics;
  std::ostringstream text;
  for (const StageMetrics& s : m.stages) {
    text << "stage " << s.label << '|' << s.output_tuples << '|'
         << s.retries << '|' << s.failed << '|' << s.degraded << '\n';
  }
  for (const ShuffleMetrics& s : m.shuffles) {
    text << "shuffle " << s.label << '|' << s.tuples_sent << '|'
         << s.retries << '\n';
  }
  for (const std::string& d : m.degradations) text << "degraded " << d << '\n';
  text << "fail " << m.failed << '|' << static_cast<int>(m.fail_code) << '|'
       << m.fail_reason << '\n';
  for (const auto& [name, value] : registry.CounterSnapshot()) {
    text << name << '=' << value << '\n';
  }
  text << "bytes " << m.peak_bytes << '|' << m.charged_bytes << '\n';
  text << "polls " << lifecycle.stats().polls << '\n';
  return DigestTextAndOutput(text.str(), result->output);
}

struct GoldenStrategy {
  int query;
  const char* strategy;
  uint64_t digest[kNumSchedules];
};

const GoldenStrategy kGoldenStrategies[] = {
    {1, "RS_HJ",
     {0xa593f6a394f05099ULL, 0xa593f6a394f05099ULL,
      0x357d76fa0271ca73ULL, 0xa593f6a394f05099ULL,
      0x32e1567b11205b1cULL}},
    {1, "RS_TJ",
     {0xc6cbea84043a8382ULL, 0xc6cbea84043a8382ULL,
      0xd0b79f4977a07ab2ULL, 0xc6cbea84043a8382ULL,
      0x32e1567b11205b1cULL}},
    {1, "BR_HJ",
     {0xfec375ac7fe2b4daULL, 0xfec375ac7fe2b4daULL,
      0xfec375ac7fe2b4daULL, 0xfec375ac7fe2b4daULL,
      0x8870ad695d7086fcULL}},
    {1, "BR_TJ",
     {0x86a7961d4f0961f3ULL, 0x7c1e8d009b004f45ULL,
      0x86a7961d4f0961f3ULL, 0x86a7961d4f0961f3ULL,
      0x8870ad695d7086fcULL}},
    {1, "HC_HJ",
     {0xd783f4a14a45c66cULL, 0xd783f4a14a45c66cULL,
      0xd783f4a14a45c66cULL, 0xaf1ddcbc5535ceabULL,
      0x7db4bcf6d867dd5bULL}},
    {1, "HC_TJ",
     {0x6ce5f46c992dac5ULL, 0xb271b73cda13639bULL,
      0x6ce5f46c992dac5ULL, 0xbe58c0b8b9ac60d2ULL,
      0x7db4bcf6d867dd5bULL}},
    {2, "RS_HJ",
     {0xd481008f8ca1d953ULL, 0xd481008f8ca1d953ULL,
      0x357d76fa0271ca73ULL, 0xd481008f8ca1d953ULL,
      0x32e1567b11205b1cULL}},
    {2, "RS_TJ",
     {0xdeca2552a4ae8eadULL, 0xdeca2552a4ae8eadULL,
      0x6bddd5486ac76118ULL, 0xdeca2552a4ae8eadULL,
      0x32e1567b11205b1cULL}},
    {2, "BR_HJ",
     {0x40668463692838f8ULL, 0x40668463692838f8ULL,
      0x40668463692838f8ULL, 0x40668463692838f8ULL,
      0x8870ad695d7086fcULL}},
    {2, "BR_TJ",
     {0x5203b637b50db424ULL, 0x80927c2ea91330a1ULL,
      0x5203b637b50db424ULL, 0x5203b637b50db424ULL,
      0x8870ad695d7086fcULL}},
    {2, "HC_HJ",
     {0x24b61c21c3cae647ULL, 0x24b61c21c3cae647ULL,
      0x24b61c21c3cae647ULL, 0x124a9fed62f642cdULL,
      0x7db4bcf6d867dd5bULL}},
    {2, "HC_TJ",
     {0x3b1480effdf99926ULL, 0x8610332bb57f0badULL,
      0x3b1480effdf99926ULL, 0x2b53fa52ecc274c6ULL,
      0x7db4bcf6d867dd5bULL}},
    {3, "RS_HJ",
     {0xf29822319bcd94d7ULL, 0xf29822319bcd94d7ULL,
      0xb1d96fc2f9588a40ULL, 0xf29822319bcd94d7ULL,
      0x8c885835f9c106b9ULL}},
    {3, "RS_TJ",
     {0xc2fb28013a838a9aULL, 0xc2fb28013a838a9aULL,
      0xd66073ef830ee8b1ULL, 0xc2fb28013a838a9aULL,
      0x8c885835f9c106b9ULL}},
    {3, "BR_HJ",
     {0x1331e72581c720ecULL, 0x1331e72581c720ecULL,
      0x1331e72581c720ecULL, 0x1331e72581c720ecULL,
      0x683c5aba7efa1eb5ULL}},
    {3, "BR_TJ",
     {0xfdb818aa7c8eab91ULL, 0xff41f4e67d666143ULL,
      0xfdb818aa7c8eab91ULL, 0xfdb818aa7c8eab91ULL,
      0x683c5aba7efa1eb5ULL}},
    {3, "HC_HJ",
     {0x20f281dde7588046ULL, 0x20f281dde7588046ULL,
      0x20f281dde7588046ULL, 0x3e41a5e435dafb9dULL,
      0xb84a831cb3a707f8ULL}},
    {3, "HC_TJ",
     {0xe01a40d489054e9dULL, 0xbc9ce81861fb6fa3ULL,
      0xe01a40d489054e9dULL, 0xceafa4e2f198a644ULL,
      0xb84a831cb3a707f8ULL}},
    {4, "RS_HJ",
     {0xcb10530b6ddb4085ULL, 0xcb10530b6ddb4085ULL,
      0x28f4c0259bae70f6ULL, 0xcb10530b6ddb4085ULL,
      0xbfd26067f54aaa8aULL}},
    {4, "RS_TJ",
     {0x27005517885ff47eULL, 0x27005517885ff47eULL,
      0x25bc7b9acd74768bULL, 0x27005517885ff47eULL,
      0xbfd26067f54aaa8aULL}},
    {4, "BR_HJ",
     {0xc07073d6f51e69c9ULL, 0xc07073d6f51e69c9ULL,
      0xc07073d6f51e69c9ULL, 0xc07073d6f51e69c9ULL,
      0xc263113683e9680eULL}},
    {4, "BR_TJ",
     {0xa2c02337a3e78ba5ULL, 0x3d47cca672786bdcULL,
      0xa2c02337a3e78ba5ULL, 0xa2c02337a3e78ba5ULL,
      0xc263113683e9680eULL}},
    {4, "HC_HJ",
     {0xce54f3843d6d0038ULL, 0xce54f3843d6d0038ULL,
      0xce54f3843d6d0038ULL, 0x29915421393de6c6ULL,
      0x94221f6ccc726c35ULL}},
    {4, "HC_TJ",
     {0xa1f883bf3c42e00ULL, 0x3feeb7f099eaaadbULL,
      0xa1f883bf3c42e00ULL, 0x4d79b40075cd72e6ULL,
      0x94221f6ccc726c35ULL}},
    {5, "RS_HJ",
     {0x58ca08a6b41805dfULL, 0x58ca08a6b41805dfULL,
      0x357d76fa0271ca73ULL, 0x58ca08a6b41805dfULL,
      0x32e1567b11205b1cULL}},
    {5, "RS_TJ",
     {0x877e173b2a797087ULL, 0x877e173b2a797087ULL,
      0xdefc7f95db73f5e6ULL, 0x877e173b2a797087ULL,
      0x32e1567b11205b1cULL}},
    {5, "BR_HJ",
     {0x5952e0e566246469ULL, 0x5952e0e566246469ULL,
      0x5952e0e566246469ULL, 0x5952e0e566246469ULL,
      0x8870ad695d7086fcULL}},
    {5, "BR_TJ",
     {0xd9e30e7198a27f4cULL, 0x13c90346ba70f65bULL,
      0xd9e30e7198a27f4cULL, 0xd9e30e7198a27f4cULL,
      0x8870ad695d7086fcULL}},
    {5, "HC_HJ",
     {0xffa68aca70682b0fULL, 0xffa68aca70682b0fULL,
      0xffa68aca70682b0fULL, 0x86fa4f1d856ad2acULL,
      0x7db4bcf6d867dd5bULL}},
    {5, "HC_TJ",
     {0x27481794edab392aULL, 0xea3e88e2ac963ae2ULL,
      0x27481794edab392aULL, 0xde80b35eb263f199ULL,
      0x7db4bcf6d867dd5bULL}},
    {6, "RS_HJ",
     {0x5e804f5e104be274ULL, 0x5e804f5e104be274ULL,
      0x357d76fa0271ca73ULL, 0x5e804f5e104be274ULL,
      0x32e1567b11205b1cULL}},
    {6, "RS_TJ",
     {0xfdfb69e330e3931eULL, 0xfdfb69e330e3931eULL,
      0x7e7cc3a6f5624cedULL, 0xfdfb69e330e3931eULL,
      0x32e1567b11205b1cULL}},
    {6, "BR_HJ",
     {0x269fa871603b02d7ULL, 0x269fa871603b02d7ULL,
      0x269fa871603b02d7ULL, 0x269fa871603b02d7ULL,
      0x8870ad695d7086fcULL}},
    {6, "BR_TJ",
     {0xb5ffb251b38edf46ULL, 0xa84bae32fabc6670ULL,
      0xb5ffb251b38edf46ULL, 0xb5ffb251b38edf46ULL,
      0x8870ad695d7086fcULL}},
    {6, "HC_HJ",
     {0x280090df6cccaa31ULL, 0x280090df6cccaa31ULL,
      0x280090df6cccaa31ULL, 0x5583feeee983ea26ULL,
      0x7db4bcf6d867dd5bULL}},
    {6, "HC_TJ",
     {0xda125db7a37d2a06ULL, 0x417d8eff94b870a9ULL,
      0xda125db7a37d2a06ULL, 0xc84b2f58502c1c98ULL,
      0x7db4bcf6d867dd5bULL}},
    {7, "RS_HJ",
     {0xe2ef2cbf29f197bdULL, 0xe2ef2cbf29f197bdULL,
      0x7e3b211076a2365aULL, 0xe2ef2cbf29f197bdULL,
      0xd8e8ba058b1f0b98ULL}},
    {7, "RS_TJ",
     {0x4c86258dd0419c57ULL, 0x4c86258dd0419c57ULL,
      0xf56822242f9b1edULL, 0x4c86258dd0419c57ULL,
      0xd8e8ba058b1f0b98ULL}},
    {7, "BR_HJ",
     {0xdc7351a78cd92a46ULL, 0xdc7351a78cd92a46ULL,
      0xdc7351a78cd92a46ULL, 0xdc7351a78cd92a46ULL,
      0x2fdf7bf494c99b69ULL}},
    {7, "BR_TJ",
     {0xb39f4732a2cbbb1fULL, 0x4b7edcc236be8547ULL,
      0xb39f4732a2cbbb1fULL, 0xb39f4732a2cbbb1fULL,
      0x2fdf7bf494c99b69ULL}},
    {7, "HC_HJ",
     {0xab4dc37c9e6839a1ULL, 0xab4dc37c9e6839a1ULL,
      0xab4dc37c9e6839a1ULL, 0x7edab997289390fcULL,
      0x126a7fc9ce972c49ULL}},
    {7, "HC_TJ",
     {0xdd58e1da1903056fULL, 0xb46c2d782b9f1486ULL,
      0xdd58e1da1903056fULL, 0xdca0577f37d81078ULL,
      0x126a7fc9ce972c49ULL}},
    {8, "RS_HJ",
     {0xfc987ba78a3d12e0ULL, 0xfc987ba78a3d12e0ULL,
      0x51515d04f19568e1ULL, 0xfc987ba78a3d12e0ULL,
      0xbe39d6ac482d2b58ULL}},
    {8, "RS_TJ",
     {0xead70b8e27ad5822ULL, 0xead70b8e27ad5822ULL,
      0xf6ae27508496c4bfULL, 0xead70b8e27ad5822ULL,
      0xbe39d6ac482d2b58ULL}},
    {8, "BR_HJ",
     {0x4a4b6b693c8f9050ULL, 0x4a4b6b693c8f9050ULL,
      0x4a4b6b693c8f9050ULL, 0x4a4b6b693c8f9050ULL,
      0x2e4755416ff0248bULL}},
    {8, "BR_TJ",
     {0xd5a94c8ccaca1d3aULL, 0x4bc602e2ac8c33bbULL,
      0xd5a94c8ccaca1d3aULL, 0xd5a94c8ccaca1d3aULL,
      0x2e4755416ff0248bULL}},
    {8, "HC_HJ",
     {0x4a8ff4b3b99add55ULL, 0x4a8ff4b3b99add55ULL,
      0x4a8ff4b3b99add55ULL, 0x2db9633a0e53ca3dULL,
      0x416b6dd263e11943ULL}},
    {8, "HC_TJ",
     {0x8792df245a5ded04ULL, 0xe797deb64ec7e17cULL,
      0x8792df245a5ded04ULL, 0xf3b3f9d0f4737c39ULL,
      0x416b6dd263e11943ULL}},
};

TEST(StrategyGolden, EveryStrategyReportMatchesGoldenUnderFiveSchedules) {
  WorkloadFactory factory(GoldenScale());
  size_t checked = 0;
  for (int qi = 1; qi <= 8; ++qi) {
    auto wl = factory.Make(qi);
    ASSERT_TRUE(wl.ok()) << wl.status().ToString();
    for (const auto& [shuffle, join] : AllStrategies()) {
      const std::string name = StrategyName(shuffle, join);
      std::ostringstream row;
      row << "{" << qi << ", \"" << name << "\", {" << std::hex;
      uint64_t digest[kNumSchedules];
      for (int s = 0; s < kNumSchedules; ++s) {
        digest[s] = GoldenDigest(wl->normalized, shuffle, join,
                                 static_cast<GoldenSchedule>(s));
        row << (s > 0 ? ", " : "") << "0x" << digest[s] << "ULL";
      }
      row << "}},";
      const GoldenStrategy* golden = nullptr;
      for (const GoldenStrategy& g : kGoldenStrategies) {
        if (g.query == qi && name == g.strategy) golden = &g;
      }
      if (golden == nullptr) {
        ADD_FAILURE() << "no golden row: " << row.str();
        continue;
      }
      for (int s = 0; s < kNumSchedules; ++s) {
        EXPECT_EQ(digest[s], golden->digest[s])
            << "Q" << qi << " " << name << " schedule " << s << "\n"
            << row.str();
      }
      ++checked;
    }
  }
  EXPECT_EQ(checked, std::size(kGoldenStrategies));
}

// ---------------------------------------------------------------------------
// ExchangeGolden: the exchange paths StrategyGolden's default options never
// take, pinned for Q1-Q8 x RS_HJ/RS_TJ. Bloom filters pushed into the probe
// shuffles; the skew-aware pair at a threshold where heavy keys exist, so
// right sides broadcast replicas; a profile armed, its timing-free JSON in
// the digest; and a drop+dup schedule that hits a filtered, skew-aware
// exchange. Each digest also covers every shuffle's bloom accounting and
// skew factors.
// ---------------------------------------------------------------------------

// Low enough that the zipfian Twitter edges and Freebase's shared objects
// have heavy keys on the left side of most rounds at GoldenScale().
constexpr double kGoldenSkewThreshold = 0.25;

enum ExchangeConfig {
  kBloom,                // bloom filters on every probe shuffle
  kSkewAware,            // skew-aware pairs, heavy keys present
  kBothProfiled,         // bloom + skew-aware, profile armed
  kBothFaultedProfiled,  // the same under channel drops and duplicates
  kNumExchangeConfigs,
};

struct ExchangeRun {
  uint64_t digest = 0;
  // Right sides of skew-aware exchanges that broadcast heavy-key replicas
  // (tuples_sent above the rows that passed the filter).
  size_t replicating_right_sides = 0;
  size_t retries = 0;
  size_t dups_deduped = 0;
};

ExchangeRun ExchangeGoldenRun(const NormalizedQuery& q, JoinKind join,
                              ExchangeConfig config) {
  StrategyOptions opts;
  opts.num_workers = 16;
  opts.bloom = config != kSkewAware;
  opts.rs_skew_aware = config != kBloom;
  opts.skew_threshold = kGoldenSkewThreshold;
  CounterRegistry registry;
  ResourceMeter meter;
  QueryLifecycle lifecycle;
  QueryProfile profile;
  const bool profiled =
      config == kBothProfiled || config == kBothFaultedProfiled;
  std::unique_ptr<FaultInjector> injector;
  if (config == kBothFaultedProfiled) {
    // Exchange sites of a bloom + skew-aware run: x=2k is round k+1's left
    // side, x=2k+1 its filtered right side. The first attempt of round 1's
    // right side loses producer 0's channels and duplicates producer 1's;
    // round 2's left side duplicates its channels to consumer 2.
    auto plan = FaultPlan::Parse("drop@x=1,p=0;dup@x=1,p=1;dup@x=2,c=2");
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    injector = std::make_unique<FaultInjector>(std::move(plan).value());
  }
  runtime::ScopedQueryContext sinks(
      {.counters = &registry, .profile = profiled ? &profile : nullptr,
       .meter = &meter, .faults = injector.get(), .lifecycle = &lifecycle});
  Result<StrategyResult> result =
      RunStrategy(q, ShuffleKind::kRegular, join, opts);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return {};

  ExchangeRun run;
  const QueryMetrics& m = result->metrics;
  std::ostringstream text;
  text.precision(17);
  for (const StageMetrics& s : m.stages) {
    text << "stage " << s.label << '|' << s.output_tuples << '|'
         << s.retries << '|' << s.failed << '|' << s.degraded << '\n';
  }
  for (const ShuffleMetrics& s : m.shuffles) {
    text << "shuffle " << s.label << '|' << s.tuples_sent << '|' << s.retries
         << '|' << s.dups_deduped << '|' << s.bloom_tested << '|'
         << s.bloom_filtered << '|' << s.bloom_bytes_saved << '|'
         << s.producer_skew << '|' << s.consumer_skew << '\n';
    run.retries += s.retries;
    run.dups_deduped += s.dups_deduped;
    const bool right_side =
        s.label.find("(right, skew-aware)") != std::string::npos;
    if (right_side && s.bloom_tested > 0 &&
        s.tuples_sent > s.bloom_tested - s.bloom_filtered) {
      ++run.replicating_right_sides;
    }
  }
  for (const std::string& d : m.degradations) text << "degraded " << d << '\n';
  text << "fail " << m.failed << '|' << static_cast<int>(m.fail_code) << '|'
       << m.fail_reason << '\n';
  for (const auto& [name, value] : registry.CounterSnapshot()) {
    text << name << '=' << value << '\n';
  }
  text << "bytes " << m.peak_bytes << '|' << m.charged_bytes << '\n';
  text << "polls " << lifecycle.stats().polls << '\n';
  if (profiled) {
    ProfileReportOptions report;
    report.include_timings = false;
    text << ProfileJsonString(profile, report) << '\n';
  }
  run.digest = DigestTextAndOutput(text.str(), result->output);
  return run;
}

struct GoldenExchange {
  int query;
  const char* strategy;
  uint64_t digest[kNumExchangeConfigs];
};

const GoldenExchange kGoldenExchanges[] = {
    {1, "RS_HJ",
     {0x3b396590304e80e2ULL, 0xa8b4ce286244ef7eULL,
      0xbedb278c38c3f6c5ULL, 0x9713c52273d313efULL}},
    {1, "RS_TJ",
     {0xe43d8b6d567f1a7fULL, 0x61d33a81b3e066eULL,
      0xe91c55525d46460bULL, 0x83bb7ab3b44eaf4eULL}},
    {2, "RS_HJ",
     {0x207f12c2bcc614f9ULL, 0x982c12a56c9447f8ULL,
      0xf8cf64aa41d1b8a8ULL, 0x6760a8e4d4407f70ULL}},
    {2, "RS_TJ",
     {0x6144e0b93e621f23ULL, 0xac2e52e3dc379f69ULL,
      0xbb3075b3c49e475ULL, 0xc8695b869b2ee5d2ULL}},
    {3, "RS_HJ",
     {0x9896eb81057a7e6fULL, 0xaa8575c524c36ff2ULL,
      0x8e37f3dff987b152ULL, 0xd7a83be3813c5d55ULL}},
    {3, "RS_TJ",
     {0x819196d6c38af715ULL, 0x419f7cc40f79a5d5ULL,
      0x2dd769ba6310cbe5ULL, 0x3e674fd617bdee13ULL}},
    {4, "RS_HJ",
     {0x2c0d655c12a58106ULL, 0xd2aa4974f5c3a877ULL,
      0x2b10c7c4d28b521ULL, 0x9074229f07982cbdULL}},
    {4, "RS_TJ",
     {0x9867993ec56d055dULL, 0xd9c27bb3bc386342ULL,
      0xf4113b05a6d59566ULL, 0x687f475f437e9c4ULL}},
    {5, "RS_HJ",
     {0x3c96e3c0b60250ebULL, 0x8b6bfdcc51699481ULL,
      0xe4d1082558773727ULL, 0xd54e9e2a856b8f47ULL}},
    {5, "RS_TJ",
     {0xfb3f748b41444053ULL, 0x3d64370e773a4320ULL,
      0x1965fe18b5982a3fULL, 0x68314f3209de0dd2ULL}},
    {6, "RS_HJ",
     {0x74bc17861d99b630ULL, 0x3505eabfc0682a7bULL,
      0xd6af24b9c386acd6ULL, 0xd603de3f69db9231ULL}},
    {6, "RS_TJ",
     {0x4d22759a988736e4ULL, 0x77e8ec01f312ef2eULL,
      0x33b1d0f59e0e5b9aULL, 0xf8c381bd138788bbULL}},
    {7, "RS_HJ",
     {0xe8de10cf11d22527ULL, 0x26128ee662f93c31ULL,
      0xb1f91e545eb2cbc1ULL, 0xf69a7a581a534a93ULL}},
    {7, "RS_TJ",
     {0x351333eda248fb08ULL, 0x4b23a4dc792b0914ULL,
      0x5e026b0e73fb7f15ULL, 0x73b6bca31dbd372fULL}},
    {8, "RS_HJ",
     {0x97fd16d6c79f1b16ULL, 0x1898e362a2a1eef1ULL,
      0x2d2e442b339f9359ULL, 0x972e9348478b9a43ULL}},
    {8, "RS_TJ",
     {0xd94b1aef6f0d05fcULL, 0x500ab706d2cf5396ULL,
      0xf17a9eed486ce676ULL, 0xb69740a96391ff12ULL}},
};

TEST(ExchangeGolden, FilteredSkewAwareAndProfiledExchangesMatchGolden) {
  WorkloadFactory factory(GoldenScale());
  size_t checked = 0;
  size_t queries_replicating = 0;
  for (int qi = 1; qi <= 8; ++qi) {
    auto wl = factory.Make(qi);
    ASSERT_TRUE(wl.ok()) << wl.status().ToString();
    for (JoinKind join : {JoinKind::kHashJoin, JoinKind::kTributary}) {
      const std::string name = StrategyName(ShuffleKind::kRegular, join);
      std::ostringstream row;
      row << "{" << qi << ", \"" << name << "\", {" << std::hex;
      uint64_t digest[kNumExchangeConfigs];
      for (int c = 0; c < kNumExchangeConfigs; ++c) {
        const ExchangeRun run = ExchangeGoldenRun(
            wl->normalized, join, static_cast<ExchangeConfig>(c));
        digest[c] = run.digest;
        if (c == kBothProfiled && join == JoinKind::kHashJoin &&
            run.replicating_right_sides > 0) {
          ++queries_replicating;
        }
        if (c == kBothFaultedProfiled) {
          // The schedule really hit: a lost channel was retried and a
          // duplicate was discarded.
          EXPECT_GT(run.retries, 0u) << "Q" << qi << " " << name;
          EXPECT_GT(run.dups_deduped, 0u) << "Q" << qi << " " << name;
        }
        row << (c > 0 ? ", " : "") << "0x" << digest[c] << "ULL";
      }
      row << "}},";
      const GoldenExchange* golden = nullptr;
      for (const GoldenExchange& g : kGoldenExchanges) {
        if (g.query == qi && name == g.strategy) golden = &g;
      }
      if (golden == nullptr) {
        ADD_FAILURE() << "no golden row: " << row.str();
        continue;
      }
      for (int c = 0; c < kNumExchangeConfigs; ++c) {
        EXPECT_EQ(digest[c], golden->digest[c])
            << "Q" << qi << " " << name << " config " << c << "\n"
            << row.str();
      }
      ++checked;
    }
  }
  EXPECT_EQ(checked, std::size(kGoldenExchanges));
  // Every query has heavy keys at kGoldenSkewThreshold, so every digest
  // covers a right side that broadcasts replicas.
  EXPECT_EQ(queries_replicating, 8u);
}

}  // namespace
}  // namespace ptp
