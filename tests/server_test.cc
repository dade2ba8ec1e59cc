// Serving-layer tests: plan-cache hit path (no re-parse/re-optimize),
// per-query sink isolation under concurrent executors (no cross-charged
// counters or memory), admission control (permanent rejection, queue-then-
// run when the pool frees, graceful hard-budget kResourceExhausted with
// retry-after), deterministic two-level fair scheduling, and session id
// assignment.

#include "server/server.h"

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "data/workloads.h"
#include "fault/fault.h"
#include "gtest/gtest.h"
#include "obs/counters.h"
#include "obs/metrics_export.h"
#include "obs/resource.h"
#include "obs/trace.h"
#include "plan/strategies.h"
#include "query/normalize_text.h"
#include "query/parser.h"
#include "runtime/parallel.h"
#include "server/plan_cache.h"
#include "storage/catalog.h"
#include "test_util.h"

namespace ptp {
namespace {

using test::TinyScale;
using test::TotalRetries;

// A catalog of random binary relations sized by `tuples`/`domain`, with
// every relation a test query mentions.
std::shared_ptr<Catalog> MakeCatalog(uint64_t seed, size_t tuples,
                                     Value domain) {
  auto catalog = std::make_shared<Catalog>();
  Rng rng(seed);
  for (const char* name : {"R", "S", "U"}) {
    catalog->Put(test::RandomBinaryRelation(name, {"a", "b"}, tuples, domain,
                                            &rng));
  }
  return catalog;
}

QueryRequest MakeRequest(Catalog* catalog, const std::string& text,
                         int workers = 4) {
  QueryRequest req;
  req.text = text;
  req.catalog = catalog;
  req.workers = workers;
  return req;
}

constexpr const char* kTriangle = "T(x,y,z) :- R(x,y), S(y,z), U(z,x).";
constexpr const char* kPath = "P(x,w) :- R(x,y), S(y,z), U(z,w).";

// ---------------------------------------------------------------------------
// Plan cache.
// ---------------------------------------------------------------------------

TEST(ServerTest, PlanCacheHitSkipsParseAndOptimize) {
  auto catalog = MakeCatalog(7, 80, 12);
  ServerOptions so;
  so.executors = 1;
  QueryServer server(so);
  auto* session = server.OpenSession();

  // Three spellings of the same query: different whitespace, AND vs comma,
  // different atom order. One parse, two hits.
  std::vector<QueryHandle> handles;
  handles.push_back(session->Submit(MakeRequest(catalog.get(), kTriangle)));
  handles.push_back(session->Submit(MakeRequest(
      catalog.get(), "T(x,y,z):-S(y,z) AND U(z,x) AND R(x,y)")));
  handles.push_back(session->Submit(MakeRequest(
      catalog.get(), "  T( x , y , z )  :-  R(x,y) ,\tS(y,z), U(z,x) .")));
  server.Drain();

  const Relation& first = handles[0].Get().output;
  for (const QueryHandle& h : handles) {
    const QueryResponse& r = h.Get();
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_TRUE(r.output.EqualsUnordered(first));
  }
  EXPECT_FALSE(handles[0].Get().cache_hit);
  EXPECT_TRUE(handles[1].Get().cache_hit);
  EXPECT_TRUE(handles[2].Get().cache_hit);

  const PlanCache::Stats stats = server.plan_cache().stats();
  EXPECT_EQ(stats.parses, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);
  // Neither the hits nor the three feedback folds re-scanned the data, and
  // the variable order (if the advised plan needed one) was optimized once.
  EXPECT_EQ(stats.refreshes, 3u);
  EXPECT_EQ(stats.blind_advisories, 1u);
  EXPECT_LE(stats.order_optimizations, 1u);
  EXPECT_EQ(server.plan_cache().size(), 1u);
}

TEST(ServerTest, ParseErrorRejectedAtSubmit) {
  auto catalog = MakeCatalog(7, 20, 8);
  ServerOptions so;
  QueryServer server(so);
  auto* session = server.OpenSession();
  QueryHandle h =
      session->Submit(MakeRequest(catalog.get(), "not a query at all"));
  const QueryResponse& r = h.Get();
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(server.stats().rejected, 1u);
  EXPECT_EQ(server.stats().completed, 0u);
}

// ---------------------------------------------------------------------------
// Isolation: concurrently-served queries must not cross-charge sinks.
// ---------------------------------------------------------------------------

// Solo baseline of (query text, strategy): fresh registry + meter, direct
// RunStrategy — exactly what the server's executor does, minus the server.
struct SoloRun {
  QueryMetrics metrics;
  std::vector<std::pair<std::string, uint64_t>> counters;
  Relation output;
};

SoloRun RunSolo(Catalog* catalog, const std::string& text,
                const std::string& strategy, int workers,
                const std::string& faults = "", bool bloom = false,
                double watchdog_straggle_factor = 0,
                const std::vector<std::string>& var_order = {}) {
  auto parsed = ParseDatalog(text, &catalog->dictionary());
  PTP_CHECK(parsed.ok());
  auto nq = Normalize(*parsed, *catalog);
  PTP_CHECK(nq.ok());
  ShuffleKind shuffle = ShuffleKind::kRegular;
  JoinKind join = JoinKind::kHashJoin;
  for (const auto& [s, j] : AllStrategies()) {
    if (strategy == StrategyName(s, j)) {
      shuffle = s;
      join = j;
    }
  }
  StrategyOptions opts;
  opts.num_workers = workers;
  opts.bloom = bloom;
  opts.recovery.watchdog_straggle_factor = watchdog_straggle_factor;
  opts.var_order = var_order;
  // Replaying a served run bit-for-bit means replaying its fault schedule
  // under a private injector, exactly as the server does.
  std::unique_ptr<FaultInjector> injector;
  if (!faults.empty()) {
    auto fault_plan = FaultPlan::Parse(faults);
    PTP_CHECK(fault_plan.ok()) << fault_plan.status().ToString();
    injector = std::make_unique<FaultInjector>(std::move(fault_plan).value());
  }
  CounterRegistry counters;
  ResourceMeter meter(0, /*hard=*/true);
  runtime::ScopedQueryContext sinks(
      {.counters = &counters, .meter = &meter, .faults = injector.get()});
  auto result = RunStrategy(*nq, shuffle, join, opts);
  PTP_CHECK(result.ok()) << result.status().ToString();
  SoloRun solo;
  solo.metrics = result->metrics;
  solo.counters = counters.CounterSnapshot();
  solo.output = std::move(result->output);
  return solo;
}

// Every deterministic figure of a served run — output, metrics, bytes,
// retries and counters — must equal its solo run's.
void ExpectMatchesSolo(const QueryResponse& r, const SoloRun& solo) {
  EXPECT_TRUE(r.output.EqualsUnordered(solo.output)) << r.id;
  EXPECT_EQ(r.metrics.output_tuples, solo.metrics.output_tuples) << r.id;
  EXPECT_EQ(r.metrics.TuplesShuffled(), solo.metrics.TuplesShuffled())
      << r.id;
  EXPECT_EQ(r.metrics.max_intermediate_tuples,
            solo.metrics.max_intermediate_tuples)
      << r.id;
  EXPECT_EQ(r.metrics.peak_bytes, solo.metrics.peak_bytes) << r.id;
  EXPECT_EQ(r.metrics.charged_bytes, solo.metrics.charged_bytes) << r.id;
  EXPECT_EQ(TotalRetries(r.metrics), TotalRetries(solo.metrics)) << r.id;
  EXPECT_EQ(r.counters, solo.counters)
      << r.id << " (" << r.strategy << "): counter cross-charge";
}

QueryRequest ForcedRequest(Catalog* catalog, const std::string& text,
                           ShuffleKind shuffle, JoinKind join, int workers) {
  QueryRequest req = MakeRequest(catalog, text, workers);
  req.force_strategy = true;
  req.shuffle = shuffle;
  req.join = join;
  return req;
}

TEST(ServerTest, EntryPlansOnceAndServesRunsBitIdenticalToSolo) {
  // Relations past the radix-sort threshold: the cost model's statistics
  // sort them, and a solo run (which optimizes its own variable order)
  // must publish exactly what a served run reusing the entry's order does.
  auto catalog = MakeCatalog(53, 6000, 4000);
  ServerOptions so;
  so.executors = 2;  // concurrent first dispatches share one optimization
  QueryServer server(so);
  auto* session = server.OpenSession();
  constexpr size_t kRuns = 5;
  std::vector<QueryHandle> handles;
  for (size_t i = 0; i < kRuns; ++i) {
    handles.push_back(session->Submit(
        ForcedRequest(catalog.get(), kTriangle, ShuffleKind::kHypercube,
                      JoinKind::kTributary, 4)));
  }
  server.Drain();

  const PlanCache::Stats stats = server.plan_cache().stats();
  EXPECT_EQ(stats.parses, 1u);
  EXPECT_EQ(stats.blind_advisories, 1u);
  EXPECT_EQ(stats.order_optimizations, 1u);
  EXPECT_EQ(stats.refreshes, kRuns);

  const SoloRun solo = RunSolo(catalog.get(), kTriangle, "HC_TJ", 4);
  for (const QueryHandle& h : handles) {
    const QueryResponse& r = h.Get();
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.strategy, "HC_TJ");
    ExpectMatchesSolo(r, solo);
  }
}

TEST(ServerTest, RequestOrdersOverrideTheEntry) {
  // Explicit orders in request.exec win over the entry's: the variable
  // order optimizer never runs, and the run uses the requested order.
  auto catalog = MakeCatalog(59, 120, 12);
  ServerOptions so;
  so.executors = 1;
  QueryServer server(so);
  auto* session = server.OpenSession();
  QueryRequest req = ForcedRequest(catalog.get(), kTriangle,
                                   ShuffleKind::kBroadcast,
                                   JoinKind::kTributary, 4);
  req.exec.var_order = {"z", "x", "y"};
  QueryHandle pinned = session->Submit(req);
  server.Drain();
  ASSERT_TRUE(pinned.Get().status.ok()) << pinned.Get().status.ToString();
  EXPECT_EQ(server.plan_cache().stats().order_optimizations, 0u);
  // Per-variable seek counters depend on the order: the served run matches
  // a solo run pinned to the same order.
  const SoloRun solo = RunSolo(catalog.get(), kTriangle, "BR_TJ", 4, "",
                               false, 0, req.exec.var_order);
  EXPECT_TRUE(pinned.Get().output.EqualsUnordered(solo.output));
  EXPECT_EQ(pinned.Get().counters, solo.counters);
}

TEST(ServerTest, ConcurrentQueriesBitIdenticalToSoloRuns) {
  auto twitter = MakeCatalog(11, 150, 14);
  auto freebase = MakeCatalog(23, 90, 10);

  ServerOptions so;
  so.executors = 3;
  QueryServer server(so);
  auto* s1 = server.OpenSession();
  auto* s2 = server.OpenSession();

  struct Submitted {
    Catalog* catalog;
    std::string text;
    int workers;
    QueryHandle handle;
  };
  std::vector<Submitted> all;
  // Interleave two sessions over two catalogs and two queries, repeatedly,
  // so executions of different queries overlap in every combination.
  for (int round = 0; round < 6; ++round) {
    all.push_back({twitter.get(), kTriangle, 4,
                   s1->Submit(MakeRequest(twitter.get(), kTriangle, 4))});
    all.push_back({freebase.get(), kPath, 3,
                   s2->Submit(MakeRequest(freebase.get(), kPath, 3))});
  }
  server.Drain();

  for (const Submitted& sub : all) {
    const QueryResponse& r = sub.handle.Get();
    ASSERT_TRUE(r.status.ok()) << r.id << ": " << r.status.ToString();
    // Baseline with the strategy the server actually ran (feedback may
    // upgrade it between rounds); every deterministic figure must match a
    // solo run bit-for-bit.
    ExpectMatchesSolo(r, RunSolo(sub.catalog, sub.text, r.strategy,
                                 sub.workers, "", r.bloom));
  }
  EXPECT_EQ(server.stats().completed, all.size());
  EXPECT_EQ(server.stats().failed, 0u);
}

// The paper's eight queries served concurrently: two interleaved rounds of
// Q1-Q8 from two sessions on three executors. Every response matches a solo
// run of the plan the server actually ran, and the plan cache prepares each
// distinct query exactly once however the rounds interleave.
TEST(ServerTest, PaperQueriesServedConcurrentlyMatchSoloAndPlanOnce) {
  constexpr int kWorkers = 8;
  WorkloadFactory factory(TinyScale());
  std::vector<Workload> workloads;
  for (const int q : {1, 2, 3, 4, 5, 6, 7, 8}) {
    Result<Workload> wl = factory.Make(q);
    ASSERT_TRUE(wl.ok()) << wl.status().ToString();
    workloads.push_back(std::move(wl).value());
  }

  ServerOptions so;
  so.executors = 3;
  QueryServer server(so);
  QueryServer::Session* sessions[] = {server.OpenSession(),
                                      server.OpenSession()};
  std::vector<std::pair<size_t, QueryHandle>> all;
  for (int round = 0; round < 2; ++round) {
    for (size_t w = 0; w < workloads.size(); ++w) {
      all.emplace_back(w, sessions[(w + round) % 2]->Submit(MakeRequest(
                              workloads[w].catalog.get(),
                              workloads[w].query.ToString(), kWorkers)));
    }
  }
  server.Drain();

  // One solo reference per (query, strategy, bloom) actually served:
  // feedback may upgrade a query's plan between rounds, and each plan is
  // compared against its own reference.
  std::map<std::tuple<size_t, std::string, bool>, SoloRun> references;
  for (const auto& [w, handle] : all) {
    const QueryResponse& r = handle.Get();
    ASSERT_TRUE(r.status.ok()) << workloads[w].id << ": "
                               << r.status.ToString();
    auto key = std::make_tuple(w, r.strategy, r.bloom);
    auto it = references.find(key);
    if (it == references.end()) {
      it = references
               .emplace(key, RunSolo(workloads[w].catalog.get(),
                                     workloads[w].query.ToString(),
                                     r.strategy, kWorkers, "", r.bloom))
               .first;
    }
    SCOPED_TRACE(workloads[w].id);
    ExpectMatchesSolo(r, it->second);
  }
  EXPECT_EQ(server.stats().completed, all.size());
  EXPECT_EQ(server.stats().failed, 0u);

  const PlanCache::Stats cache = server.plan_cache().stats();
  EXPECT_EQ(cache.parses, workloads.size());
  EXPECT_EQ(cache.blind_advisories, cache.parses);
  EXPECT_LE(cache.order_optimizations, cache.parses);
  EXPECT_EQ(cache.hits + cache.misses, all.size());
}

// Regression for the underlying mechanism: active sinks are per thread and
// propagate into pool workers per batch, so two plain threads running
// parallel regions back-to-back never publish into each other's registry.
TEST(ServerTest, ActiveSinksArePerThread) {
  constexpr int kIters = 50;
  auto body = [](CounterRegistry* reg, ResourceMeter* meter,
                 uint64_t stamp) {
    runtime::ScopedQueryContext sinks({.counters = reg, .meter = meter});
    meter->BeginQuery("q");
    for (int i = 0; i < kIters; ++i) {
      Status st = runtime::ParallelFor(4, [&](int /*worker*/) {
        if (CounterRegistry* r = ActiveCounterRegistry()) {
          r->Add("iters", stamp);
        }
        MemCharge(MemCategory::kIntermediate, stamp);
        MemRelease(stamp);
        return Status::OK();
      });
      PTP_CHECK(st.ok());
    }
  };
  CounterRegistry reg_a, reg_b;
  ResourceMeter meter_a, meter_b;
  std::thread ta([&] { body(&reg_a, &meter_a, 1); });
  std::thread tb([&] { body(&reg_b, &meter_b, 1000); });
  ta.join();
  tb.join();
  EXPECT_EQ(reg_a.Value("iters"), static_cast<uint64_t>(kIters) * 4 * 1);
  EXPECT_EQ(reg_b.Value("iters"), static_cast<uint64_t>(kIters) * 4 * 1000);
  ASSERT_EQ(meter_a.Snapshot().size(), 1u);
  ASSERT_EQ(meter_b.Snapshot().size(), 1u);
  EXPECT_EQ(meter_a.Snapshot()[0].TotalCharged(),
            static_cast<uint64_t>(kIters) * 4 * 1);
  EXPECT_EQ(meter_b.Snapshot()[0].TotalCharged(),
            static_cast<uint64_t>(kIters) * 4 * 1000);
}

// ---------------------------------------------------------------------------
// Admission control.
// ---------------------------------------------------------------------------

// The peak estimate the admission controller will use for (text, workers).
uint64_t EstimateFor(Catalog* catalog, const std::string& text,
                     int workers) {
  PlanCache scratch;
  auto e = scratch.Prepare(text, workers, catalog, nullptr);
  PTP_CHECK(e.ok()) << e.status().ToString();
  return e->est_peak_bytes;
}

TEST(ServerTest, QueryThatCanNeverFitIsRejectedAtSubmit) {
  auto catalog = MakeCatalog(3, 200, 16);
  const uint64_t est = EstimateFor(catalog.get(), kTriangle, 4);
  ServerOptions so;
  so.memory_pool_bytes = est / 2;
  QueryServer server(so);
  auto* session = server.OpenSession();
  QueryHandle h = session->Submit(MakeRequest(catalog.get(), kTriangle, 4));
  const QueryResponse& r = h.Get();
  EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(r.retry_after_seconds, 0.0);  // permanent, not transient
  EXPECT_EQ(r.dispatch_seq, 0u);          // never dispatched
  EXPECT_EQ(server.stats().rejected, 1u);
  EXPECT_EQ(server.stats().completed, 0u);
}

TEST(ServerTest, OversizedQueryQueuesUntilPoolFrees) {
  auto catalog = MakeCatalog(3, 200, 16);
  const uint64_t est = EstimateFor(catalog.get(), kTriangle, 4);
  ServerOptions so;
  so.executors = 2;
  // Pool fits one triangle at a time, never two: the second submission
  // must wait for the first to release its reservation, not run beside it
  // and not be rejected.
  so.memory_pool_bytes = est + est / 2;
  so.start_paused = true;
  QueryServer server(so);
  auto* session = server.OpenSession();
  std::vector<QueryHandle> handles;
  for (int i = 0; i < 4; ++i) {
    handles.push_back(session->Submit(MakeRequest(catalog.get(), kTriangle,
                                                  4)));
  }
  server.Start();
  server.Drain();
  for (const QueryHandle& h : handles) {
    EXPECT_TRUE(h.Get().status.ok()) << h.Get().status.ToString();
  }
  EXPECT_EQ(server.stats().completed, 4u);
  EXPECT_EQ(server.stats().rejected, 0u);
  // Dispatches happened (serialized by the pool), in FIFO order.
  std::vector<uint64_t> seqs;
  for (const QueryHandle& h : handles) seqs.push_back(h.Get().dispatch_seq);
  EXPECT_EQ(seqs, (std::vector<uint64_t>{1, 2, 3, 4}));
}

TEST(ServerTest, HardBudgetBreachFailsWithResourceExhausted) {
  auto catalog = MakeCatalog(5, 300, 12);
  ServerOptions so;
  so.executors = 1;
  so.query_budget_bytes = 1024;  // any shuffle materialization breaches
  QueryServer server(so);
  auto* session = server.OpenSession();
  QueryHandle h = session->Submit(MakeRequest(catalog.get(), kTriangle, 4));
  const QueryResponse& r = h.Get();
  EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted);
  EXPECT_GT(r.retry_after_seconds, 0.0);  // transient: the pool drains
  EXPECT_TRUE(r.metrics.failed);
  EXPECT_EQ(r.metrics.fail_code, StatusCode::kResourceExhausted);
  EXPECT_NE(r.metrics.fail_reason.find("hard budget"), std::string::npos)
      << r.metrics.fail_reason;
  // The run's account is booked consistently: the breach counter fired
  // once, and the metered peak indeed exceeds the budget.
  uint64_t breaches = 0;
  for (const auto& [name, value] : r.counters) {
    if (name == "mem.hard_budget_breaches") breaches = value;
  }
  EXPECT_EQ(breaches, 1u);
  EXPECT_GT(r.metrics.peak_bytes, so.query_budget_bytes);
  EXPECT_EQ(server.stats().failed, 1u);
  EXPECT_EQ(server.stats().completed, 1u);
}

// ---------------------------------------------------------------------------
// Fair scheduling.
// ---------------------------------------------------------------------------

TEST(ServerTest, TwoLevelSchedulingIsFairAndDeterministic) {
  auto small_cat = MakeCatalog(13, 40, 8);
  auto large_cat = MakeCatalog(17, 1500, 40);
  const uint64_t small_est = EstimateFor(small_cat.get(), kTriangle, 2);
  const uint64_t large_est = EstimateFor(large_cat.get(), kPath, 2);
  ASSERT_LT(small_est, large_est);

  ServerOptions so;
  so.executors = 1;  // single executor: dispatch order == execution order
  so.start_paused = true;
  so.small_query_bytes = (small_est + large_est) / 2;
  so.small_per_large = 2;
  QueryServer server(so);
  auto* session = server.OpenSession();

  // Seeded arrival order: one large first, then four smalls, then another
  // large. Expected dispatch: two smalls, the owed large, the remaining
  // smalls, the last large.
  std::vector<QueryHandle> handles;
  handles.push_back(session->Submit(MakeRequest(large_cat.get(), kPath, 2)));
  for (int i = 0; i < 4; ++i) {
    handles.push_back(
        session->Submit(MakeRequest(small_cat.get(), kTriangle, 2)));
  }
  handles.push_back(session->Submit(MakeRequest(large_cat.get(), kPath, 2)));
  server.Start();
  server.Drain();

  ASSERT_EQ(handles[0].Get().cost_class, "large");
  ASSERT_EQ(handles[1].Get().cost_class, "small");
  std::vector<uint64_t> seqs;
  for (const QueryHandle& h : handles) {
    ASSERT_TRUE(h.Get().status.ok()) << h.Get().status.ToString();
    seqs.push_back(h.Get().dispatch_seq);
  }
  // Arrival:  L1 S1 S2 S3 S4 L2
  // Dispatch: S1 S2 L1 S3 S4 L2  (small first, large after 2 smalls, FIFO
  // within class).
  EXPECT_EQ(seqs, (std::vector<uint64_t>{3, 1, 2, 4, 5, 6}));
  EXPECT_EQ(server.stats().small_dispatched, 4u);
  EXPECT_EQ(server.stats().large_dispatched, 2u);
}

// ---------------------------------------------------------------------------
// Sessions.
// ---------------------------------------------------------------------------

TEST(ServerTest, SessionsAssignDeterministicIds) {
  auto catalog = MakeCatalog(29, 30, 8);
  ServerOptions so;
  QueryServer server(so);
  auto* s1 = server.OpenSession();
  auto* s2 = server.OpenSession();
  auto* named = server.OpenSession("audit");
  EXPECT_EQ(s1->id(), "s1");
  EXPECT_EQ(s2->id(), "s2");
  EXPECT_EQ(named->id(), "audit");
  QueryHandle a = s1->Submit(MakeRequest(catalog.get(), kTriangle));
  QueryHandle b = s1->Submit(MakeRequest(catalog.get(), kTriangle));
  QueryHandle c = s2->Submit(MakeRequest(catalog.get(), kTriangle));
  server.Drain();
  EXPECT_EQ(a.Get().id, "s1.q1");
  EXPECT_EQ(b.Get().id, "s1.q2");
  EXPECT_EQ(c.Get().id, "s2.q1");
}

// ---------------------------------------------------------------------------
// LRU bounds: ad-hoc query text cannot grow the plan cache or the
// in-memory feedback store without limit.
// ---------------------------------------------------------------------------

TEST(PlanCacheTest, LruEvictsLeastRecentlyUsedEntry) {
  auto catalog = MakeCatalog(37, 40, 8);
  PlanCache cache(/*max_entries=*/2);
  ASSERT_TRUE(cache.Prepare(kTriangle, 4, catalog.get(), nullptr).ok());
  ASSERT_TRUE(cache.Prepare(kPath, 4, catalog.get(), nullptr).ok());
  // Touch the triangle: the path becomes least recently used.
  ASSERT_TRUE(cache.Prepare(kTriangle, 4, catalog.get(), nullptr).ok());
  // A third distinct entry evicts the path, not the (recently used)
  // triangle.
  ASSERT_TRUE(cache.Prepare(kTriangle, 8, catalog.get(), nullptr).ok());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  PlanCache::Entry e;
  EXPECT_TRUE(cache.Lookup(NormalizeQueryText(kTriangle), 4, catalog.get(), &e));
  EXPECT_FALSE(cache.Lookup(NormalizeQueryText(kPath), 4, catalog.get(), &e));
}

TEST(PlanCacheTest, SameTextDifferentCatalogIsNotAHit) {
  // Preparation binds relation data into the normalized plan, so an entry
  // must never be shared across catalogs: the second catalog would execute
  // the first catalog's data and inherit its admission estimate.
  auto small = MakeCatalog(37, 40, 8);
  auto large = MakeCatalog(38, 4000, 40);
  PlanCache cache;
  bool hit = true;
  ASSERT_TRUE(cache.Prepare(kTriangle, 4, small.get(), nullptr, &hit).ok());
  EXPECT_FALSE(hit);
  auto e = cache.Prepare(kTriangle, 4, large.get(), nullptr, &hit);
  ASSERT_TRUE(e.ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.size(), 2u);
  PlanCache::Entry small_e;
  ASSERT_TRUE(
      cache.Lookup(NormalizeQueryText(kTriangle), 4, small.get(), &small_e));
  EXPECT_GT(e->est_peak_bytes, small_e.est_peak_bytes);
}

TEST(ServerTest, PlanCacheEvictionCostsOneReparseNeverWrongResults) {
  auto catalog = MakeCatalog(41, 60, 10);
  ServerOptions so;
  so.executors = 1;
  so.plan_cache_max_entries = 2;
  QueryServer server(so);
  auto* session = server.OpenSession();

  // Three distinct entries through a two-entry cache, then the first
  // query again: its entry was evicted, so the return costs a re-parse
  // (parses == 4, not 3) but still answers correctly.
  QueryHandle first = session->Submit(MakeRequest(catalog.get(), kTriangle));
  server.Drain();
  session->Submit(MakeRequest(catalog.get(), kPath));
  session->Submit(MakeRequest(catalog.get(), kTriangle, 8));
  server.Drain();
  EXPECT_GE(server.plan_cache().stats().evictions, 1u);
  EXPECT_EQ(server.plan_cache().size(), 2u);

  QueryHandle again = session->Submit(MakeRequest(catalog.get(), kTriangle));
  server.Drain();
  ASSERT_TRUE(again.Get().status.ok()) << again.Get().status.ToString();
  EXPECT_FALSE(again.Get().cache_hit) << "evicted entry cannot hit";
  EXPECT_EQ(server.plan_cache().stats().parses, 4u);
  EXPECT_TRUE(again.Get().output.EqualsUnordered(first.Get().output));
}

TEST(ServerTest, FeedbackStoreIsBoundedByLru) {
  auto catalog = MakeCatalog(43, 50, 10);
  ServerOptions so;
  so.executors = 1;
  so.feedback_max_entries = 1;
  QueryServer server(so);
  auto* session = server.OpenSession();
  session->Submit(MakeRequest(catalog.get(), kTriangle));
  session->Submit(MakeRequest(catalog.get(), kPath));
  session->Submit(MakeRequest(catalog.get(), kTriangle, 8));
  server.Drain();
  FeedbackStore fb = server.SnapshotFeedback();
  EXPECT_EQ(fb.queries.size(), 1u);
  // The survivor is the most recent execution's entry.
  EXPECT_EQ(fb.queries[0].workers, 8);
}

// Feedback loop: the second execution of a hot query reuses the cached
// plan and the cache carries the measured peak for admission.
TEST(ServerTest, FeedbackRefreshesCachedPlan) {
  auto catalog = MakeCatalog(31, 120, 12);
  ServerOptions so;
  so.executors = 1;
  QueryServer server(so);
  auto* session = server.OpenSession();
  QueryHandle first =
      session->Submit(MakeRequest(catalog.get(), kTriangle, 4));
  server.Drain();
  const uint64_t measured = first.Get().metrics.peak_bytes;
  ASSERT_GT(measured, 0u);

  QueryHandle second =
      session->Submit(MakeRequest(catalog.get(), kTriangle, 4));
  server.Drain();
  EXPECT_TRUE(second.Get().cache_hit);
  // Admission now uses the measured figure, not the estimate.
  EXPECT_EQ(second.Get().est_peak_bytes, measured);
  // And the advice was re-derived from measurements.
  FeedbackStore fb = server.SnapshotFeedback();
  ASSERT_EQ(fb.queries.size(), 1u);
  EXPECT_FALSE(fb.queries[0].strategies.empty());
}

// ---------------------------------------------------------------------------
// Query lifecycle: bounded waits, cancellation, deadlines, shedding,
// barrier-checkpoint preemption, fault recovery under concurrent serving.
// ---------------------------------------------------------------------------

TEST(ServerLifecycleTest, WaitForTimesOutWithoutConsumingTheResult) {
  auto catalog = MakeCatalog(51, 40, 8);
  ServerOptions so;
  so.executors = 1;
  so.start_paused = true;
  QueryServer server(so);
  auto* session = server.OpenSession();
  QueryHandle h = session->Submit(MakeRequest(catalog.get(), kTriangle));
  // Paused server: the query cannot finish, so the bounded wait reports a
  // distinct timeout status...
  Status timed_out = h.WaitFor(0.01);
  EXPECT_EQ(timed_out.code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(h.Done());
  // ...without consuming anything: once the server runs, the same handle
  // still yields the full response.
  server.Start();
  server.Drain();
  EXPECT_TRUE(h.WaitFor(30.0).ok());
  EXPECT_TRUE(h.Done());
  EXPECT_TRUE(h.Get().status.ok()) << h.Get().status.ToString();
}

TEST(ServerLifecycleTest, CancelQueuedQueryResolvesImmediately) {
  auto catalog = MakeCatalog(53, 40, 8);
  ServerOptions so;
  so.executors = 1;
  so.start_paused = true;
  QueryServer server(so);
  auto* session = server.OpenSession();
  QueryHandle keep = session->Submit(MakeRequest(catalog.get(), kTriangle));
  QueryHandle gone = session->Submit(MakeRequest(catalog.get(), kPath));
  // The server is paused, so s1.q2 is still queued: Cancel resolves it
  // right now, without an executor ever touching it.
  EXPECT_TRUE(session->Cancel("s1.q2"));
  const QueryResponse& r = gone.Get();
  EXPECT_EQ(r.status.code(), StatusCode::kCancelled);
  EXPECT_EQ(r.dispatch_seq, 0u);  // never dispatched
  EXPECT_TRUE(r.metrics.failed);
  EXPECT_EQ(r.metrics.fail_code, StatusCode::kCancelled);
  EXPECT_TRUE(r.output.empty());
  EXPECT_TRUE(r.lifecycle.cancelled);
  // A resolved id is gone: cancelling again reports unknown.
  EXPECT_FALSE(session->Cancel("s1.q2"));
  server.Start();
  server.Drain();
  EXPECT_TRUE(keep.Get().status.ok()) << keep.Get().status.ToString();
  EXPECT_EQ(server.stats().cancelled, 1u);
  EXPECT_EQ(server.stats().completed, 1u);
}

TEST(ServerLifecycleTest, CancelKnobStopsARunningQueryAtAnExactPoll) {
  auto catalog = MakeCatalog(55, 120, 12);
  ServerOptions so;
  so.executors = 1;
  QueryServer server(so);
  auto* session = server.OpenSession();
  QueryRequest req = MakeRequest(catalog.get(), kTriangle);
  req.cancel_after_polls = 3;  // the dispatch poll plus two engine polls
  QueryHandle h = session->Submit(req);
  server.Drain();
  const QueryResponse& r = h.Get();
  EXPECT_EQ(r.status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(r.metrics.failed);
  EXPECT_EQ(r.metrics.fail_code, StatusCode::kCancelled);
  EXPECT_TRUE(r.lifecycle.cancelled);
  EXPECT_EQ(r.lifecycle.polls, 3u);
  EXPECT_GE(r.dispatch_seq, 1u);
  EXPECT_TRUE(r.output.empty());
  EXPECT_EQ(server.stats().cancelled, 1u);
  // A graceful FAIL still counts as a completed run, and as a failed one.
  EXPECT_EQ(server.stats().completed, 1u);
  EXPECT_EQ(server.stats().failed, 1u);
}

TEST(ServerLifecycleTest, DeadlineExpiredInQueueResolvesAtDispatch) {
  auto catalog = MakeCatalog(57, 40, 8);
  ServerOptions so;
  so.executors = 1;
  so.start_paused = true;
  QueryServer server(so);
  auto* session = server.OpenSession();
  QueryRequest req = MakeRequest(catalog.get(), kTriangle);
  req.deadline_seconds = 1e-9;  // expires while the server is still paused
  QueryHandle h = session->Submit(req);
  server.Start();
  server.Drain();
  const QueryResponse& r = h.Get();
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(r.metrics.failed);
  EXPECT_EQ(r.metrics.fail_code, StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(r.lifecycle.deadline_exceeded);
  EXPECT_EQ(r.lifecycle.polls, 1u);  // caught at the dispatch poll
  EXPECT_GE(r.dispatch_seq, 1u);     // dispatched, never entered the engine
  EXPECT_TRUE(r.output.empty());
  EXPECT_EQ(server.stats().deadline_exceeded, 1u);
}

TEST(ServerLifecycleTest, DefaultDeadlineAppliesWhenTheRequestSetsNone) {
  auto catalog = MakeCatalog(57, 40, 8);
  ServerOptions so;
  so.executors = 1;
  so.start_paused = true;
  so.default_deadline_seconds = 1e-9;
  QueryServer server(so);
  auto* session = server.OpenSession();
  QueryHandle h = session->Submit(MakeRequest(catalog.get(), kTriangle));
  server.Start();
  server.Drain();
  EXPECT_EQ(h.Get().status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(server.stats().deadline_exceeded, 1u);
}

TEST(ServerLifecycleTest, MidRunDeadlineKeepsPartialMetrics) {
  auto catalog = MakeCatalog(59, 120, 12);
  ServerOptions so;
  so.executors = 1;
  QueryServer server(so);
  auto* session = server.OpenSession();
  // Pin the strategy so both runs walk the identical poll sequence (the
  // feedback loop may otherwise upgrade the advised plan between them).
  QueryRequest ref_req = MakeRequest(catalog.get(), kTriangle);
  ref_req.force_strategy = true;
  ref_req.shuffle = ShuffleKind::kRegular;
  ref_req.join = JoinKind::kHashJoin;
  QueryHandle ref = session->Submit(ref_req);
  server.Drain();
  ASSERT_TRUE(ref.Get().status.ok()) << ref.Get().status.ToString();
  const uint64_t total_polls = ref.Get().lifecycle.polls;
  ASSERT_GT(total_polls, 2u);

  // The deadline trips at the second-to-last poll point, deep in the run:
  // the account keeps the work done up to the trip, the output is dropped.
  QueryRequest req = ref_req;
  req.deadline_after_polls = total_polls - 1;
  QueryHandle h = session->Submit(req);
  server.Drain();
  const QueryResponse& r = h.Get();
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(r.metrics.failed);
  EXPECT_TRUE(r.lifecycle.deadline_exceeded);
  EXPECT_EQ(r.lifecycle.polls, total_polls - 1);
  EXPECT_GT(r.metrics.TuplesShuffled(), 0u);
  EXPECT_TRUE(r.output.empty());
  EXPECT_EQ(server.stats().deadline_exceeded, 1u);
}

TEST(ServerLifecycleTest, OverloadShedsWithComputedRetryAfter) {
  auto catalog = MakeCatalog(61, 40, 8);
  ServerOptions so;
  so.executors = 1;
  so.start_paused = true;
  so.max_queue_depth = 2;
  QueryServer server(so);
  auto* session = server.OpenSession();
  QueryHandle a = session->Submit(MakeRequest(catalog.get(), kTriangle));
  QueryHandle b = session->Submit(MakeRequest(catalog.get(), kPath));
  // The third submission finds the queue at its cap and is shed
  // synchronously.
  QueryHandle c = session->Submit(MakeRequest(catalog.get(), kTriangle, 8));
  ASSERT_TRUE(c.Done());
  const QueryResponse& shed = c.Get();
  EXPECT_EQ(shed.status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(shed.status.message().find("admission queue full"),
            std::string::npos)
      << shed.status.ToString();
  // Not a placeholder: two queued not-yet-measured queries at the nominal
  // 50 ms each across one executor lane = 100 ms, exactly.
  EXPECT_DOUBLE_EQ(shed.retry_after_seconds, 0.1);
  EXPECT_EQ(server.stats().shed, 1u);
  EXPECT_EQ(server.stats().rejected, 1u);

  server.Start();
  server.Drain();
  EXPECT_TRUE(a.Get().status.ok()) << a.Get().status.ToString();
  EXPECT_TRUE(b.Get().status.ok()) << b.Get().status.ToString();
  EXPECT_EQ(server.stats().completed, 2u);
  // Once the backlog drained, the same submission is admitted again.
  QueryHandle d = session->Submit(MakeRequest(catalog.get(), kTriangle, 8));
  server.Drain();
  EXPECT_TRUE(d.Get().status.ok()) << d.Get().status.ToString();
  EXPECT_EQ(server.stats().shed, 1u);
}

TEST(ServerLifecycleTest, SmallBacklogPreemptsRunningLargeBitIdentically) {
  auto small_cat = MakeCatalog(13, 40, 8);
  auto large_cat = MakeCatalog(17, 4000, 40);
  const uint64_t small_est = EstimateFor(small_cat.get(), kTriangle, 2);
  const uint64_t large_est = EstimateFor(large_cat.get(), kTriangle, 4);
  ASSERT_LT(small_est, large_est);

  // Deterministic setup, no real-time window: the server starts paused
  // with arrivals small, large, small. The first small dispatch uses up the
  // small_per_large window of one, so the large query is dispatched next —
  // over the standing small backlog, which (level-triggered preemption)
  // asks it to yield at its first round barrier. The second small query
  // then runs before the large query resumes.
  TraceSession trace;  // outlives the server, which records into it
  ServerOptions so;
  so.executors = 1;
  so.start_paused = true;
  so.small_query_bytes = (small_est + large_est) / 2;
  so.small_per_large = 1;
  so.preempt_small_backlog = 1;
  so.trace = &trace;
  QueryServer server(so);
  auto* session = server.OpenSession();
  QueryHandle first_small =
      session->Submit(MakeRequest(small_cat.get(), kTriangle, 2));
  // Pinned to the multi-round regular shuffle so suspension has barriers
  // to honor.
  QueryRequest large = MakeRequest(large_cat.get(), kTriangle, 4);
  large.force_strategy = true;
  large.shuffle = ShuffleKind::kRegular;
  large.join = JoinKind::kHashJoin;
  QueryHandle lh = session->Submit(large);
  QueryHandle sh = session->Submit(MakeRequest(small_cat.get(), kTriangle, 2));
  server.Start();
  server.Drain();

  ASSERT_TRUE(first_small.Get().status.ok())
      << first_small.Get().status.ToString();
  ASSERT_TRUE(lh.Get().status.ok()) << lh.Get().status.ToString();
  ASSERT_TRUE(sh.Get().status.ok()) << sh.Get().status.ToString();
  const QueryResponse& large_response = lh.Get();
  const uint64_t suspended = server.stats().suspended;
  EXPECT_GE(suspended, 1u) << "preemption never captured a checkpoint";
  EXPECT_EQ(server.stats().resumed, suspended);
  EXPECT_GE(large_response.lifecycle.suspends, 1u);
  EXPECT_EQ(large_response.lifecycle.suspends,
            large_response.lifecycle.resumes);

  // The trace shows the yield: the small request's exec span lies between
  // the large request's suspend instant and its resumed exec.
  const std::string large_exec = "exec " + lh.Get().id;
  const std::string small_exec = "exec " + sh.Get().id;
  double suspend_ts = -1, resume_ts = -1, small_begin = -1, small_end = -1;
  for (const TraceEvent& e : trace.events()) {
    if (e.phase == TraceEvent::Phase::kInstant && e.name == "suspend" &&
        e.detail == lh.Get().id && suspend_ts < 0) {
      suspend_ts = e.ts_us;
    } else if (e.phase == TraceEvent::Phase::kBegin && e.name == large_exec &&
               suspend_ts >= 0 && resume_ts < 0) {
      resume_ts = e.ts_us;
    } else if (e.name == small_exec) {
      if (e.phase == TraceEvent::Phase::kBegin) small_begin = e.ts_us;
      if (e.phase == TraceEvent::Phase::kEnd) small_end = e.ts_us;
    }
  }
  ASSERT_GE(suspend_ts, 0) << "no suspend instant for " << lh.Get().id;
  ASSERT_GE(resume_ts, 0) << "no resumed exec span for " << lh.Get().id;
  ASSERT_GE(small_begin, 0) << "no exec span for " << sh.Get().id;
  EXPECT_LE(suspend_ts, small_begin);
  EXPECT_LE(small_begin, small_end);
  EXPECT_LE(small_end, resume_ts);

  // Preemption must be invisible in the result: output, every
  // deterministic metric, and the memory account all match an
  // uninterrupted solo run of the same pinned plan.
  SCOPED_TRACE("suspension must not leak into the result");
  ExpectMatchesSolo(large_response,
                    RunSolo(large_cat.get(), kTriangle, "RS_HJ", 4));
}

// Satellite proof: under concurrent serving with the watchdog armed, one
// query recovers from an injected mid-shuffle fault and one from an
// injected straggler, while neighbours run clean or stop at their first
// poll on a cancel or deadline knob. Every ok response — recovered and
// clean alike — is bit-identical to a solo run replaying the same plan and
// fault schedule, and the server's outcome counts and Prometheus export
// agree with the responses.
TEST(ServerLifecycleTest, ConcurrentFaultRecoveryMatchesSoloReplay) {
  auto twitter = MakeCatalog(11, 150, 14);
  auto freebase = MakeCatalog(23, 90, 10);
  // Drops one channel of the first exchange on its first attempt: the
  // recovery ladder retries the exchange and converges.
  constexpr const char* kMidShuffleFault = "drop@x=0,p=1,c=2";
  // Worker 2's first attempt of every stage runs 8x slow on the virtual
  // clock: the watchdog (factor 4) converts it into a retry.
  constexpr const char* kStraggler = "slow@worker=2,attempt=0,factor=8";

  ServerOptions so;
  so.executors = 3;
  so.watchdog_straggle_factor = 4;
  QueryServer server(so);
  auto* session = server.OpenSession();

  struct Submitted {
    Catalog* catalog;
    std::string text;
    int workers;
    std::string faults;
    StatusCode expect;
    QueryHandle handle;
  };
  std::vector<Submitted> all;
  for (int round = 0; round < 3; ++round) {
    QueryRequest faulted = MakeRequest(twitter.get(), kTriangle, 4);
    faulted.faults = kMidShuffleFault;
    faulted.force_strategy = true;  // keep the fault site addressable
    faulted.shuffle = ShuffleKind::kRegular;
    faulted.join = JoinKind::kHashJoin;
    all.push_back({twitter.get(), kTriangle, 4, kMidShuffleFault,
                   StatusCode::kOk, session->Submit(faulted)});
    all.push_back({freebase.get(), kPath, 3, "", StatusCode::kOk,
                   session->Submit(MakeRequest(freebase.get(), kPath, 3))});
    all.push_back({twitter.get(), kPath, 4, "", StatusCode::kOk,
                   session->Submit(MakeRequest(twitter.get(), kPath, 4))});
    QueryRequest cancel = MakeRequest(twitter.get(), kTriangle, 4);
    cancel.cancel_after_polls = 1;
    all.push_back({twitter.get(), kTriangle, 4, "", StatusCode::kCancelled,
                   session->Submit(cancel)});
    QueryRequest deadline = MakeRequest(freebase.get(), kPath, 3);
    deadline.deadline_after_polls = 1;
    all.push_back({freebase.get(), kPath, 3, "",
                   StatusCode::kDeadlineExceeded, session->Submit(deadline)});
    QueryRequest straggler = MakeRequest(twitter.get(), kPath, 4);
    straggler.faults = kStraggler;
    all.push_back({twitter.get(), kPath, 4, kStraggler, StatusCode::kOk,
                   session->Submit(straggler)});
  }
  server.Drain();

  uint64_t cancelled = 0, deadline_exceeded = 0;
  for (const Submitted& sub : all) {
    const QueryResponse& r = sub.handle.Get();
    if (sub.expect != StatusCode::kOk) {
      EXPECT_EQ(r.status.code(), sub.expect) << r.id << ": "
                                             << r.status.ToString();
      EXPECT_TRUE(r.metrics.failed) << r.id;
      EXPECT_TRUE(r.output.empty()) << r.id;
      if (r.status.code() == StatusCode::kCancelled) ++cancelled;
      if (r.status.code() == StatusCode::kDeadlineExceeded) {
        ++deadline_exceeded;
      }
      continue;
    }
    ASSERT_TRUE(r.status.ok()) << r.id << ": " << r.status.ToString();
    EXPECT_FALSE(r.metrics.failed) << r.id;
    if (!sub.faults.empty()) {
      EXPECT_GE(TotalRetries(r.metrics), 1u)
          << r.id << ": the injected fault never fired";
    }
    if (sub.faults == kStraggler) {
      EXPECT_GE(r.lifecycle.watchdog_trips, 1u)
          << r.id << ": the watchdog never caught the straggler";
    }
    ExpectMatchesSolo(r, RunSolo(sub.catalog, sub.text, r.strategy,
                                 sub.workers, sub.faults, r.bloom,
                                 so.watchdog_straggle_factor));
  }
  EXPECT_EQ(cancelled, 3u);
  EXPECT_EQ(deadline_exceeded, 3u);
  const QueryServer::Stats stats = server.stats();
  EXPECT_EQ(stats.completed, all.size());
  EXPECT_EQ(stats.failed, cancelled + deadline_exceeded);
  EXPECT_EQ(stats.cancelled, cancelled);
  EXPECT_EQ(stats.deadline_exceeded, deadline_exceeded);

  // The fleet export carries every outcome this mix provoked.
  const std::string prom = server.RenderMetricsProm();
  ASSERT_TRUE(ValidatePrometheusText(prom).ok())
      << ValidatePrometheusText(prom).ToString();
  for (const char* outcome : {"ok", "cancelled", "deadline_exceeded"}) {
    const std::string sample =
        std::string("ptp_server_requests_total{outcome=\"") + outcome +
        "\"} ";
    const size_t at = prom.find(sample);
    ASSERT_NE(at, std::string::npos) << sample;
    EXPECT_GT(std::stod(prom.substr(at + sample.size())), 0) << sample;
  }
}

}  // namespace
}  // namespace ptp
