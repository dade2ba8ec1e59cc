// Memory-meter and estimate-feedback tests: MemStats/ScopedMemCharge
// invariants, stage folding in worker-index order, soft-budget overage
// accounting, thread-count bit-identity of the byte accounting,
// recovered-vs-clean peak identity, shuffle-byte reconciliation against the
// profiler matrices and shuffle counters, QueryMetrics::Absorb byte
// semantics, feedback-store JSON round-trip, the advisor's feedback replay,
// the EXPLAIN ANALYZE memory section (golden), and the disabled fast path
// (which must not allocate).

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "alloc_counter.h"
#include "data/workloads.h"
#include "exec/shuffle.h"
#include "fault/fault.h"
#include "gtest/gtest.h"
#include "obs/counters.h"
#include "obs/explain.h"
#include "obs/feedback.h"
#include "obs/profile.h"
#include "obs/resource.h"
#include "plan/advisor.h"
#include "plan/strategies.h"
#include "query/parser.h"
#include "runtime/parallel.h"
#include "storage/catalog.h"
#include "test_util.h"

namespace ptp {
namespace {

using test::TinyScale;

// ---------------------------------------------------------------------------
// MemStats / ScopedMemCharge invariants.
// ---------------------------------------------------------------------------

TEST(MemStatsTest, ChargeTracksLiveAndPeakReleaseClamps) {
  MemStats s;
  s.Charge(MemCategory::kHashTable, 100);
  s.Charge(MemCategory::kIntermediate, 50);
  EXPECT_EQ(s.live, 150u);
  EXPECT_EQ(s.peak, 150u);
  EXPECT_EQ(s.TotalCharged(), 150u);
  s.Release(120);
  EXPECT_EQ(s.live, 30u);
  EXPECT_EQ(s.peak, 150u);  // high-water mark survives releases
  s.Release(1000);          // over-release clamps, never wraps
  EXPECT_EQ(s.live, 0u);
  EXPECT_EQ(s.charged[static_cast<size_t>(MemCategory::kHashTable)], 100u);
  s.Reset();
  EXPECT_EQ(s.TotalCharged(), 0u);
  EXPECT_EQ(s.peak, 0u);
}

TEST(ScopedMemChargeTest, RaiiReleasesAndMoveTransfersOwnership) {
  ResourceMeter meter;
  runtime::ScopedQueryContext sinks({.meter = &meter});
  meter.BeginQuery("q");
  {
    ScopedMemCharge a(MemCategory::kTrie, 64);
    EXPECT_EQ(a.bytes(), 64u);
    ScopedMemCharge b = std::move(a);  // a must not double-release
    EXPECT_EQ(a.bytes(), 0u);
    EXPECT_EQ(b.bytes(), 64u);
  }
  const QueryMemory* q = meter.FindQuery("q");
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->live_bytes, 0u);
  EXPECT_EQ(q->peak_bytes, 64u);
  EXPECT_EQ(q->charged[static_cast<size_t>(MemCategory::kTrie)], 64u);
}

TEST(ResourceMeterTest, BookStageFoldsWorkerPeaksIntoQueryHighWater) {
  ResourceMeter meter;
  meter.BeginQuery("q");
  meter.Charge(MemCategory::kIntermediate, 100);  // coordinator-held bytes

  std::vector<MemStats> workers(3);
  workers[0].Charge(MemCategory::kHashTable, 10);
  workers[1].Charge(MemCategory::kHashTable, 30);
  workers[1].Release(30);  // released, but the peak is what counts
  workers[2].Charge(MemCategory::kSortScratch, 5);
  const uint64_t stage_peak = meter.BookStageMemory("join_1", workers);
  EXPECT_EQ(stage_peak, 45u);

  const QueryMemory* q = meter.FindQuery("q");
  ASSERT_NE(q, nullptr);
  // Query high-water = coordinator live + the stage's concurrent peaks.
  EXPECT_EQ(q->peak_bytes, 145u);
  ASSERT_EQ(q->stages.size(), 1u);
  EXPECT_EQ(q->stages[0].label, "join_1");
  EXPECT_EQ(q->stages[0].peak_bytes, 45u);
  EXPECT_EQ(q->stages[0].worker_peak_bytes,
            (std::vector<uint64_t>{10, 30, 5}));
  EXPECT_EQ(q->charged[static_cast<size_t>(MemCategory::kHashTable)], 40u);
  EXPECT_EQ(q->charged[static_cast<size_t>(MemCategory::kSortScratch)], 5u);
}

TEST(ResourceMeterTest, SoftBudgetRecordsOverageAndCountsOnce) {
  CounterRegistry reg;
  runtime::ScopedQueryContext sinks({.counters = &reg});
  ResourceMeter meter(/*budget_bytes=*/100);
  meter.BeginQuery("q");
  meter.Charge(MemCategory::kIntermediate, 150);
  meter.Charge(MemCategory::kIntermediate, 30);  // deeper overage

  const QueryMemory* q = meter.FindQuery("q");
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->max_overage_bytes, 80u);
  uint64_t overruns = 0;
  for (const auto& [name, value] : reg.CounterSnapshot()) {
    if (name == "mem.budget_overruns") overruns = value;
  }
  EXPECT_EQ(overruns, 1u) << "overrun warning must fire once per query";
  const std::string text = MemorySectionText(*q);
  EXPECT_NE(text.find("budget 100 B EXCEEDED by 80 B (soft limit)"),
            std::string::npos)
      << text;
}

// ---------------------------------------------------------------------------
// End-to-end: determinism of the byte accounting.
// ---------------------------------------------------------------------------

struct MeteredRun {
  StrategyResult result;
  std::vector<QueryMemory> sections;
};

MeteredRun RunMetered(int threads, const NormalizedQuery& q,
                      ShuffleKind shuffle, JoinKind join,
                      const StrategyOptions& opts,
                      const std::string& faults = "") {
  runtime::SetThreads(threads);
  ResourceMeter meter;
  std::unique_ptr<FaultInjector> injector;
  if (!faults.empty()) {
    auto plan = FaultPlan::Parse(faults);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    injector = std::make_unique<FaultInjector>(std::move(plan).value());
  }
  runtime::ScopedQueryContext sinks(
      {.meter = &meter, .faults = injector.get()});
  auto result = RunStrategy(q, shuffle, join, opts);
  runtime::SetThreads(0);
  EXPECT_TRUE(result.ok()) << result.status().ToString();

  MeteredRun run;
  run.result = std::move(result).value();
  run.sections = meter.Snapshot();
  return run;
}

TEST(ResourceEndToEndTest, AccountingIsBitIdenticalAcrossThreadCounts) {
  WorkloadFactory factory(TinyScale());
  auto wl = factory.Make(1);
  ASSERT_TRUE(wl.ok()) << wl.status().ToString();
  StrategyOptions opts;

  for (const auto& [shuffle, join] : AllStrategies()) {
    const std::string name = StrategyName(shuffle, join);
    MeteredRun one = RunMetered(1, wl->normalized, shuffle, join, opts);
    MeteredRun eight = RunMetered(8, wl->normalized, shuffle, join, opts);

    ASSERT_EQ(one.sections.size(), 1u) << name;
    ASSERT_EQ(eight.sections.size(), 1u) << name;
    const QueryMemory& a = one.sections[0];
    const QueryMemory& b = eight.sections[0];
    EXPECT_GT(a.peak_bytes, 0u) << name;
    EXPECT_EQ(a.peak_bytes, b.peak_bytes) << name;
    EXPECT_EQ(a.TotalCharged(), b.TotalCharged()) << name;
    for (size_t c = 0; c < kNumMemCategories; ++c) {
      EXPECT_EQ(a.charged[c], b.charged[c])
          << name << " category "
          << MemCategoryName(static_cast<MemCategory>(c));
    }
    ASSERT_EQ(a.stages.size(), b.stages.size()) << name;
    for (size_t s = 0; s < a.stages.size(); ++s) {
      EXPECT_EQ(a.stages[s].label, b.stages[s].label);
      EXPECT_EQ(a.stages[s].peak_bytes, b.stages[s].peak_bytes)
          << name << "/" << a.stages[s].label;
      EXPECT_EQ(a.stages[s].worker_peak_bytes, b.stages[s].worker_peak_bytes)
          << name << "/" << a.stages[s].label;
    }
    // The booked bytes surface identically in the result metrics.
    EXPECT_EQ(one.result.metrics.peak_bytes, eight.result.metrics.peak_bytes)
        << name;
    EXPECT_EQ(one.result.metrics.peak_bytes,
              static_cast<size_t>(a.peak_bytes))
        << name;
  }
}

TEST(ResourceEndToEndTest, RecoveredRunPeaksMatchCleanRun) {
  WorkloadFactory factory(TinyScale());
  auto wl = factory.Make(1);
  ASSERT_TRUE(wl.ok()) << wl.status().ToString();
  StrategyOptions opts;

  MeteredRun clean = RunMetered(1, wl->normalized, ShuffleKind::kRegular,
                                JoinKind::kHashJoin, opts);
  MeteredRun faulted = RunMetered(8, wl->normalized, ShuffleKind::kRegular,
                                  JoinKind::kHashJoin, opts,
                                  "crash@worker=3");
  size_t retries = 0;
  for (const StageMetrics& s : faulted.result.metrics.stages)
    retries += s.retries;
  for (const ShuffleMetrics& s : faulted.result.metrics.shuffles)
    retries += s.retries;
  ASSERT_GE(retries, 1u) << "fault schedule did not trigger a recovery";

  // Only the successful attempt of every barrier is booked: recovered runs
  // report the same peaks (stage and query) as a clean run. Cumulative
  // charges may differ — abandoned delivery attempts charge and release.
  ASSERT_EQ(clean.sections.size(), faulted.sections.size());
  const QueryMemory& c = clean.sections[0];
  const QueryMemory& f = faulted.sections[0];
  EXPECT_EQ(c.peak_bytes, f.peak_bytes);
  ASSERT_EQ(c.stages.size(), f.stages.size());
  for (size_t s = 0; s < c.stages.size(); ++s) {
    EXPECT_EQ(c.stages[s].label, f.stages[s].label);
    EXPECT_EQ(c.stages[s].peak_bytes, f.stages[s].peak_bytes)
        << c.stages[s].label;
    EXPECT_EQ(c.stages[s].worker_peak_bytes, f.stages[s].worker_peak_bytes)
        << c.stages[s].label;
    for (size_t cat = 0; cat < kNumMemCategories; ++cat) {
      EXPECT_EQ(c.stages[s].charged[cat], f.stages[s].charged[cat])
          << c.stages[s].label;
    }
  }
  EXPECT_EQ(clean.result.metrics.peak_bytes,
            faulted.result.metrics.peak_bytes);
}

TEST(ResourceEndToEndTest, ShuffleBytesReconcileWithProfilerAndCounters) {
  WorkloadFactory factory(TinyScale());
  auto wl = factory.Make(1);
  ASSERT_TRUE(wl.ok()) << wl.status().ToString();
  StrategyOptions opts;

  runtime::SetThreads(1);
  ResourceMeter meter;
  CounterRegistry reg;
  QueryProfile profile;
  runtime::ScopedQueryContext sinks(
      {.counters = &reg, .profile = &profile, .meter = &meter});
  auto result = RunStrategy(wl->normalized, ShuffleKind::kRegular,
                            JoinKind::kHashJoin, opts);
  runtime::SetThreads(0);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  uint64_t mem_shuffle = 0;
  uint64_t bytes_sent = 0;
  for (const auto& [name, value] : reg.CounterSnapshot()) {
    if (name == "mem.shuffle_buffer_bytes") mem_shuffle = value;
    if (name == "shuffle.bytes_sent") bytes_sent = value;
  }
  ASSERT_GT(bytes_sent, 0u);
  // The meter's shuffle-buffer charge is tuples_sent * arity * 8 per
  // exchange — definitionally the shuffle.bytes_sent counter, and (on
  // unsampled runs) the profiler's per-channel matrix byte totals.
  EXPECT_EQ(mem_shuffle, bytes_sent);
  const auto sections = profile.Snapshot();
  ASSERT_EQ(sections.size(), 1u);
  uint64_t matrix_bytes = 0;
  for (const ShuffleProfile& sp : sections[0].shuffles) {
    matrix_bytes += sp.matrix.TotalBytes();
  }
  EXPECT_EQ(matrix_bytes, bytes_sent);
  const auto mem_sections = meter.Snapshot();
  ASSERT_EQ(mem_sections.size(), 1u);
  EXPECT_EQ(mem_sections[0]
                .charged[static_cast<size_t>(MemCategory::kShuffleBuffer)],
            bytes_sent);
}

// ---------------------------------------------------------------------------
// QueryMetrics byte semantics.
// ---------------------------------------------------------------------------

TEST(MetricsBytesTest, AbsorbTakesMaxOfPeaksAndSumsCharges) {
  QueryMetrics a;
  a.peak_bytes = 100;
  a.charged_bytes = 10;
  QueryMetrics b;
  b.peak_bytes = 70;
  b.charged_bytes = 25;
  a.Absorb(b);
  // Sequential plan pieces reuse memory: the combined residency peak is
  // the larger piece, while cumulative charges add.
  EXPECT_EQ(a.peak_bytes, 100u);
  EXPECT_EQ(a.charged_bytes, 35u);

  QueryMetrics c;
  c.peak_bytes = 400;
  a.Absorb(c);
  EXPECT_EQ(a.peak_bytes, 400u);
  EXPECT_EQ(a.charged_bytes, 35u);
}

// ---------------------------------------------------------------------------
// Feedback store: q-error, round-trip, replacement semantics.
// ---------------------------------------------------------------------------

TEST(QErrorTest, SymmetricClampedAndToleratesMissingEstimates) {
  EXPECT_DOUBLE_EQ(QError(10, 1000), 100.0);
  EXPECT_DOUBLE_EQ(QError(1000, 10), 100.0);
  EXPECT_DOUBLE_EQ(QError(500, 500), 1.0);
  EXPECT_DOUBLE_EQ(QError(0, 0), 1.0);   // clamps to 1 tuple per side
  EXPECT_DOUBLE_EQ(QError(-1, 50), 1.0);  // missing estimate: nothing to audit
}

FeedbackStore HandBuiltStore() {
  FeedbackStore store;
  QueryFeedback* q = store.FindOrAdd("Q(x) :- R(x, y), S(y, x).", 16);
  StrategyFeedback rs;
  rs.strategy = "RS_HJ";
  rs.tuples_shuffled = 12345;
  rs.output_tuples = 678;
  rs.peak_bytes = 9999;
  rs.ops.push_back({FeedbackOp::Kind::kStage, "join_1", 100.0, 450.0, 0.0});
  rs.ops.push_back(
      {FeedbackOp::Kind::kExchange, "R ->h(y)", -1.0, 500.0, 2.5});
  q->strategies.push_back(std::move(rs));
  StrategyFeedback hc;
  hc.strategy = "HC_TJ";
  hc.failed = true;
  q->strategies.push_back(std::move(hc));
  return store;
}

TEST(FeedbackStoreTest, JsonRoundTripPreservesEveryField) {
  const FeedbackStore store = HandBuiltStore();
  auto parsed = FeedbackStore::Parse(store.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->queries.size(), 1u);
  const QueryFeedback* q = parsed->Find("Q(x) :- R(x, y), S(y, x).", 16);
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->workers, 16);
  ASSERT_EQ(q->strategies.size(), 2u);
  const StrategyFeedback* rs = q->FindStrategy("RS_HJ");
  ASSERT_NE(rs, nullptr);
  EXPECT_FALSE(rs->failed);
  EXPECT_DOUBLE_EQ(rs->tuples_shuffled, 12345);
  EXPECT_DOUBLE_EQ(rs->output_tuples, 678);
  EXPECT_DOUBLE_EQ(rs->peak_bytes, 9999);
  ASSERT_EQ(rs->ops.size(), 2u);
  EXPECT_EQ(rs->ops[0].kind, FeedbackOp::Kind::kStage);
  EXPECT_EQ(rs->ops[0].label, "join_1");
  EXPECT_DOUBLE_EQ(rs->ops[0].estimated, 100.0);
  EXPECT_DOUBLE_EQ(rs->ops[0].actual, 450.0);
  EXPECT_EQ(rs->ops[1].kind, FeedbackOp::Kind::kExchange);
  EXPECT_DOUBLE_EQ(rs->ops[1].skew, 2.5);
  EXPECT_DOUBLE_EQ(rs->MaxExchangeSkew(), 2.5);
  const StrategyFeedback* hc = q->FindStrategy("HC_TJ");
  ASSERT_NE(hc, nullptr);
  EXPECT_TRUE(hc->failed);
  // FindFamily skips failed runs.
  EXPECT_EQ(q->FindFamily("HC_"), nullptr);
  EXPECT_EQ(q->FindFamily("RS_"), rs);
}

TEST(FeedbackStoreTest, RejectsWrongVersionAndGarbage) {
  EXPECT_FALSE(FeedbackStore::Parse("{\"version\":999,\"queries\":[]}").ok());
  EXPECT_FALSE(FeedbackStore::Parse("not json at all").ok());
}

TEST(FeedbackStoreTest, FindOrAddKeysOnQueryAndWorkers) {
  FeedbackStore store;
  QueryFeedback* a = store.FindOrAdd("q", 8);
  a->strategies.push_back({});
  EXPECT_EQ(store.FindOrAdd("q", 8), a);  // same pair: replaced in place
  EXPECT_EQ(store.queries.size(), 1u);
  store.FindOrAdd("q", 16);  // same query, different cluster size
  EXPECT_EQ(store.queries.size(), 2u);
  EXPECT_EQ(store.Find("q", 4), nullptr);
}

// ---------------------------------------------------------------------------
// Advisor feedback replay.
// ---------------------------------------------------------------------------

NormalizedQuery TwoAtomQuery(Rng* rng) {
  Catalog catalog;
  catalog.Put(test::RandomBinaryRelation("R", {"x", "y"}, 600, 50, rng));
  catalog.Put(test::RandomBinaryRelation("S", {"y", "z"}, 600, 50, rng));
  auto parsed = ParseDatalog("Q(x, z) :- R(x, y), S(y, z).", nullptr);
  EXPECT_TRUE(parsed.ok());
  auto nq = Normalize(*parsed, catalog);
  EXPECT_TRUE(nq.ok()) << nq.status().ToString();
  return *nq;
}

TEST(AdvisorFeedbackTest, MeasuredShuffleVolumeRepicksStrategy) {
  Rng rng(21);
  const NormalizedQuery q = TwoAtomQuery(&rng);
  const StrategyAdvice blind = AdviseStrategy(q, 16);
  ASSERT_EQ(blind.shuffle, ShuffleKind::kRegular)
      << "two-atom join must look RS-cheapest blind";
  EXPECT_FALSE(blind.used_feedback);

  // Feedback claims the regular shuffle actually moved 100x the estimate
  // (and measured heavy consumer skew): the advisor must re-pick.
  FeedbackStore store;
  QueryFeedback* entry = store.FindOrAdd("ignored-key", 16);
  StrategyFeedback rs;
  rs.strategy = "RS_HJ";
  rs.tuples_shuffled = blind.est_rs_tuples * 100;
  rs.ops.push_back(
      {FeedbackOp::Kind::kExchange, "R ->h(y)", -1.0, 1200.0, 10.0});
  entry->strategies.push_back(std::move(rs));

  const StrategyAdvice replay = AdviseStrategy(q, 16, entry);
  EXPECT_TRUE(replay.used_feedback);
  EXPECT_NE(replay.shuffle, ShuffleKind::kRegular);
  EXPECT_DOUBLE_EQ(replay.est_rs_tuples, blind.est_rs_tuples * 100);
  EXPECT_DOUBLE_EQ(replay.est_rs_skew, 10.0);
  EXPECT_GE(replay.blind_max_qerror, 100.0);
  EXPECT_DOUBLE_EQ(replay.feedback_max_qerror, 1.0);
  EXPECT_NE(replay.rationale.find("[measured;"), std::string::npos)
      << replay.rationale;
}

TEST(AdvisorFeedbackTest, FailedRegularShuffleFamilyIsNeverRepicked) {
  Rng rng(21);
  const NormalizedQuery q = TwoAtomQuery(&rng);
  ASSERT_EQ(AdviseStrategy(q, 16).shuffle, ShuffleKind::kRegular);

  FeedbackStore store;
  QueryFeedback* entry = store.FindOrAdd("ignored-key", 16);
  StrategyFeedback rs_hj;
  rs_hj.strategy = "RS_HJ";
  rs_hj.failed = true;
  entry->strategies.push_back(std::move(rs_hj));
  StrategyFeedback rs_tj;
  rs_tj.strategy = "RS_TJ";
  rs_tj.failed = true;
  entry->strategies.push_back(std::move(rs_tj));

  const StrategyAdvice replay = AdviseStrategy(q, 16, entry);
  EXPECT_NE(replay.shuffle, ShuffleKind::kRegular);
  EXPECT_NE(replay.rationale.find("FAILed before"), std::string::npos)
      << replay.rationale;
}

TEST(AdvisorFeedbackTest, CollectFeedbackRecordsStagesAndExchanges) {
  WorkloadFactory factory(TinyScale());
  auto wl = factory.Make(1);  // triangle: three atoms, two RS rounds
  ASSERT_TRUE(wl.ok()) << wl.status().ToString();
  StrategyOptions opts;
  MeteredRun run = RunMetered(1, wl->normalized, ShuffleKind::kRegular,
                              JoinKind::kHashJoin, opts);

  const StrategyFeedback sf =
      CollectStrategyFeedback(wl->normalized, "RS_HJ", run.result);
  EXPECT_EQ(sf.strategy, "RS_HJ");
  EXPECT_FALSE(sf.failed);
  EXPECT_DOUBLE_EQ(sf.tuples_shuffled,
                   static_cast<double>(run.result.metrics.TuplesShuffled()));
  EXPECT_DOUBLE_EQ(sf.peak_bytes,
                   static_cast<double>(run.result.metrics.peak_bytes));
  EXPECT_GT(sf.peak_bytes, 0.0);

  // join_1 is the only non-final round of a 3-atom left-deep plan: it
  // carries the planner estimate; the final join_2 records measurement
  // only.
  const FeedbackOp* j1 = sf.FindOp("join_1");
  ASSERT_NE(j1, nullptr);
  EXPECT_EQ(j1->kind, FeedbackOp::Kind::kStage);
  EXPECT_GE(j1->estimated, 0.0);
  const FeedbackOp* j2 = sf.FindOp("join_2");
  ASSERT_NE(j2, nullptr);
  EXPECT_LT(j2->estimated, 0.0);

  size_t exchanges = 0;
  for (const FeedbackOp& op : sf.ops) {
    if (op.kind == FeedbackOp::Kind::kExchange) ++exchanges;
  }
  EXPECT_EQ(exchanges, run.result.metrics.shuffles.size());

  // The audit renders without estimates crashing on measurement-only ops.
  QueryFeedback qf;
  qf.query_key = wl->query.ToString();
  qf.workers = opts.num_workers;
  qf.strategies.push_back(sf);
  const std::string audit = QErrorAuditText(qf);
  EXPECT_NE(audit.find("q-error audit"), std::string::npos);
  EXPECT_NE(audit.find("join_1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE memory section.
// ---------------------------------------------------------------------------

TEST(ExplainMemoryTest, GoldenMemorySectionForHandBuiltAccounting) {
  QueryMemory mem;
  mem.name = "RS_HJ";
  mem.peak_bytes = 5000;
  mem.live_bytes = 0;
  mem.budget_bytes = 4096;
  mem.max_overage_bytes = 904;
  mem.charged[static_cast<size_t>(MemCategory::kHashTable)] = 2000;
  mem.charged[static_cast<size_t>(MemCategory::kShuffleBuffer)] = 3000;
  StageMemory stage;
  stage.label = "join_1";
  stage.peak_bytes = 3200;
  stage.worker_peak_bytes = {1600, 1600};
  mem.stages.push_back(std::move(stage));

  const std::string golden =
      "memory: peak 5000 B, charged 5000 B\n"
      "  hash_table_bytes      2000 B\n"
      "  shuffle_buffer_bytes  3000 B\n"
      "  stage join_1          peak 3200 B across 2 worker(s)\n"
      "  budget 4096 B EXCEEDED by 904 B (soft limit)\n";
  EXPECT_EQ(MemorySectionText(mem), golden);
}

TEST(ExplainMemoryTest, ExplainAppendsMemorySectionWhenMeterGiven) {
  WorkloadFactory factory(TinyScale());
  auto wl = factory.Make(1);
  ASSERT_TRUE(wl.ok()) << wl.status().ToString();
  StrategyOptions opts;

  runtime::SetThreads(1);
  ResourceMeter meter;
  runtime::ScopedQueryContext sinks({.meter = &meter});
  auto result = RunStrategy(wl->normalized, ShuffleKind::kRegular,
                            JoinKind::kHashJoin, opts);
  runtime::SetThreads(0);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  ExplainOptions expl;
  expl.include_timings = false;
  expl.resources = &meter;
  const std::string with = ExplainAnalyzeText("RS_HJ", *result, expl);
  expl.resources = nullptr;
  const std::string without = ExplainAnalyzeText("RS_HJ", *result, expl);

  EXPECT_EQ(without.find("memory:"), std::string::npos);
  EXPECT_NE(with.find("memory: peak"), std::string::npos);
  EXPECT_NE(with.find("shuffle_buffer_bytes"), std::string::npos);
  // Unknown strategy: no section, no crash.
  expl.resources = &meter;
  const std::string other = ExplainAnalyzeText("HC_TJ", *result, expl);
  EXPECT_EQ(other.find("memory:"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Disabled fast path: probing an absent meter must not allocate.
// ---------------------------------------------------------------------------

TEST(ResourceDisabledTest, NullMeterHooksDoNotAllocate) {
  runtime::ScopedQueryContext detached{runtime::QueryContext{}};
  const size_t before = g_alloc_count.load();
  for (int i = 0; i < 1000; ++i) {
    MemCharge(MemCategory::kHashTable, 128);
    MemRelease(128);
    if (ResourceMeter* m = ActiveResourceMeter()) {
      (void)m;
      ADD_FAILURE() << "meter unexpectedly installed";
    }
  }
  EXPECT_EQ(g_alloc_count.load(), before)
      << "disabled meter hooks must not allocate";
}

}  // namespace
}  // namespace ptp
