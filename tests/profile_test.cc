// Query-profiler unit and integration tests: Misra–Gries sketch guarantees
// against exact counts, HotKeyShard undercount bounds, communication-matrix
// conservation against the shuffle metrics, skew decomposition, thread-count
// bit-identity of the exported JSON, fault-recovery transparency, the
// EXPLAIN ANALYZE profile section, and the disabled fast path (which must
// not allocate).

#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "alloc_counter.h"
#include "common/hash.h"
#include "data/workloads.h"
#include "exec/cluster.h"
#include "exec/shuffle.h"
#include "fault/fault.h"
#include "gtest/gtest.h"
#include "obs/explain.h"
#include "obs/profile.h"
#include "obs/profile_report.h"
#include "obs/trace.h"
#include "plan/strategies.h"
#include "runtime/parallel.h"
#include "test_util.h"

namespace ptp {
namespace {

using test::TinyScale;

// ---------------------------------------------------------------------------
// MisraGries: sketch guarantees against exact reference counts.
// ---------------------------------------------------------------------------

/// Deterministic Zipf-ish stream: key k in [0, distinct) appears
/// round-robin with frequency proportional to 1 / (k + 1). Returns the
/// stream (fixed order) and writes the exact per-key counts.
std::vector<uint64_t> ZipfStream(size_t distinct, size_t repeats,
                                 std::map<uint64_t, uint64_t>* exact) {
  std::vector<uint64_t> stream;
  for (size_t r = 0; r < repeats; ++r) {
    for (uint64_t k = 0; k < distinct; ++k) {
      const size_t copies = repeats / (static_cast<size_t>(k) + 1) > r ? 1 : 0;
      if (copies == 0) continue;
      stream.push_back(k);
      ++(*exact)[k];
    }
  }
  return stream;
}

TEST(MisraGriesTest, StreamingBoundsOnZipfKeys) {
  std::map<uint64_t, uint64_t> exact;
  const std::vector<uint64_t> stream = ZipfStream(500, 200, &exact);
  MisraGries sketch(16);
  for (uint64_t k : stream) sketch.Add(k);

  EXPECT_EQ(sketch.total(), stream.size());
  EXPECT_LE(sketch.size(), sketch.capacity());
  // Deterministic shrink: error bound never exceeds n / (k + 1).
  EXPECT_LE(sketch.error_bound(),
            stream.size() / (sketch.capacity() + 1));
  for (const auto& [key, count] : exact) {
    const uint64_t est = sketch.LowerBound(key);
    EXPECT_LE(est, count) << "key " << key;
    EXPECT_GE(est + sketch.error_bound(), count) << "key " << key;
    if (count > sketch.error_bound()) {
      EXPECT_GT(est, 0u) << "heavy key " << key << " missing";
    }
  }
}

TEST(MisraGriesTest, MergePreservesBounds) {
  std::map<uint64_t, uint64_t> exact;
  const std::vector<uint64_t> stream = ZipfStream(300, 120, &exact);
  MisraGries a(8), b(8);
  for (size_t i = 0; i < stream.size(); ++i) {
    (i % 2 == 0 ? a : b).Add(stream[i]);
  }
  a.Merge(b);
  EXPECT_EQ(a.total(), stream.size());
  for (const auto& [key, count] : exact) {
    EXPECT_LE(a.LowerBound(key), count);
    EXPECT_GE(a.LowerBound(key) + a.error_bound(), count);
  }
}

TEST(MisraGriesTest, FromExactCountsWithinCapacityIsExact) {
  std::vector<MisraGries::Entry> counts = {{7, 100}, {9, 40}, {11, 3}};
  MisraGries sketch = MisraGries::FromCounts(counts);
  EXPECT_EQ(sketch.total(), 143u);
  EXPECT_EQ(sketch.error_bound(), 0u);
  EXPECT_EQ(sketch.LowerBound(7), 100u);
  EXPECT_EQ(sketch.LowerBound(9), 40u);
  EXPECT_EQ(sketch.LowerBound(11), 3u);
}

TEST(MisraGriesTest, FromCountsTruncationBooksHeaviestExcluded) {
  // 10 keys with counts 1..10, capacity 4: keeps {10,9,8,7}, books 6.
  std::vector<MisraGries::Entry> counts;
  for (uint64_t k = 1; k <= 10; ++k) counts.push_back({k, k});
  MisraGries sketch = MisraGries::FromCounts(counts, /*extra_total=*/5,
                                             /*carried_error=*/2,
                                             /*capacity=*/4);
  EXPECT_EQ(sketch.total(), 55u + 5u);
  EXPECT_EQ(sketch.error_bound(), 6u + 2u);
  EXPECT_EQ(sketch.size(), 4u);
  EXPECT_EQ(sketch.LowerBound(10), 10u);
  EXPECT_EQ(sketch.LowerBound(6), 0u);  // excluded, covered by the bound
  const auto top = sketch.TopK(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].key, 10u);
  EXPECT_EQ(top[1].key, 9u);
}

// ---------------------------------------------------------------------------
// HotKeyShard: lower-bound estimates with a per-shard undercount bound.
// ---------------------------------------------------------------------------

TEST(HotKeyShardTest, TableSizingClampsToPowerOfTwo) {
  EXPECT_EQ(HotKeyShard(0).slots(), HotKeyShard::kMinSlots);
  EXPECT_EQ(HotKeyShard(100).slots(), 256u);  // pow2 >= 200
  EXPECT_EQ(HotKeyShard(size_t{1} << 20).slots(), HotKeyShard::kMaxSlots);
}

TEST(HotKeyShardTest, EstimatesAreLowerBoundsWithinEvictedBound) {
  std::map<uint64_t, uint64_t> exact;
  const std::vector<uint64_t> stream = ZipfStream(2000, 400, &exact);
  HotKeyShard shard(exact.size());
  for (uint64_t k : stream) shard.Add(k, Mix64(k));

  EXPECT_EQ(shard.total(), stream.size());
  std::map<uint64_t, uint64_t> estimates;
  for (const MisraGries::Entry& e : shard.Entries()) {
    estimates[e.key] = e.count;
  }
  for (const auto& [key, est] : estimates) {
    ASSERT_TRUE(exact.count(key)) << "phantom key " << key;
    EXPECT_LE(est, exact[key]) << "overcount on key " << key;
    EXPECT_GE(est + shard.evicted_bound(), exact[key]) << "key " << key;
  }
  // The hottest key must survive with a usable estimate: its frequency
  // dwarfs anything its slot's collisions can cancel.
  ASSERT_TRUE(estimates.count(0)) << "hottest key evicted";
  EXPECT_GE(estimates[0] + shard.evicted_bound(), exact[0]);
}

TEST(HotKeyShardTest, WeightedAddsMatchRepeatedAdds) {
  HotKeyShard ones(64), weighted(64);
  for (uint64_t k = 0; k < 40; ++k) {
    for (int i = 0; i < 5; ++i) ones.Add(k, Mix64(k));
    weighted.Add(k, Mix64(k), 5);
  }
  EXPECT_EQ(ones.total(), weighted.total());
  EXPECT_EQ(ones.Entries().size(), weighted.Entries().size());
}

// ---------------------------------------------------------------------------
// Shuffle profile: matrix conservation and skew reconciliation.
// ---------------------------------------------------------------------------

TEST(ShuffleProfileTest, MatrixConservesTuplesAndReconcilesSkew) {
  Rng rng(11);
  Relation rel = test::RandomBinaryRelation("R", {"x", "y"}, 500, 60, &rng);
  DistributedRelation dist = PartitionRoundRobin(rel, 8);

  QueryProfile profile;
  runtime::ScopedQueryContext sinks({.profile = &profile});
  ShuffleResult sr = HashShuffle(dist, {0}, 8, 7, "R ->h(x)").value();

  const auto sections = profile.Snapshot();
  ASSERT_EQ(sections.size(), 1u);
  ASSERT_EQ(sections[0].shuffles.size(), 1u);
  const ShuffleProfile& sp = sections[0].shuffles[0];
  EXPECT_EQ(sp.label, "R ->h(x)");
  EXPECT_EQ(sp.key_kind, SketchKeyKind::kValue);
  EXPECT_EQ(sp.sample_stride, 1u);

  // Conservation: row totals are per-producer emission, column totals are
  // the received fragment sizes, and the grand total matches the metric.
  EXPECT_EQ(sp.matrix.Total(), sr.metrics.tuples_sent);
  const std::vector<uint64_t> rows = sp.matrix.RowTotals();
  ASSERT_EQ(rows.size(), dist.size());
  for (size_t p = 0; p < dist.size(); ++p) {
    EXPECT_EQ(rows[p], dist[p].NumTuples()) << "producer " << p;
  }
  const std::vector<uint64_t> cols = sp.matrix.ColTotals();
  ASSERT_EQ(cols.size(), sr.data.size());
  for (size_t w = 0; w < sr.data.size(); ++w) {
    EXPECT_EQ(cols[w], sr.data[w].NumTuples()) << "consumer " << w;
  }
  EXPECT_EQ(sp.matrix.TotalBytes(), sp.matrix.Total() * 2 * 8);

  // Every shuffled tuple fed the sketch (stride 1), and the decomposition
  // reproduces the metric skew exactly, split into two non-negative parts.
  EXPECT_EQ(sp.keys.total(), sr.metrics.tuples_sent);
  const SkewDecomposition d = DecomposeSkew(sp);
  EXPECT_DOUBLE_EQ(d.measured_skew, sr.metrics.consumer_skew);
  EXPECT_GE(d.data_component, 0.0);
  EXPECT_GE(d.hash_component, 0.0);
  EXPECT_NEAR(d.data_component + d.hash_component, d.measured_skew - 1.0,
              1e-12);
}

TEST(ShuffleProfileTest, SingleColumnSketchCountsMatchExactFrequencies) {
  // Small single-column-key shuffle: the sketch holds exact per-value
  // frequencies (stride 1, distinct values below sketch capacity).
  Rng rng(13);
  Relation rel = test::RandomBinaryRelation("R", {"x", "y"}, 400, 20, &rng);
  std::map<uint64_t, uint64_t> exact;
  for (size_t row = 0; row < rel.NumTuples(); ++row) {
    ++exact[static_cast<uint64_t>(rel.At(row, 0))];
  }
  DistributedRelation dist = PartitionRoundRobin(rel, 4);

  QueryProfile profile;
  runtime::ScopedQueryContext sinks({.profile = &profile});
  HashShuffle(dist, {0}, 4, 7, "t").value();

  const auto sections = profile.Snapshot();
  const ShuffleProfile& sp = sections[0].shuffles[0];
  EXPECT_EQ(sp.keys.total(), rel.NumTuples());
  // Estimates are exact up to slot-collision slack (a couple of the 20
  // routing hashes may share a table slot), which the bound covers.
  for (const auto& [key, count] : exact) {
    EXPECT_LE(sp.keys.LowerBound(key), count) << "key " << key;
    EXPECT_GE(sp.keys.LowerBound(key) + sp.keys.error_bound(), count)
        << "key " << key;
  }
}

TEST(ShuffleProfileTest, LargeExchangeIsSampledDeterministically) {
  // Force sampling: more rows than kHotKeySampleBudget. The stride is a
  // power of two, recorded in the profile, and the sketch total is the
  // exact sample count times the stride.
  const size_t rows = kHotKeySampleBudget * 2 + 1000;
  Relation rel("R", Schema{"x", "y"});
  Rng rng(17);
  for (size_t i = 0; i < rows; ++i) {
    rel.AddTuple({static_cast<Value>(rng.Next() % 1000),
                  static_cast<Value>(i)});
  }
  DistributedRelation dist = PartitionRoundRobin(rel, 8);

  QueryProfile profile;
  runtime::ScopedQueryContext sinks({.profile = &profile});
  HashShuffle(dist, {0}, 8, 7, "big").value();

  const auto sections = profile.Snapshot();
  const ShuffleProfile& sp = sections[0].shuffles[0];
  EXPECT_EQ(sp.sample_stride, 4u);  // smallest pow2 with rows/S <= budget
  // Matrix is never sampled.
  EXPECT_EQ(sp.matrix.Total(), rows);
  // Every sampled row carries weight S: total() is within one stride of
  // the true row count per producer.
  EXPECT_GE(sp.keys.total(), rows - dist.size() * sp.sample_stride);
  EXPECT_LE(sp.keys.total(), rows + dist.size() * sp.sample_stride);
}

TEST(ShuffleProfileTest, BroadcastRecordsNoKeySketch) {
  Rng rng(19);
  Relation rel = test::RandomBinaryRelation("R", {"x", "y"}, 50, 10, &rng);
  DistributedRelation dist = PartitionRoundRobin(rel, 4);

  QueryProfile profile;
  runtime::ScopedQueryContext sinks({.profile = &profile});
  BroadcastShuffle(dist, 4, "Broadcast R").value();

  const auto sections = profile.Snapshot();
  const ShuffleProfile& sp = sections[0].shuffles[0];
  EXPECT_EQ(sp.key_kind, SketchKeyKind::kNone);
  EXPECT_EQ(sp.matrix.Total(), 4 * rel.NumTuples());
  // Without a sketch the whole imbalance is attributed to hash/placement.
  const SkewDecomposition d = DecomposeSkew(sp);
  EXPECT_DOUBLE_EQ(d.data_component, 0.0);
}

// ---------------------------------------------------------------------------
// Skew decomposition arithmetic.
// ---------------------------------------------------------------------------

ShuffleProfile HandBuiltShuffle(std::vector<uint64_t> consumer_loads,
                                std::vector<MisraGries::Entry> keys) {
  ShuffleProfile sp;
  sp.label = "hand-built";
  sp.matrix.Init(1, consumer_loads.size(), 2);
  uint64_t total = 0;
  for (size_t c = 0; c < consumer_loads.size(); ++c) {
    sp.matrix.At(0, c) = consumer_loads[c];
    total += consumer_loads[c];
  }
  if (!keys.empty()) {
    sp.key_kind = SketchKeyKind::kValue;
    sp.keys = MisraGries::FromCounts(std::move(keys));
  }
  return sp;
}

TEST(SkewDecompositionTest, HotKeyExplainsDataSkew) {
  // 4 workers, 100 tuples: one key of frequency 70 pins worker 0 at 70.
  // avg = 25, data floor = 70 -> data (70-25)/25 = 1.8, hash 0.
  const SkewDecomposition d = DecomposeSkew(
      HandBuiltShuffle({70, 10, 10, 10}, {{42, 70}, {1, 10}, {2, 10}}));
  EXPECT_DOUBLE_EQ(d.measured_skew, 70.0 / 25.0);
  EXPECT_DOUBLE_EQ(d.data_component, 1.8);
  EXPECT_DOUBLE_EQ(d.hash_component, 0.0);
  EXPECT_TRUE(d.has_top_key);
  EXPECT_EQ(d.top_key, 42u);
}

TEST(SkewDecompositionTest, CollisionsExplainHashSkew) {
  // Same loads but no key heavier than the average: the imbalance must be
  // collisions / placement, not data.
  const SkewDecomposition d = DecomposeSkew(
      HandBuiltShuffle({70, 10, 10, 10}, {{1, 25}, {2, 25}, {3, 25},
                                          {4, 25}}));
  EXPECT_DOUBLE_EQ(d.data_component, 0.0);
  EXPECT_DOUBLE_EQ(d.hash_component, d.measured_skew - 1.0);
}

TEST(SkewDecompositionTest, BalancedShuffleHasNoComponents) {
  const SkewDecomposition d =
      DecomposeSkew(HandBuiltShuffle({25, 25, 25, 25}, {{1, 100}}));
  EXPECT_DOUBLE_EQ(d.measured_skew, 1.0);
  EXPECT_DOUBLE_EQ(d.data_component, 0.0);
  EXPECT_DOUBLE_EQ(d.hash_component, 0.0);
}

// ---------------------------------------------------------------------------
// End-to-end: strategies, fault recovery, thread-count bit-identity.
// ---------------------------------------------------------------------------

/// Runs one strategy with a profile installed (optionally under a fault
/// schedule) and returns the profile JSON without timings plus the result.
struct ProfiledRun {
  StrategyResult result;
  std::string profile_json;
  std::vector<StrategyProfile> sections;
};

ProfiledRun RunProfiled(int threads, const NormalizedQuery& q,
                        ShuffleKind shuffle, JoinKind join,
                        const StrategyOptions& opts,
                        const std::string& faults = "") {
  runtime::SetThreads(threads);
  QueryProfile profile;
  std::unique_ptr<FaultInjector> injector;
  if (!faults.empty()) {
    auto plan = FaultPlan::Parse(faults);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    injector = std::make_unique<FaultInjector>(std::move(plan).value());
  }
  runtime::ScopedQueryContext sinks(
      {.profile = &profile, .faults = injector.get()});
  auto result = RunStrategy(q, shuffle, join, opts);
  runtime::SetThreads(0);
  EXPECT_TRUE(result.ok()) << result.status().ToString();

  ProfiledRun run;
  run.result = std::move(result).value();
  ProfileReportOptions report;
  report.include_timings = false;
  run.profile_json = ProfileJsonString(profile, report);
  run.sections = profile.Snapshot();
  return run;
}

TEST(ProfileEndToEndTest, ProfileIsBitIdenticalAcrossThreadCounts) {
  WorkloadFactory factory(TinyScale());
  auto wl = factory.Make(1);
  ASSERT_TRUE(wl.ok()) << wl.status().ToString();
  StrategyOptions opts;

  for (const auto& [shuffle, join] : AllStrategies()) {
    const std::string name = StrategyName(shuffle, join);
    ProfiledRun one = RunProfiled(1, wl->normalized, shuffle, join, opts);
    ProfiledRun eight = RunProfiled(8, wl->normalized, shuffle, join, opts);
    EXPECT_EQ(one.profile_json, eight.profile_json)
        << name << ": profile depends on thread count";
  }
}

TEST(ProfileEndToEndTest, RecoveredRunProfilesIdenticallyToCleanRun) {
  WorkloadFactory factory(TinyScale());
  auto wl = factory.Make(1);
  ASSERT_TRUE(wl.ok()) << wl.status().ToString();
  StrategyOptions opts;

  ProfiledRun clean =
      RunProfiled(1, wl->normalized, ShuffleKind::kRegular, JoinKind::kHashJoin,
                  opts);
  ProfiledRun faulted =
      RunProfiled(8, wl->normalized, ShuffleKind::kRegular, JoinKind::kHashJoin,
                  opts, "crash@worker=3");

  // Failed delivery attempts leave no profile entries: the recovered run's
  // matrices and sketches are identical to the clean run's...
  ASSERT_EQ(clean.sections.size(), faulted.sections.size());
  ASSERT_EQ(clean.sections[0].shuffles.size(),
            faulted.sections[0].shuffles.size());
  for (size_t s = 0; s < clean.sections[0].shuffles.size(); ++s) {
    const ShuffleProfile& cs = clean.sections[0].shuffles[s];
    const ShuffleProfile& fs = faulted.sections[0].shuffles[s];
    EXPECT_EQ(cs.matrix.tuples, fs.matrix.tuples) << cs.label;
    EXPECT_EQ(cs.keys.total(), fs.keys.total()) << cs.label;
  }

  // ...while the retry epochs record the recovery: attempts >= 1, and the
  // booked virtual backoff adds up to the metric.
  EXPECT_FALSE(faulted.sections[0].retry_epochs.empty());
  double backoff = 0;
  for (const RetryEpoch& e : faulted.sections[0].retry_epochs) {
    EXPECT_GE(e.attempt, 1);
    EXPECT_GT(e.backoff_seconds, 0.0);
    backoff += e.backoff_seconds;
  }
  EXPECT_NEAR(backoff, faulted.result.metrics.backoff_seconds, 1e-12);
  EXPECT_TRUE(clean.sections[0].retry_epochs.empty());
}

TEST(ProfileEndToEndTest, StageTimelinesCoverWorkersAndExportCounters) {
  WorkloadFactory factory(TinyScale());
  auto wl = factory.Make(1);
  ASSERT_TRUE(wl.ok()) << wl.status().ToString();
  StrategyOptions opts;

  runtime::SetThreads(1);
  QueryProfile profile;
  TraceSession trace;
  runtime::ScopedQueryContext sinks({.trace = &trace, .profile = &profile});
  auto result = RunStrategy(wl->normalized, ShuffleKind::kRegular,
                            JoinKind::kHashJoin, opts);
  runtime::SetThreads(0);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const auto sections = profile.Snapshot();
  ASSERT_EQ(sections.size(), 1u);
  ASSERT_FALSE(sections[0].stages.empty());
  for (const StageProfile& stage : sections[0].stages) {
    EXPECT_EQ(stage.busy_seconds.size(),
              static_cast<size_t>(opts.num_workers))
        << stage.label;
    double busy = 0;
    for (double b : stage.busy_seconds) busy += b;
    EXPECT_GE(busy, 0.0);
  }
  // The per-worker busy timeline is exported as Perfetto counter tracks.
  EXPECT_NE(trace.ToJson().find("profile.busy_seconds"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Report output: JSON round-trip and the EXPLAIN ANALYZE section.
// ---------------------------------------------------------------------------

TEST(ProfileReportTest, JsonRoundTripsThroughParser) {
  WorkloadFactory factory(TinyScale());
  auto wl = factory.Make(1);
  ASSERT_TRUE(wl.ok()) << wl.status().ToString();
  StrategyOptions opts;
  ProfiledRun run = RunProfiled(1, wl->normalized, ShuffleKind::kRegular,
                                JoinKind::kHashJoin, opts);

  auto doc = ParseJson(run.profile_json);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->NumberOr("version", 0), kProfileJsonVersion);
  const JsonValue* strategies = doc->Find("strategies");
  ASSERT_NE(strategies, nullptr);
  ASSERT_EQ(strategies->array.size(), 1u);
  const JsonValue& strat = strategies->array[0];
  const JsonValue* shuffles = strat.Find("shuffles");
  ASSERT_NE(shuffles, nullptr);
  EXPECT_FALSE(shuffles->array.empty());
  for (const JsonValue& sh : shuffles->array) {
    const JsonValue* keys = sh.Find("keys");
    if (keys == nullptr) continue;  // kNone shuffles carry no sketch
    EXPECT_GE(keys->NumberOr("sample_stride", 0), 1.0);
    EXPECT_GE(keys->NumberOr("total", -1), 0.0);
  }
}

TEST(ProfileReportTest, ExplainAnalyzeAppendsProfileSection) {
  WorkloadFactory factory(TinyScale());
  auto wl = factory.Make(1);
  ASSERT_TRUE(wl.ok()) << wl.status().ToString();
  StrategyOptions opts;

  runtime::SetThreads(1);
  QueryProfile profile;
  runtime::ScopedQueryContext sinks({.profile = &profile});
  auto result = RunStrategy(wl->normalized, ShuffleKind::kRegular,
                            JoinKind::kHashJoin, opts);
  runtime::SetThreads(0);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  ExplainOptions expl;
  expl.include_timings = false;
  expl.profile = &profile;
  const std::string with = ExplainAnalyzeText("RS_HJ", *result, expl);
  expl.profile = nullptr;
  const std::string without = ExplainAnalyzeText("RS_HJ", *result, expl);

  EXPECT_EQ(without.find("profile:"), std::string::npos);
  EXPECT_NE(with.find("profile:"), std::string::npos);
  EXPECT_NE(with.find("top keys"), std::string::npos);
  EXPECT_NE(with.find("skew: measured="), std::string::npos);
  // Deterministic mode drops the utilization bars but keeps the matrices.
  EXPECT_EQ(with.find("utilization:"), std::string::npos);
}

TEST(ProfileReportTest, GoldenSectionForHandBuiltProfile) {
  // Fully hand-built section: the exact text is deterministic, so a golden
  // comparison pins the report format.
  StrategyProfile section;
  section.name = "RS_HJ";
  ShuffleProfile sp = HandBuiltShuffle({70, 10, 10, 10},
                                       {{42, 70}, {7, 20}, {9, 10}});
  section.shuffles.push_back(std::move(sp));
  StageProfile stage;
  stage.label = "probe R";
  stage.busy_seconds = {0.5, 0.5};
  stage.wall_seconds = 0.5;
  stage.output_tuples = 100;
  section.stages.push_back(std::move(stage));
  section.retry_epochs.push_back({"probe R", 1, 0.25});

  ProfileReportOptions options;
  options.include_timings = false;
  options.top_channels = 2;
  options.top_keys = 2;
  const std::string text = ProfileSectionText(section, options);
  const std::string golden =
      "  profile:\n"
      "    shuffle hand-built: 1x4 channels, 100 tuples\n"
      "      top channels: 0->0 70 | 0->1 10\n"
      "      skew: measured=2.80 data=1.80 hash=0.00 (100% data / 0% hash)\n"
      "      top keys: 42~70 | 7~20 (error<=0 of 100)\n"
      "    stage probe R: out=100\n"
      "    retry probe R attempt 1: backoff=0.250s\n";
  EXPECT_EQ(text, golden);
}

// ---------------------------------------------------------------------------
// Disabled fast path: probing an absent profile must not allocate.
// ---------------------------------------------------------------------------

TEST(ProfileDisabledTest, NullProfileHooksDoNotAllocate) {
  runtime::ScopedQueryContext detached{runtime::QueryContext{}};
  const size_t before = g_alloc_count.load();
  uint64_t sink = 0;
  for (int i = 0; i < 1000; ++i) {
    if (QueryProfile* p = ActiveQueryProfile()) {
      (void)p;
      ++sink;  // never taken
    }
  }
  EXPECT_EQ(sink, 0u);
  EXPECT_EQ(g_alloc_count.load(), before)
      << "disabled profiler probe must not allocate";
}

}  // namespace
}  // namespace ptp
