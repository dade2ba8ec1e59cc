// Sideways information passing (docs/KERNELS.md): the split-block bloom
// filter itself, and the contract of pushing it into the shuffle producers.
// Under test: (1) the filter has no false negatives and its parallel
// per-fragment build is bit-identical to a serial build at any thread
// count; (2) for every paper workload and strategy, running with
// --bloom=on changes NOTHING observable except shuffle volume and bloom.*
// accounting — outputs, stages, and all other counters are bit-identical
// to the unfiltered run, at 1 and at 8 threads; (3) recovery replays a
// faulted filtered exchange bit-identically.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "data/workloads.h"
#include "exec/bloom.h"
#include "exec/shuffle.h"
#include "fault/fault.h"
#include "gtest/gtest.h"
#include "obs/counters.h"
#include "obs/explain.h"
#include "obs/feedback.h"
#include "plan/advisor.h"
#include "plan/strategies.h"
#include "runtime/parallel.h"
#include "test_util.h"

namespace ptp {
namespace {

using test::TinyScale;
using test::TotalRetries;

// ---------------------------------------------------------------------------
// The filter itself.
// ---------------------------------------------------------------------------

TEST(BloomFilterTest, NoFalseNegatives) {
  Rng rng(11);
  BloomFilter filter(10000);
  std::vector<uint64_t> keys;
  keys.reserve(10000);
  for (int i = 0; i < 10000; ++i) keys.push_back(Mix64(rng.Next()));
  for (uint64_t h : keys) filter.Add(h);
  for (uint64_t h : keys) {
    ASSERT_TRUE(filter.MayContain(h)) << "false negative for " << h;
  }
}

TEST(BloomFilterTest, FalsePositiveRateIsSmallAtBudgetLoad) {
  Rng rng(12);
  const size_t n = 4096;
  BloomFilter filter(n);
  for (size_t i = 0; i < n; ++i) filter.Add(Mix64(rng.Next()));
  // Fill lands near ln2 * k / bits-per-key when sized right, far from
  // saturation.
  EXPECT_GT(filter.FillRatio(), 0.05);
  EXPECT_LT(filter.FillRatio(), 0.5);
  size_t positives = 0;
  const size_t probes = 20000;
  for (size_t i = 0; i < probes; ++i) {
    if (filter.MayContain(Mix64(rng.Next() ^ 0xdeadbeefULL))) ++positives;
  }
  // 4 bits in one block at ~12 bits/key gives a few percent; anything over
  // 15% means the layout or sizing regressed.
  EXPECT_LT(static_cast<double>(positives) / static_cast<double>(probes),
            0.15);
}

TEST(BloomFilterTest, MergeOrRejectsMismatchedBlockCounts) {
  BloomFilter a(16);
  BloomFilter b(100000);
  ASSERT_NE(a.num_blocks(), b.num_blocks());
  EXPECT_FALSE(a.MergeOr(b).ok());
  BloomFilter c(16);
  EXPECT_TRUE(a.MergeOr(c).ok());
}

// The parallel per-fragment build must be indistinguishable from a serial
// insertion loop over the same tuples — same size, same bits (observed
// through MayContain and FillRatio) — at every thread count.
TEST(BloomFilterTest, ParallelBuildIsBitIdenticalToSerialBuild) {
  Rng rng(13);
  Relation rel = test::RandomBinaryRelation("R", {"x", "y"}, 5000, 300, &rng);
  DistributedRelation dist = PartitionRoundRobin(rel, 16);
  const uint64_t salt = 7;
  const std::vector<int> key_cols = {0};

  // Serial reference: one filter, one loop, same key hashing as the
  // shuffle scatter.
  BloomFilter ref(rel.NumTuples());
  for (size_t row = 0; row < rel.NumTuples(); ++row) {
    const Value* t = rel.Row(row);
    uint64_t h = 0;
    for (int col : key_cols) h = HashCombine(h, HashWithSalt(t[col], salt));
    ref.Add(h);
  }

  for (int threads : {1, 4, 8}) {
    runtime::SetThreads(threads);
    BloomBuildStats stats;
    BloomFilter built = BuildShuffleBloomFilter(dist, key_cols, salt, &stats);
    EXPECT_EQ(stats.build_tuples, rel.NumTuples());
    EXPECT_EQ(stats.size_bytes, built.SizeBytes());
    ASSERT_EQ(built.num_blocks(), ref.num_blocks()) << threads << " threads";
    EXPECT_DOUBLE_EQ(built.FillRatio(), ref.FillRatio())
        << threads << " threads";
    Rng probe_rng(14);
    for (int i = 0; i < 50000; ++i) {
      const uint64_t h = Mix64(probe_rng.Next());
      ASSERT_EQ(built.MayContain(h), ref.MayContain(h))
          << threads << " threads, probe " << i;
    }
  }
  runtime::SetThreads(0);
}

// ---------------------------------------------------------------------------
// On/off conformance across the strategy matrix.
// ---------------------------------------------------------------------------

struct RunRecord {
  StrategyResult result;
  std::vector<std::pair<std::string, uint64_t>> counters;
};

RunRecord RunWith(int threads, const NormalizedQuery& q, ShuffleKind shuffle,
                  JoinKind join, const StrategyOptions& opts,
                  const std::string& faults = "") {
  runtime::SetThreads(threads);
  CounterRegistry registry;
  std::unique_ptr<FaultInjector> injector;
  if (!faults.empty()) {
    auto plan = FaultPlan::Parse(faults);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    injector = std::make_unique<FaultInjector>(std::move(plan).value());
  }
  auto result = [&] {
    runtime::ScopedQueryContext sinks(
        {.counters = &registry, .faults = injector.get()});
    return RunStrategy(q, shuffle, join, opts);
  }();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  RunRecord record;
  record.result = std::move(result).value();
  record.counters = registry.CounterSnapshot();
  runtime::SetThreads(0);
  return record;
}

// Counters allowed to differ between a filtered and an unfiltered run:
// bloom accounting, shuffle volume, and local-join / sort work counters
// (the filter's whole point is that less data reaches them). Everything
// else — outputs, retries, faults, dedup — must be bit-identical.
bool MayVaryWithBloom(const std::string& name) {
  for (const char* prefix : {"bloom.", "shuffle.tuples_sent",
                             "shuffle.bytes_sent", "ht.", "pipeline.",
                             "sort.", "tj."}) {
    if (name.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

std::vector<std::pair<std::string, uint64_t>> InvariantCounters(
    const std::vector<std::pair<std::string, uint64_t>>& counters) {
  std::vector<std::pair<std::string, uint64_t>> kept;
  for (const auto& kv : counters) {
    if (!MayVaryWithBloom(kv.first)) kept.push_back(kv);
  }
  return kept;
}

uint64_t CounterOr(const RunRecord& r, const std::string& name,
                   uint64_t fallback = 0) {
  for (const auto& [n, v] : r.counters) {
    if (n == name) return v;
  }
  return fallback;
}

// EXPLAIN ANALYZE structure with the legitimately-varying volume tokens
// removed: shuffle lines keep only their label, the summary drops the
// shuffled= figure, and the bloom: section is excluded. What remains —
// plan line, stage rows, output/intermediate figures — must be identical
// between a filtered and an unfiltered run.
std::string StructuralExplainDigest(const std::string& text) {
  std::string digest;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.find("  bloom:") == 0) continue;
    size_t pos = line.find(": sent=");
    if (line.find("shuffle ") != std::string::npos &&
        pos != std::string::npos) {
      line = line.substr(0, pos);
    }
    pos = line.find("shuffled=");
    if (pos != std::string::npos) {
      const size_t keep = line.find("max_intermediate=");
      line = line.substr(0, pos) + (keep == std::string::npos
                                        ? std::string()
                                        : line.substr(keep));
    }
    digest += line;
    digest += '\n';
  }
  return digest;
}

void ExpectIdenticalRuns(const RunRecord& a, const RunRecord& b,
                         const std::string& context) {
  ASSERT_EQ(a.result.output.NumTuples(), b.result.output.NumTuples())
      << context;
  EXPECT_EQ(a.result.output.data(), b.result.output.data())
      << context << ": gathered results differ";
  const QueryMetrics& am = a.result.metrics;
  const QueryMetrics& bm = b.result.metrics;
  ASSERT_EQ(am.shuffles.size(), bm.shuffles.size()) << context;
  for (size_t i = 0; i < am.shuffles.size(); ++i) {
    EXPECT_EQ(am.shuffles[i].label, bm.shuffles[i].label) << context;
    EXPECT_EQ(am.shuffles[i].tuples_sent, bm.shuffles[i].tuples_sent)
        << context << ": shuffle " << am.shuffles[i].label;
    EXPECT_EQ(am.shuffles[i].bloom_tested, bm.shuffles[i].bloom_tested)
        << context << ": shuffle " << am.shuffles[i].label;
    EXPECT_EQ(am.shuffles[i].bloom_filtered, bm.shuffles[i].bloom_filtered)
        << context << ": shuffle " << am.shuffles[i].label;
  }
  EXPECT_EQ(am.output_tuples, bm.output_tuples) << context;
  EXPECT_EQ(a.counters, b.counters) << context;
}

class BloomConformance : public ::testing::TestWithParam<int> {
  void TearDown() override { runtime::SetThreads(0); }
};

TEST_P(BloomConformance, FilterChangesVolumeAndNothingElse) {
  WorkloadFactory factory(TinyScale());
  auto wl = factory.Make(GetParam());
  ASSERT_TRUE(wl.ok()) << wl.status().ToString();

  StrategyOptions off_opts;
  off_opts.num_workers = 16;
  StrategyOptions on_opts = off_opts;
  on_opts.bloom = true;

  for (const auto& [shuffle, join] : AllStrategies()) {
    const std::string name = StrategyName(shuffle, join);
    const std::string context = wl->id + std::string(" ") + name;
    RunRecord off = RunWith(1, wl->normalized, shuffle, join, off_opts);
    RunRecord on = RunWith(1, wl->normalized, shuffle, join, on_opts);

    // The filter never invents or loses results.
    ASSERT_EQ(off.result.output.NumTuples(), on.result.output.NumTuples())
        << context;
    EXPECT_EQ(off.result.output.data(), on.result.output.data())
        << context << ": bloom=on changed the gathered output";

    const QueryMetrics& om = off.result.metrics;
    const QueryMetrics& nm = on.result.metrics;
    EXPECT_EQ(om.output_tuples, nm.output_tuples) << context;
    EXPECT_EQ(om.max_intermediate_tuples, nm.max_intermediate_tuples)
        << context;
    ASSERT_EQ(om.stages.size(), nm.stages.size()) << context;
    for (size_t i = 0; i < om.stages.size(); ++i) {
      EXPECT_EQ(om.stages[i].label, nm.stages[i].label) << context;
      EXPECT_EQ(om.stages[i].output_tuples, nm.stages[i].output_tuples)
          << context << ": stage " << om.stages[i].label;
    }
    ASSERT_EQ(om.shuffles.size(), nm.shuffles.size()) << context;
    for (size_t i = 0; i < om.shuffles.size(); ++i) {
      EXPECT_EQ(om.shuffles[i].label, nm.shuffles[i].label) << context;
      EXPECT_LE(nm.shuffles[i].tuples_sent, om.shuffles[i].tuples_sent)
          << context << ": the filter can only shrink "
          << om.shuffles[i].label;
      EXPECT_EQ(om.shuffles[i].tuples_sent - nm.shuffles[i].tuples_sent,
                nm.shuffles[i].bloom_filtered)
          << context << ": dropped tuples must equal bloom_filtered at "
          << om.shuffles[i].label;
    }

    // Everything the filter doesn't touch stays bit-identical.
    EXPECT_EQ(InvariantCounters(off.counters), InvariantCounters(on.counters))
        << context;
    if (name.rfind("RS_", 0) != 0) {
      // Only the regular-shuffle family pushes filters today; elsewhere
      // --bloom=on must be a perfect no-op.
      ExpectIdenticalRuns(off, on, context + " (non-RS no-op)");
      EXPECT_EQ(CounterOr(on, "bloom.filters_built"), 0u) << context;
    }

    // EXPLAIN ANALYZE: same structure modulo the volume tokens.
    ExplainOptions eo;
    eo.include_timings = false;
    const std::string off_text =
        ExplainAnalyzeText(name, off.result, eo);
    const std::string on_text = ExplainAnalyzeText(name, on.result, eo);
    EXPECT_EQ(StructuralExplainDigest(off_text),
              StructuralExplainDigest(on_text))
        << context << "\n--- off ---\n" << off_text << "--- on ---\n"
        << on_text;

    // Filtered runs are thread-count independent, bloom accounting
    // included.
    RunRecord on8 = RunWith(8, wl->normalized, shuffle, join, on_opts);
    ExpectIdenticalRuns(on, on8, context + " (bloom on, 1 vs 8 threads)");
  }
}

INSTANTIATE_TEST_SUITE_P(Q1toQ8, BloomConformance, ::testing::Range(1, 9),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "Q" + std::to_string(info.param);
                         });

// Q3's constant-heavy predicates make the first build side tiny, so the
// pushed filter must actually kill tuples — and the books must balance:
// bytes_saved = filtered * row width, EXPLAIN surfaces the bloom section.
TEST(BloomEffectTest, SelectiveQueryFiltersTuplesAndBalancesTheBooks) {
  WorkloadFactory factory(TinyScale());
  auto wl = factory.Make(3);
  ASSERT_TRUE(wl.ok()) << wl.status().ToString();

  StrategyOptions opts;
  opts.num_workers = 16;
  opts.bloom = true;
  RunRecord on = RunWith(1, wl->normalized, ShuffleKind::kRegular,
                         JoinKind::kHashJoin, opts);

  size_t tested = 0, filtered = 0, bytes_saved = 0;
  for (const ShuffleMetrics& s : on.result.metrics.shuffles) {
    tested += s.bloom_tested;
    filtered += s.bloom_filtered;
    bytes_saved += s.bloom_bytes_saved;
    if (s.bloom_filtered > 0) {
      // bytes_saved = filtered * row width; the width (arity *
      // sizeof(Value)) is a positive whole number of Values.
      EXPECT_GE(s.bloom_bytes_saved, s.bloom_filtered * sizeof(Value))
          << s.label;
      EXPECT_EQ(s.bloom_bytes_saved % (s.bloom_filtered * sizeof(Value)), 0u)
          << s.label;
    } else {
      EXPECT_EQ(s.bloom_bytes_saved, 0u) << s.label;
    }
  }
  EXPECT_GT(tested, 0u);
  EXPECT_GT(filtered, 0u) << "Q3's filter should kill doomed tuples";
  EXPECT_EQ(CounterOr(on, "bloom.tuples_tested"), tested);
  EXPECT_EQ(CounterOr(on, "bloom.tuples_filtered"), filtered);
  EXPECT_EQ(CounterOr(on, "bloom.bytes_saved"), bytes_saved);
  EXPECT_GE(CounterOr(on, "bloom.filters_built"), 1u);

  ExplainOptions eo;
  eo.include_timings = false;
  const std::string text = ExplainAnalyzeText("RS_HJ", on.result, eo);
  EXPECT_NE(text.find("bloom: filtered="), std::string::npos) << text;
  EXPECT_NE(text.find("bloom_filtered="), std::string::npos) << text;
}

// ---------------------------------------------------------------------------
// Recovery across a filtered exchange.
// ---------------------------------------------------------------------------

// Every exchange — including the filtered ones — loses all of its first
// attempt. The replay must re-apply the same filter decisions: recovered
// output, per-exchange volume, and bloom accounting all bit-identical to
// the fault-free filtered run, at 1 and 8 threads.
TEST(BloomRecoveryTest, ReplayedFilteredExchangeIsBitIdentical) {
  WorkloadFactory factory(TinyScale());
  auto wl = factory.Make(3);
  ASSERT_TRUE(wl.ok()) << wl.status().ToString();

  StrategyOptions opts;
  opts.num_workers = 16;
  opts.bloom = true;
  RunRecord clean = RunWith(1, wl->normalized, ShuffleKind::kRegular,
                            JoinKind::kHashJoin, opts);
  size_t clean_filtered = 0;
  for (const ShuffleMetrics& s : clean.result.metrics.shuffles) {
    clean_filtered += s.bloom_filtered;
  }
  ASSERT_GT(clean_filtered, 0u) << "schedule must cross a filtered exchange";

  const std::string schedule = "drop@attempt=0";
  RunRecord faulted = RunWith(8, wl->normalized, ShuffleKind::kRegular,
                              JoinKind::kHashJoin, opts, schedule);
  const QueryMetrics& fm = faulted.result.metrics;
  EXPECT_FALSE(fm.failed) << fm.fail_reason;
  EXPECT_GE(TotalRetries(fm), 1u);
  EXPECT_EQ(faulted.result.output.data(), clean.result.output.data())
      << "recovered filtered run differs from fault-free filtered run";
  const QueryMetrics& cm = clean.result.metrics;
  ASSERT_EQ(fm.shuffles.size(), cm.shuffles.size());
  for (size_t i = 0; i < cm.shuffles.size(); ++i) {
    EXPECT_EQ(fm.shuffles[i].tuples_sent, cm.shuffles[i].tuples_sent)
        << cm.shuffles[i].label;
    EXPECT_EQ(fm.shuffles[i].bloom_tested, cm.shuffles[i].bloom_tested)
        << cm.shuffles[i].label;
    EXPECT_EQ(fm.shuffles[i].bloom_filtered, cm.shuffles[i].bloom_filtered)
        << cm.shuffles[i].label;
  }

  // Recovery is deterministic: the serial replay of the same schedule is
  // indistinguishable, counters included.
  RunRecord serial = RunWith(1, wl->normalized, ShuffleKind::kRegular,
                             JoinKind::kHashJoin, opts, schedule);
  EXPECT_EQ(serial.result.output.data(), faulted.result.output.data());
  EXPECT_EQ(serial.counters, faulted.counters);
}

// ---------------------------------------------------------------------------
// Advisor decision.
// ---------------------------------------------------------------------------

TEST(BloomAdvisorTest, SelectivePredicatesTurnTheFilterOn) {
  WorkloadFactory factory(TinyScale());
  auto wl = factory.Make(3);
  ASSERT_TRUE(wl.ok()) << wl.status().ToString();
  const StrategyAdvice advice = AdviseStrategy(wl->normalized, 16, nullptr);
  EXPECT_GE(advice.est_bloom_reduction, 0.25)
      << "Q3's constants should make the filter look worth it";
  EXPECT_TRUE(advice.use_bloom);
}

TEST(BloomAdvisorTest, MeasuredSelectivityOverridesTheEstimate) {
  WorkloadFactory factory(TinyScale());
  auto wl = factory.Make(3);
  ASSERT_TRUE(wl.ok()) << wl.status().ToString();

  QueryFeedback qf;
  qf.query_key = wl->id;
  qf.workers = 16;
  StrategyFeedback sf;
  sf.strategy = "RS_HJ";
  sf.tuples_shuffled = 1000;
  sf.output_tuples = 10;
  sf.bloom_tested = 1000;
  sf.bloom_filtered = 10;  // measured: the filter barely fired
  qf.strategies.push_back(sf);

  const StrategyAdvice advice = AdviseStrategy(wl->normalized, 16, &qf);
  EXPECT_NEAR(advice.est_bloom_reduction, 0.01, 1e-9);
  EXPECT_FALSE(advice.use_bloom)
      << "a measured useless filter must override a hopeful estimate";

  qf.strategies[0].bloom_filtered = 900;  // measured: the filter earns rent
  const StrategyAdvice advice2 = AdviseStrategy(wl->normalized, 16, &qf);
  EXPECT_NEAR(advice2.est_bloom_reduction, 0.9, 1e-9);
  EXPECT_TRUE(advice2.use_bloom);
}

}  // namespace
}  // namespace ptp
