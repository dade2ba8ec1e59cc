// Conformance: the parallel engine must be indistinguishable from the
// sequential one. For all eight paper workloads at W=16, every strategy run
// with --threads=1 and with a multi-thread pool must produce bit-identical
// gathered results, identical per-shuffle tuple movement, and an identical
// counter-registry snapshot (counters count work, not time, so they are
// thread-count-independent by design).

#include <utility>
#include <vector>

#include "data/workloads.h"
#include "gtest/gtest.h"
#include "obs/counters.h"
#include "plan/semijoin_plan.h"
#include "plan/strategies.h"
#include "runtime/parallel.h"
#include "storage/sort.h"
#include "test_util.h"

namespace ptp {
namespace {

using test::TinyScale;

struct RunRecord {
  StrategyResult result;
  std::vector<std::pair<std::string, uint64_t>> counters;
};

RunRecord RunWith(int threads, const NormalizedQuery& q, ShuffleKind shuffle,
                  JoinKind join, const StrategyOptions& opts) {
  runtime::SetThreads(threads);
  CounterRegistry registry;
  runtime::ScopedQueryContext sinks({.counters = &registry});
  auto result = RunStrategy(q, shuffle, join, opts);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  RunRecord record;
  record.result = std::move(result).value();
  record.counters = registry.CounterSnapshot();
  return record;
}

void ExpectEquivalent(const RunRecord& serial, const RunRecord& parallel,
                      const std::string& context) {
  // Bit-identical output: same tuples in the same order.
  ASSERT_EQ(serial.result.output.NumTuples(),
            parallel.result.output.NumTuples())
      << context;
  EXPECT_EQ(serial.result.output.data(), parallel.result.output.data())
      << context << ": gathered results differ";

  // Identical tuple movement, shuffle by shuffle.
  const QueryMetrics& sm = serial.result.metrics;
  const QueryMetrics& pm = parallel.result.metrics;
  ASSERT_EQ(sm.shuffles.size(), pm.shuffles.size()) << context;
  for (size_t i = 0; i < sm.shuffles.size(); ++i) {
    EXPECT_EQ(sm.shuffles[i].label, pm.shuffles[i].label) << context;
    EXPECT_EQ(sm.shuffles[i].tuples_sent, pm.shuffles[i].tuples_sent)
        << context << ": shuffle " << sm.shuffles[i].label;
    EXPECT_EQ(sm.shuffles[i].producer_skew, pm.shuffles[i].producer_skew)
        << context << ": shuffle " << sm.shuffles[i].label;
    EXPECT_EQ(sm.shuffles[i].consumer_skew, pm.shuffles[i].consumer_skew)
        << context << ": shuffle " << sm.shuffles[i].label;
  }

  // Identical data-dependent metrics (everything but timing).
  EXPECT_EQ(sm.failed, pm.failed) << context;
  EXPECT_EQ(sm.fail_reason, pm.fail_reason) << context;
  EXPECT_EQ(sm.output_tuples, pm.output_tuples) << context;
  EXPECT_EQ(sm.max_intermediate_tuples, pm.max_intermediate_tuples) << context;
  ASSERT_EQ(sm.stages.size(), pm.stages.size()) << context;
  for (size_t i = 0; i < sm.stages.size(); ++i) {
    EXPECT_EQ(sm.stages[i].label, pm.stages[i].label) << context;
    EXPECT_EQ(sm.stages[i].output_tuples, pm.stages[i].output_tuples)
        << context << ": stage " << sm.stages[i].label;
    EXPECT_EQ(sm.stages[i].failed, pm.stages[i].failed)
        << context << ": stage " << sm.stages[i].label;
  }

  // Identical counter snapshot (names and values).
  EXPECT_EQ(serial.counters, parallel.counters) << context;
}

class ParallelConformance : public ::testing::TestWithParam<int> {
  void TearDown() override { runtime::SetThreads(0); }
};

TEST_P(ParallelConformance, SequentialAndParallelEnginesAgree) {
  WorkloadFactory factory(TinyScale());
  auto wl = factory.Make(GetParam());
  ASSERT_TRUE(wl.ok()) << wl.status().ToString();

  StrategyOptions opts;
  opts.num_workers = 16;

  for (const auto& [shuffle, join] : AllStrategies()) {
    const std::string context =
        wl->id + std::string(" ") + StrategyName(shuffle, join);
    RunRecord serial = RunWith(1, wl->normalized, shuffle, join, opts);
    RunRecord parallel = RunWith(8, wl->normalized, shuffle, join, opts);
    ExpectEquivalent(serial, parallel, context);
  }
}

INSTANTIATE_TEST_SUITE_P(Q1toQ8, ParallelConformance, ::testing::Range(1, 9),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "Q" + std::to_string(info.param);
                         });

// Same sweep with the radix sort forced on (thresholds dropped to one row),
// so the tiny conformance workloads exercise the MSB-radix partition and —
// at 8 threads — its ParallelFor passes. Fragment sorts must still be
// bit-identical across thread counts.
class RadixSortConformance : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    saved_tuning_ = SetRadixSortTuningForTest({1, 1});
  }
  void TearDown() override {
    SetRadixSortTuningForTest(saved_tuning_);
    runtime::SetThreads(0);
  }

 private:
  RadixSortTuning saved_tuning_;
};

TEST_P(RadixSortConformance, SequentialAndParallelEnginesAgree) {
  WorkloadFactory factory(TinyScale());
  auto wl = factory.Make(GetParam());
  ASSERT_TRUE(wl.ok()) << wl.status().ToString();

  StrategyOptions opts;
  opts.num_workers = 16;

  for (const auto& [shuffle, join] : AllStrategies()) {
    const std::string context = wl->id + std::string(" ") +
                                StrategyName(shuffle, join) +
                                " (forced radix)";
    RunRecord serial = RunWith(1, wl->normalized, shuffle, join, opts);
    RunRecord parallel = RunWith(8, wl->normalized, shuffle, join, opts);
    ExpectEquivalent(serial, parallel, context);
  }
}

INSTANTIATE_TEST_SUITE_P(Q1toQ8, RadixSortConformance, ::testing::Range(1, 9),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "Q" + std::to_string(info.param);
                         });

TEST(ParallelConformance, SemijoinPlanAgrees) {
  WorkloadFactory factory(TinyScale());
  StrategyOptions opts;
  opts.num_workers = 16;
  for (int q = 1; q <= 8; ++q) {
    auto wl = factory.Make(q);
    ASSERT_TRUE(wl.ok());
    if (wl->cyclic) continue;
    runtime::SetThreads(1);
    auto serial = RunSemijoinPlan(wl->query, wl->normalized, opts, nullptr);
    runtime::SetThreads(8);
    auto parallel = RunSemijoinPlan(wl->query, wl->normalized, opts, nullptr);
    runtime::SetThreads(0);
    ASSERT_TRUE(serial.ok() && parallel.ok()) << wl->id;
    EXPECT_EQ(serial->output.data(), parallel->output.data())
        << wl->id << ": semijoin plan diverges across thread counts";
    EXPECT_EQ(serial->metrics.TuplesShuffled(),
              parallel->metrics.TuplesShuffled())
        << wl->id;
  }
}

}  // namespace
}  // namespace ptp
