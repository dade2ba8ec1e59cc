// Fault-injection overhead microbenchmark: the injector must cost nothing
// when disabled (docs/ROBUSTNESS.md). Every stage barrier and shuffle
// channel probes ActiveFaultInjector(); with no injector installed that is
// a single nullptr branch, and this bench verifies the end-to-end cost of
// that branch is within timer noise by running the six-strategy sweep in
// three modes:
//   off     - no injector installed (the production fast path),
//   armed   - injector installed with a schedule that never matches
//             (every probe walks the spec list and misses),
//   faulted - a recoverable schedule fires and the recovery loop replays.
//
// Times are per-thread CPU seconds (CLOCK_THREAD_CPUTIME_ID) with the
// runtime pinned to one thread, min over --reps runs. All three modes must
// produce bit-identical outputs per strategy (the determinism contract).
// Writes BENCH_fault.json.
//
// Not a google-benchmark binary: it has its own main (hence the CMake
// special case) so it can emit the JSON report.

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace ptp;

  const bench::OverheadConfig c = bench::OverheadConfig::FromArgs(
      argc, argv, {.json_path = "BENCH_fault.json", .reps = 3});
  // Single-threaded: the measurement is the per-probe CPU cost of the
  // hooks, not parallel speedup.
  runtime::SetThreads(1);

  WorkloadFactory factory(c.Scale());

  // `armed` never matches any site (worker 9999 does not exist at W=16);
  // `faulted` is the recoverable mixed schedule the fault-matrix test uses.
  const std::string kArmed = "crash@worker=9999";
  const std::string kFaulted = "crash@worker=5;drop@x=0,p=1,c=2;dup@x=0,p=0";

  std::vector<bench::ModeRow> rows;
  std::map<std::string, uint64_t> counters;

  for (const auto& [qn, id] :
       std::vector<std::pair<int, std::string>>{{1, "Q1"}, {3, "Q3"}}) {
    auto wl = factory.Make(qn);
    PTP_CHECK(wl.ok()) << wl.status().ToString();
    const StrategyOptions opts;

    auto run_once = [&]() {
      auto results = RunAllStrategies(wl->normalized, opts);
      PTP_CHECK(results.ok()) << results.status().ToString();
      return std::move(results).value();
    };

    std::vector<StrategyResult> off_results;
    const double t_off =
        bench::TimeMin(c.reps, [&] { off_results = run_once(); });

    auto timed_with_faults = [&](const std::string& schedule,
                                 std::vector<StrategyResult>* results,
                                 uint64_t* injected,
                                 CounterRegistry* registry) {
      auto plan = FaultPlan::Parse(schedule);
      PTP_CHECK(plan.ok()) << plan.status().ToString();
      auto injector = std::make_unique<FaultInjector>(std::move(plan).value());
      runtime::ScopedQueryContext sinks(
          {.counters = registry, .faults = injector.get()});
      const double t = bench::TimeMin(c.reps, [&] { *results = run_once(); });
      *injected = injector->injected();
      return t;
    };

    std::vector<StrategyResult> armed_results;
    uint64_t armed_injected = 0;
    const double t_armed =
        timed_with_faults(kArmed, &armed_results, &armed_injected, nullptr);
    PTP_CHECK_EQ(armed_injected, 0u) << id << ": armed schedule matched";

    CounterRegistry registry;
    std::vector<StrategyResult> faulted_results;
    uint64_t faulted_injected = 0;
    const double t_faulted = timed_with_faults(kFaulted, &faulted_results,
                                               &faulted_injected, &registry);
    PTP_CHECK_GT(faulted_injected, 0u) << id << ": no fault injected";
    for (const auto& [name, value] : registry.CounterSnapshot()) {
      if (name.rfind("fault.", 0) == 0 || name.rfind("retry.", 0) == 0) {
        counters[name] += value;
      }
    }

    // The determinism contract: all three modes recover to bit-identical
    // per-strategy outputs.
    PTP_CHECK_EQ(off_results.size(), armed_results.size());
    PTP_CHECK_EQ(off_results.size(), faulted_results.size());
    for (size_t s = 0; s < off_results.size(); ++s) {
      PTP_CHECK(off_results[s].output.data() == armed_results[s].output.data())
          << id << ": armed output diverges";
      PTP_CHECK(off_results[s].output.data() ==
                faulted_results[s].output.data())
          << id << ": recovered output diverges";
    }

    auto overhead = [&](double t) {
      return t_off > 0 ? (t - t_off) / t_off : 0;
    };
    rows.push_back({id, "off", t_off, 0});
    rows.push_back({id, "armed", t_armed, overhead(t_armed)});
    rows.push_back({id, "faulted", t_faulted, overhead(t_faulted)});
  }

  std::string tail = "\"counters\": {";
  for (const auto& [name, value] : counters) {
    if (tail.back() != '{') tail += ", ";
    tail += StrFormat("\"%s\": %llu", name.c_str(),
                      static_cast<unsigned long long>(value));
  }
  bench::WriteModeReport(c, "CLOCK_THREAD_CPUTIME_ID", rows, tail + "}");
  return 0;
}
