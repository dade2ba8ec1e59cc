// Query-profiler overhead microbenchmark: the profiler must cost nothing
// when disabled and stay within a few percent when enabled
// (docs/OBSERVABILITY.md). Every shuffle scatter, stage booking, and retry
// epoch probes ActiveQueryProfile(); with no profile installed that is a
// single nullptr branch. Enabled, the per-tuple work is one probe into an
// L1-resident HotKeyShard per shuffled tuple (the order-sensitive
// Misra–Gries compression runs once per shuffle on the coordinator). This
// bench runs the six-strategy sweep in two modes:
//   off      - no profile installed (the production fast path),
//   profiled - QueryProfile installed, full matrices + sketches recorded.
//
// Times are per-thread CPU seconds (CLOCK_THREAD_CPUTIME_ID) with the
// runtime pinned to one thread, measured by bench::MeasureArmedOverhead:
// fast queries batch several runs per timed window, the modes are
// interleaved (off, profiled, off, profiled, ...) and the gated overhead
// is the median of the per-pair on/off ratios (reported cpu_seconds are
// min over --reps). Both modes must produce bit-identical outputs per
// strategy (the determinism contract).
// Writes BENCH_profile.json and exits nonzero when the profiled overhead
// exceeds --gate (default 3%); CI loosens the gate under sanitizers.
//
// Not a google-benchmark binary: it has its own main (hence the CMake
// special case) so it can emit the JSON report.

#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace ptp;

  const bench::OverheadConfig c = bench::OverheadConfig::FromArgs(
      argc, argv, {.json_path = "BENCH_profile.json", .gate = 0.03});
  // Single-threaded: the measurement is the per-tuple/per-hook CPU cost of
  // the profiler, not parallel speedup.
  runtime::SetThreads(1);

  WorkloadFactory factory(c.Scale());

  std::vector<bench::ModeRow> rows;
  double worst_overhead = 0;
  std::string worst_query;

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
    std::vector<StrategyResult> on_results;
    QueryProfile profile;
    const bench::ArmedOverhead m = bench::MeasureArmedOverhead(
        id, c.reps, {.profile = &profile},
        [&] { off_results = run_once(); },
        [&] {
          profile.Clear();
          on_results = run_once();
        },
        [](int) {});

    // Profiling must observe, not perturb: bit-identical outputs, and the
    // profile must actually contain the sweep it watched.
    PTP_CHECK_EQ(off_results.size(), on_results.size());
    for (size_t s = 0; s < off_results.size(); ++s) {
      PTP_CHECK(off_results[s].output.data() == on_results[s].output.data())
          << id << ": profiled output diverges";
    }
    const auto sections = profile.Snapshot();
    PTP_CHECK_EQ(sections.size(), off_results.size())
        << id << ": profile sections != strategies run";
    for (const StrategyProfile& section : sections) {
      PTP_CHECK(!section.stages.empty())
          << id << "/" << section.name << ": no stage timeline recorded";
    }

    rows.push_back({id, "off", m.off_seconds, 0});
    rows.push_back({id, "profiled", m.armed_seconds, m.overhead});
    if (m.overhead > worst_overhead) {
      worst_overhead = m.overhead;
      worst_query = id;
    }
  }

  bench::WriteModeReport(
      c, rows, StrFormat("\"worst_overhead\": %g", worst_overhead));
  if (worst_overhead > c.gate) {
    std::cerr << "FAIL: profiled overhead " << worst_overhead * 100
              << "% on " << worst_query << " exceeds gate " << c.gate * 100
              << "%\n";
    return 1;
  }
  return 0;
}
