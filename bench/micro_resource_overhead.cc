// Memory-meter overhead microbenchmark: byte accounting must cost nothing
// when disabled and stay within ~2% when armed (docs/OBSERVABILITY.md).
// Every materialization point (hash-table build, sort scratch, trie
// construction, shuffle buffers, intermediate fragments) probes
// ActiveResourceMeter() / a thread-local worker redirect; with no meter
// installed that is a single nullptr branch. Armed, the per-stage work is a
// handful of integer adds per materialization — per fragment, never per
// tuple. This bench runs the six-strategy sweep in two modes:
//   off   - no meter installed (the production fast path),
//   armed - ResourceMeter installed, full per-stage/per-worker accounting.
//
// Methodology is shared with micro_profile_overhead through
// bench::MeasureArmedOverhead: per-thread CPU seconds
// (CLOCK_THREAD_CPUTIME_ID) with the runtime pinned to one thread, fast
// queries batched into ~0.3 s windows, modes interleaved rep by rep, and
// the gated overhead is the median of the per-pair armed/off ratios.
// Both modes must produce bit-identical outputs per strategy, and the
// armed mode's peak bytes must be identical across reps (the determinism
// contract). Writes BENCH_resource.json and exits nonzero when the armed
// overhead exceeds --gate (default 2%); CI loosens the gate under
// sanitizers.
//
// Not a google-benchmark binary: it has its own main (hence the CMake
// special case) so it can emit the JSON report.

#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace ptp;

  const bench::OverheadConfig c = bench::OverheadConfig::FromArgs(
      argc, argv, {.json_path = "BENCH_resource.json", .gate = 0.02});
  // Single-threaded: the measurement is the per-hook CPU cost of the
  // meter, not parallel speedup.
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
    ResourceMeter meter;
    std::vector<uint64_t> first_peaks;
    const bench::ArmedOverhead m = bench::MeasureArmedOverhead(
        id, c.reps, {.meter = &meter},
        [&] { off_results = run_once(); },
        [&] {
          meter.Clear();
          on_results = run_once();
        },
        [&](int r) {
          // Byte accounting must be a pure function of the run: every
          // rep's per-strategy peaks must match the first rep's bit for
          // bit.
          std::vector<uint64_t> peaks;
          for (const QueryMemory& q : meter.Snapshot()) {
            peaks.push_back(q.peak_bytes);
          }
          if (r == 0) {
            first_peaks = peaks;
          } else {
            PTP_CHECK(peaks == first_peaks) << id << ": peak bytes drift";
          }
        });

    // Metering must observe, not perturb: bit-identical outputs, and the
    // meter must actually have accounted the sweep it watched.
    PTP_CHECK_EQ(off_results.size(), on_results.size());
    for (size_t s = 0; s < off_results.size(); ++s) {
      PTP_CHECK(off_results[s].output.data() == on_results[s].output.data())
          << id << ": armed output diverges";
      PTP_CHECK_EQ(off_results[s].metrics.peak_bytes, size_t{0})
          << id << ": bytes booked with no meter installed";
      if (!on_results[s].metrics.failed) {
        PTP_CHECK(on_results[s].metrics.peak_bytes > 0)
            << id << ": armed run booked no bytes";
      }
    }
    PTP_CHECK_EQ(meter.Snapshot().size(), on_results.size())
        << id << ": meter sections != strategies run";

    rows.push_back({id, "off", m.off_seconds, 0});
    rows.push_back({id, "armed", m.armed_seconds, m.overhead});
    if (m.overhead > worst_overhead) {
      worst_overhead = m.overhead;
      worst_query = id;
    }
  }

  bench::WriteModeReport(
      c, rows, StrFormat("\"worst_overhead\": %g", worst_overhead));
  if (worst_overhead > c.gate) {
    std::cerr << "FAIL: armed overhead " << worst_overhead * 100 << "% on "
              << worst_query << " exceeds gate " << c.gate * 100 << "%\n";
    return 1;
  }
  return 0;
}
