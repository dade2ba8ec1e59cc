// Armed-overhead gates for the per-query sinks (docs/OBSERVABILITY.md): a
// sink that is switched off costs one nullptr branch per hook, and armed it
// must stay within its gate. One row per sink, chosen with --sink=:
//
//   profile   - QueryProfile: channel matrices, hot-key sketches, stage
//               timelines. Gate 3 %; the profile must hold one section per
//               strategy, each with a stage timeline.
//   resource  - ResourceMeter: per-stage byte accounting. Gate 2 %; peak
//               bytes must repeat exactly in every rep, the off runs must
//               book nothing and the armed runs must book bytes.
//   lifecycle - QueryLifecycle armed but never tripped: two atomic ops per
//               coordinator poll. Gate 1 %; every rep must reach a poll.
//   telemetry - the server's query log and request trace. Q1 is served
//               through a one-executor QueryServer with both armed vs a
//               server with neither. Gate 1 %; the log must have lines and
//               the armed server's Prometheus render must validate.
//
// The profile, resource and lifecycle rows time the six-strategy sweep of
// Q1 and Q3. Every row is timed by bench::MeasureArmedOverhead (process CPU
// seconds, runtime pinned to one thread, ~0.3 s windows, interleaved
// off/armed pairs, median of the pair ratios gated) and must keep outputs
// bit-identical to the off runs. Writes BENCH_<sink>.json and exits nonzero
// when the overhead exceeds --gate; CI loosens the gate under sanitizers.
//
// Not a google-benchmark binary: it has its own main (hence the CMake
// special case) so it can emit the JSON report.

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"

namespace ptp {
namespace {

/// The sweep rows' sinks; a row arms exactly one of them.
struct Sinks {
  QueryProfile profile;
  ResourceMeter meter;
  QueryLifecycle lifecycle;
  std::vector<uint64_t> first_peaks;
  uint64_t last_polls = 0;
};

using Results = std::vector<StrategyResult>;

/// One sink's row: its default gate, the report's armed-mode label, what
/// the armed window installs, the reset before each armed sweep, the check
/// after each off/armed pair, and the check that the sink recorded the
/// sweep it watched. The telemetry row arms a server instead of a context
/// and has no sweep hooks.
struct SinkRow {
  const char* sink;
  double gate;
  const char* armed_mode;
  runtime::QueryContext (*context)(Sinks&);
  void (*reset)(Sinks&);
  void (*after_pair)(Sinks&, const std::string& id, int rep);
  void (*recorded)(Sinks&, const std::string& id, const Results& off,
                   const Results& on);
};

const SinkRow kRows[] = {
    {"profile", 0.03, "profiled",
     [](Sinks& s) { return runtime::QueryContext{.profile = &s.profile}; },
     [](Sinks& s) { s.profile.Clear(); },
     [](Sinks&, const std::string&, int) {},
     [](Sinks& s, const std::string& id, const Results& off, const Results&) {
       const auto sections = s.profile.Snapshot();
       PTP_CHECK_EQ(sections.size(), off.size())
           << id << ": profile sections != strategies run";
       for (const StrategyProfile& section : sections) {
         PTP_CHECK(!section.stages.empty())
             << id << "/" << section.name << ": no stage timeline recorded";
       }
     }},
    {"resource", 0.02, "armed",
     [](Sinks& s) { return runtime::QueryContext{.meter = &s.meter}; },
     [](Sinks& s) { s.meter.Clear(); },
     [](Sinks& s, const std::string& id, int rep) {
       // Byte accounting is a pure function of the run: every rep's
       // per-strategy peaks match the first rep's bit for bit.
       std::vector<uint64_t> peaks;
       for (const QueryMemory& q : s.meter.Snapshot()) {
         peaks.push_back(q.peak_bytes);
       }
       if (rep == 0) s.first_peaks = peaks;
       PTP_CHECK(peaks == s.first_peaks) << id << ": peak bytes drift";
     },
     [](Sinks& s, const std::string& id, const Results& off,
        const Results& on) {
       for (size_t i = 0; i < off.size(); ++i) {
         PTP_CHECK_EQ(off[i].metrics.peak_bytes, size_t{0})
             << id << ": bytes booked with no meter installed";
         if (!on[i].metrics.failed) {
           PTP_CHECK(on[i].metrics.peak_bytes > 0)
               << id << ": armed run booked no bytes";
         }
       }
       PTP_CHECK_EQ(s.meter.Snapshot().size(), on.size())
           << id << ": meter sections != strategies run";
     }},
    {"lifecycle", 0.01, "armed",
     [](Sinks& s) { return runtime::QueryContext{.lifecycle = &s.lifecycle}; },
     [](Sinks&) {},
     [](Sinks& s, const std::string& id, int) {
       const uint64_t polls = s.lifecycle.stats().polls;
       PTP_CHECK(polls > s.last_polls)
           << id << ": armed run never reached a poll point";
       s.last_polls = polls;
     },
     [](Sinks&, const std::string&, const Results&, const Results&) {}},
    {"telemetry", 0.01, "armed", nullptr, nullptr, nullptr, nullptr},
};

/// The sweep rows: Q1 and Q3, all six strategies per iteration.
std::vector<bench::ModeRow> MeasureSweep(const SinkRow& row,
                                         const bench::OverheadConfig& c) {
  WorkloadFactory factory(c.Scale());
  std::vector<bench::ModeRow> rows;
  for (const auto& [qn, id] :
       std::vector<std::pair<int, std::string>>{{1, "Q1"}, {3, "Q3"}}) {
    auto wl = factory.Make(qn);
    PTP_CHECK(wl.ok()) << wl.status().ToString();
    auto run_once = [&]() {
      auto results = RunAllStrategies(wl->normalized, StrategyOptions{});
      PTP_CHECK(results.ok()) << results.status().ToString();
      return std::move(results).value();
    };
    Sinks sinks;
    Results off_results;
    Results on_results;
    const bench::ArmedOverhead m = bench::MeasureArmedOverhead(
        id, c.reps, row.context(sinks), [&] { off_results = run_once(); },
        [&] {
          row.reset(sinks);
          on_results = run_once();
        },
        [&](int rep) { row.after_pair(sinks, id, rep); });

    // The sink must observe, not perturb: bit-identical outputs, and it
    // must actually have recorded the sweep it watched.
    PTP_CHECK_EQ(off_results.size(), on_results.size());
    for (size_t s = 0; s < off_results.size(); ++s) {
      PTP_CHECK(off_results[s].output.data() == on_results[s].output.data())
          << id << ": " << row.sink << "-armed output diverges";
    }
    row.recorded(sinks, id, off_results, on_results);
    rows.push_back({id, "off", m.off_seconds, 0});
    rows.push_back({id, row.armed_mode, m.armed_seconds, m.overhead});
  }
  return rows;
}

/// The telemetry row: Q1 served one request at a time through a
/// one-executor server with the query log and request trace armed, against
/// an identical server with neither. The work runs on the executor thread,
/// which the process CPU clock counts.
std::vector<bench::ModeRow> MeasureTelemetry(const bench::OverheadConfig& c) {
  WorkloadFactory factory(c.Scale());
  auto wl = factory.Make(1);
  PTP_CHECK(wl.ok()) << wl.status().ToString();
  const std::string qlog_path = c.json_path + ".qlog.jsonl";

  TraceSession trace;  // outlives the armed server, which records into it
  ServerOptions off_options;
  off_options.executors = 1;
  ServerOptions armed_options = off_options;
  armed_options.query_log_path = qlog_path;
  armed_options.trace = &trace;
  QueryServer off_server(off_options);
  QueryServer armed_server(armed_options);
  QueryServer::Session* off_session = off_server.OpenSession("off");
  QueryServer::Session* armed_session = armed_server.OpenSession("armed");

  QueryRequest req;
  req.text = wl->query.ToString();
  req.catalog = wl->catalog.get();
  req.workers = StrategyOptions{}.num_workers;
  QueryResponse off_response;
  QueryResponse armed_response;
  auto serve = [&](QueryServer::Session* session, QueryResponse* out) {
    *out = session->Submit(req).Get();
    PTP_CHECK(out->status.ok()) << out->status.ToString();
  };
  // Both servers prepare the plan before timing starts, so the first
  // window's calibration times a cache hit.
  serve(off_session, &off_response);
  serve(armed_session, &armed_response);
  const bench::ArmedOverhead m = bench::MeasureArmedOverhead(
      "Q1", c.reps, runtime::QueryContext{},
      [&] { serve(off_session, &off_response); },
      [&] { serve(armed_session, &armed_response); }, [](int) {});

  PTP_CHECK(off_response.strategy == armed_response.strategy &&
            off_response.output.data() == armed_response.output.data())
      << "Q1: telemetry-armed response diverges";
  PTP_CHECK(armed_server.query_log() != nullptr &&
            armed_server.query_log()->lines_written() > 0)
      << "Q1: armed query log wrote no lines";
  const Status prom = ValidatePrometheusText(armed_server.RenderMetricsProm());
  PTP_CHECK(prom.ok()) << prom.ToString();
  std::remove(qlog_path.c_str());
  return {{"Q1", "off", m.off_seconds, 0},
          {"Q1", "armed", m.armed_seconds, m.overhead}};
}

}  // namespace
}  // namespace ptp

int main(int argc, char** argv) {
  using namespace ptp;

  // --sink= picks the row; the remaining flags are the shared overhead
  // flags, defaulted from the row.
  const SinkRow* row = nullptr;
  std::vector<char*> args = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--sink=", 7) != 0) {
      args.push_back(argv[i]);
      continue;
    }
    for (const SinkRow& r : kRows) {
      if (std::strcmp(argv[i] + 7, r.sink) == 0) row = &r;
    }
  }
  if (row == nullptr) {
    std::cerr << "usage: micro_overhead "
                 "--sink=profile|resource|lifecycle|telemetry [--json= "
                 "--twitter-nodes= --twitter-edges= --reps= --gate=]\n";
    return 2;
  }
  const bench::OverheadConfig c = bench::OverheadConfig::FromArgs(
      static_cast<int>(args.size()), args.data(),
      {.json_path = std::string("BENCH_") + row->sink + ".json",
       .gate = row->gate});
  // Single-threaded: the measurement is the per-hook CPU cost of the sink,
  // not parallel speedup.
  runtime::SetThreads(1);

  const std::vector<bench::ModeRow> rows =
      row->context != nullptr ? MeasureSweep(*row, c) : MeasureTelemetry(c);
  double worst_overhead = 0;
  std::string worst_query;
  for (const bench::ModeRow& r : rows) {
    if (r.overhead_vs_off > worst_overhead) {
      worst_overhead = r.overhead_vs_off;
      worst_query = r.query;
    }
  }
  bench::WriteModeReport(
      c, "CLOCK_PROCESS_CPUTIME_ID", rows,
      StrFormat("\"sink\": \"%s\", \"worst_overhead\": %g", row->sink,
                worst_overhead));
  if (worst_overhead > c.gate) {
    std::cerr << "FAIL: " << row->sink << "-armed overhead "
              << worst_overhead * 100 << "% on " << worst_query
              << " exceeds gate " << c.gate * 100 << "%\n";
    return 1;
  }
  return 0;
}
