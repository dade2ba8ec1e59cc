// Reproduces the paper's six-configuration figures: 3 (Q1), 4 (Q2),
// 6 (Q3), 9 (Q4), 13 (Q5), 14 (Q6), 15 (Q7) and 17 (Q8). Each runs its query
// under the three shuffles (RS, BR, HC) times the two local joins (HJ, TJ),
// prints wall clock, CPU and tuples shuffled beside the paper's numbers,
// then judges the paper's claims about the figure (PaperFigureTable in
// src/bench_util/report.h). A deterministic claim (tuples shuffled, FAIL,
// HyperCube shares, shuffle ratios, skew) whose verdict differs from the
// one recorded in the table makes the program exit 1; timed claims (wall
// clock, CPU) are printed and never change the exit code.
//
//   paper_figures [--figure=3|4|6|9|13|14|15|17] [BenchConfig flags]
//
// With no --figure= all eight figures run. A figure's table flags set its
// scale and budgets; flags on the command line override them.

#include <optional>

#include "bench_common.h"

namespace ptp {
namespace bench {
namespace {

void CheckOk(const Status& s) { PTP_CHECK(s.ok()) << s.ToString(); }

/// Loads the figure's workload, runs all six configurations, prints the
/// figure.
std::vector<StrategyResult> RunSixConfigs(const BenchConfig& config,
                                          const PaperFigureSpec& figure) {
  WorkloadFactory factory(config.ToScale());
  auto wl = factory.Make(figure.query);
  PTP_CHECK(wl.ok()) << wl.status().ToString();
  std::cout << wl->description << "\n"
            << "query: " << wl->query.ToString() << "\n"
            << "workers: " << config.workers << ", dataset: ";
  size_t input = 0;
  for (const auto& atom : wl->normalized.atoms)
    input += atom.relation.NumTuples();
  std::cout << input << " input tuples across " << wl->normalized.atoms.size()
            << " atoms\n\n";
  // Observability: --trace= records a Chrome trace of the whole run;
  // --json= exports per-strategy EXPLAIN ANALYZE (with the counter registry
  // embedded). Both are off by default, leaving the hot paths on their
  // single-branch disabled fast path. Every sink a flag arms goes into one
  // context, installed for the strategy runs only.
  runtime::QueryContext sinks;
  std::optional<TraceSession> trace;
  std::optional<CounterRegistry> counters;
  if (!config.trace_path.empty()) {
    sinks.trace = &trace.emplace();
    trace->NameTrack(kCoordinatorTrack, "coordinator");
    for (int w = 0; w < config.workers; ++w) {
      trace->NameTrack(WorkerTrack(w), StrFormat("worker %d", w));
    }
  }
  if (!config.trace_path.empty() || !config.json_path.empty()) {
    sinks.counters = &counters.emplace();
  }
  // --profile= turns on the query profiler (channel matrices, hot-key
  // sketches, per-worker timelines); when a trace is also active the
  // profiler additionally exports Perfetto counter tracks into it.
  std::optional<QueryProfile> profile;
  if (!config.profile_path.empty()) sinks.profile = &profile.emplace();
  // --mem-budget= (>= 0) or --feedback-out= arms the byte-accounting meter
  // (docs/OBSERVABILITY.md): deterministic peak/live bytes per strategy,
  // mem.* counters, and — with a positive budget — soft overrun warnings.
  std::optional<ResourceMeter> meter;
  if (config.mem_budget >= 0 || !config.feedback_out.empty()) {
    sinks.meter = &meter.emplace(
        config.mem_budget > 0 ? static_cast<uint64_t>(config.mem_budget) : 0);
  }
  // --feedback-in= replays a recorded feedback store through the advisor:
  // measured cardinalities and skew replace its estimates before it
  // re-picks a strategy.
  FeedbackStore feedback_store;
  const QueryFeedback* feedback = nullptr;
  if (!config.feedback_in.empty()) {
    Result<FeedbackStore> loaded = FeedbackStore::LoadFile(config.feedback_in);
    PTP_CHECK(loaded.ok()) << loaded.status().ToString();
    feedback_store = std::move(loaded).value();
    feedback = feedback_store.Find(wl->query.ToString(), config.workers);
    if (feedback == nullptr) {
      std::cout << "feedback: no entry for this query at W=" << config.workers
                << " in " << config.feedback_in << "\n\n";
    }
    StrategyAdvice advice =
        AdviseStrategy(wl->normalized, config.workers, feedback);
    std::cout << "advisor" << (advice.used_feedback ? " (measured)" : "")
              << ": " << StrategyName(advice.shuffle, advice.join) << " — "
              << advice.rationale << "\n";
    if (feedback != nullptr) std::cout << "\n" << QErrorAuditText(*feedback);
    std::cout << "\n";
  }
  // --faults= / PTP_FAULTS turns on deterministic fault injection for the
  // whole run (see docs/ROBUSTNESS.md). Recovery markers show up in the
  // figure output and in the --json= EXPLAIN ANALYZE export.
  std::optional<FaultInjector> injector;
  if (!config.faults.empty()) {
    auto plan = FaultPlan::Parse(config.faults);
    PTP_CHECK(plan.ok()) << plan.status().ToString();
    sinks.faults = &injector.emplace(std::move(plan).value());
    std::cout << "fault schedule: " << injector->plan().ToString() << "\n\n";
  }

  // --deadline-ms= arms the cooperative-cancellation machinery for the
  // whole run: an elapsed deadline makes strategies FAIL gracefully with
  // kDeadlineExceeded at their next coordinator poll point.
  std::optional<QueryLifecycle> lifecycle;
  if (config.deadline_ms > 0) {
    sinks.lifecycle = &lifecycle.emplace();
    lifecycle->SetDeadline(config.deadline_ms / 1000.0);
    std::cout << "deadline: " << config.deadline_ms << " ms\n\n";
  }

  StrategyOptions options = config.ToOptions();
  options.join_order = figure.join_order;
  if (config.bloom == "auto") {
    // The advisor decides (estimated probe-side reduction vs threshold,
    // replaced by measured selectivity when feedback has a bloom-enabled
    // run of this query).
    const StrategyAdvice bloom_advice =
        AdviseStrategy(wl->normalized, config.workers, feedback);
    options.bloom = bloom_advice.use_bloom;
    std::cout << "bloom=auto: advisor estimates "
              << StrFormat("%.0f%%", bloom_advice.est_bloom_reduction * 100.0)
              << " probe-side reduction -> "
              << (options.bloom ? "on" : "off") << "\n\n";
  }
  Result<std::vector<StrategyResult>> run = [&] {
    runtime::ScopedQueryContext installed(sinks);
    return RunAllStrategies(wl->normalized, options);
  }();
  PTP_CHECK(run.ok()) << run.status().ToString();
  std::vector<StrategyResult> results = std::move(run).value();

  if (lifecycle && lifecycle->stats().deadline_exceeded) {
    std::cout << "deadline exceeded after " << lifecycle->stats().polls
              << " lifecycle polls\n";
  }
  if (injector)
    std::cout << "faults injected: " << injector->injected() << "\n";
  if (!config.feedback_out.empty()) {
    // Merge into an existing store when the file already holds one, so a
    // suite of benches can share a single feedback file.
    FeedbackStore out_store;
    if (Result<FeedbackStore> existing =
            FeedbackStore::LoadFile(config.feedback_out);
        existing.ok()) {
      out_store = std::move(existing).value();
    }
    QueryFeedback* entry =
        out_store.FindOrAdd(wl->query.ToString(), config.workers);
    entry->strategies.clear();
    const auto strategies = AllStrategies();
    for (size_t i = 0; i < results.size(); ++i) {
      const auto& [shuffle, join] = strategies[i];
      entry->strategies.push_back(CollectStrategyFeedback(
          wl->normalized, StrategyName(shuffle, join), results[i]));
    }
    CheckOk(out_store.WriteFile(config.feedback_out));
    std::cout << "feedback JSON written to " << config.feedback_out << "\n";
  }
  if (profile) {
    CheckOk(WriteProfileJsonFile(config.profile_path, *profile));
    std::cout << "profile JSON written to " << config.profile_path << "\n";
  }
  if (trace) CheckOk(trace->WriteJsonFile(config.trace_path));

  PrintSixConfigFigure(figure.title, results, figure.paper);
  if (trace) {
    std::cout << "trace written to " << config.trace_path << " ("
              << trace->events().size() << " events)\n";
  }
  if (!config.json_path.empty()) {
    std::ofstream out(config.json_path);
    PTP_CHECK(out.good()) << "cannot open " << config.json_path;
    ExplainOptions eo;
    eo.counters = sinks.counters;
    WriteStrategiesJson(out, results, eo);
    std::cout << "EXPLAIN ANALYZE JSON written to " << config.json_path
              << "\n";
  }

  // Consistency check across the non-failed runs, against the first one
  // sorted once.
  std::optional<Relation> reference;
  for (const StrategyResult& r : results) {
    if (r.metrics.failed) continue;
    if (reference) {
      PTP_CHECK(r.output.EqualsUnorderedSorted(*reference))
          << "strategy results disagree!";
    } else {
      reference = r.output;
      reference->SortLex();
    }
  }
  std::cout << "\nall completed strategies returned identical results ("
            << (reference ? reference->NumTuples() : 0) << " tuples)\n";
  return results;
}

/// Prints the figure's claims with their verdicts. Returns how many
/// deterministic claims differ from their recorded verdict.
int PrintClaims(const PaperFigureSpec& figure,
                const std::vector<StrategyResult>& results) {
  std::cout << "\nclaims:\n";
  TablePrinter table({"claim", "measured", "paper", "kind", "verdict"});
  int mismatches = 0;
  for (const PaperClaim& claim : figure.claims) {
    const ClaimOutcome got = EvaluateClaim(claim, results);
    std::string verdict = VerdictMark(got.verdict);
    if (got.verdict != claim.recorded) {
      verdict += StrFormat(" (recorded %s)", VerdictMark(claim.recorded));
      mismatches += claim.timed() ? 0 : 1;
    }
    table.AddRow({claim.text, got.measured, got.paper,
                  claim.timed() ? "timed" : "deterministic", verdict});
  }
  table.Print();
  return mismatches;
}

}  // namespace
}  // namespace bench
}  // namespace ptp

int main(int argc, char** argv) {
  using namespace ptp;
  std::string only;  // empty = every figure
  std::vector<std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--figure=", 0) == 0) {
      only = arg.substr(9);
    } else {
      flags.push_back(arg);
    }
  }
  int ran = 0;
  int mismatches = 0;
  for (const PaperFigureSpec& figure : PaperFigureTable()) {
    if (!only.empty() && only != std::to_string(figure.figure)) continue;
    std::vector<std::string> args = figure.flags;
    args.insert(args.end(), flags.begin(), flags.end());
    const bench::BenchConfig config = bench::BenchConfig::FromFlags(args);
    if (only.empty() && !(config.trace_path + config.json_path +
                          config.profile_path).empty()) {
      std::cerr << "--trace=, --json= and --profile= write one figure's "
                   "run; pass --figure= with them\n";
      return 2;
    }
    if (ran++ > 0) std::cout << "\n";
    mismatches +=
        bench::PrintClaims(figure, bench::RunSixConfigs(config, figure));
  }
  if (ran == 0) {
    std::cerr << "unknown figure " << only
              << " (want --figure=3|4|6|9|13|14|15|17)\n";
    return 2;
  }
  if (mismatches > 0) {
    std::cout << "\n" << mismatches
              << " deterministic claim(s) differ from their recorded "
                 "verdict\n";
    return 1;
  }
  return 0;
}
