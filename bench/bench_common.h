#ifndef PTP_BENCH_BENCH_COMMON_H_
#define PTP_BENCH_BENCH_COMMON_H_

#include <time.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ptp/ptp.h"

namespace ptp {
namespace bench {

/// CPU seconds consumed so far on `clock`.
inline double CpuSeconds(clockid_t clock) {
  timespec ts;
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// CPU seconds consumed so far by the calling thread.
inline double ThreadCpuSeconds() {
  return CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
}

/// CPU seconds consumed so far by every thread of the process.
inline double ProcessCpuSeconds() {
  return CpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
}

/// Thread-CPU seconds of one call of `fn`.
template <typename Fn>
double TimeOnce(Fn&& fn) {
  const double t0 = ThreadCpuSeconds();
  fn();
  return ThreadCpuSeconds() - t0;
}

/// Minimum thread-CPU seconds over `reps` calls of `fn`.
template <typename Fn>
double TimeMin(int reps, Fn&& fn) {
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    const double elapsed = TimeOnce(fn);
    if (r == 0 || elapsed < best) best = elapsed;
  }
  return best;
}

/// Flags shared by the off/armed overhead benches
/// (micro_fault_overhead, micro_overhead): --json= --twitter-nodes=
/// --twitter-edges= --reps= and, for the benches that gate, --gate=.
struct OverheadConfig {
  std::string json_path;
  size_t twitter_nodes = 2000;
  size_t twitter_edges = 20000;
  int reps = 9;
  double gate = -1;  // < 0: the bench takes no --gate= flag

  /// Parses flags on top of `c`; an unknown flag prints usage and exits 2.
  static OverheadConfig FromArgs(int argc, char** argv, OverheadConfig c) {
    const bool gated = c.gate >= 0;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto eat = [&](const std::string& prefix, auto setter) {
        if (arg.rfind(prefix, 0) != 0) return false;
        setter(arg.substr(prefix.size()));
        return true;
      };
      using V = const std::string&;
      const bool ok =
          eat("--json=", [&](V v) { c.json_path = v; }) ||
          eat("--twitter-nodes=",
              [&](V v) { c.twitter_nodes = std::stoul(v); }) ||
          eat("--twitter-edges=",
              [&](V v) { c.twitter_edges = std::stoul(v); }) ||
          eat("--reps=", [&](V v) { c.reps = std::stoi(v); }) ||
          (gated && eat("--gate=", [&](V v) { c.gate = std::stod(v); }));
      if (!ok) {
        std::cerr << "unknown flag: " << arg
                  << "\nflags: --json= --twitter-nodes= --twitter-edges= "
                     "--reps="
                  << (gated ? " --gate=" : "") << "\n";
        std::exit(2);
      }
    }
    return c;
  }

  /// The measured workloads: the configured Twitter graph (Zipf 0.7) and
  /// Freebase at half scale.
  WorkloadScale Scale() const {
    WorkloadScale s;
    s.twitter.num_nodes = twitter_nodes;
    s.twitter.num_edges = twitter_edges;
    s.twitter.zipf_exponent = 0.7;
    s.freebase_scale = 0.5;
    return s;
  }
};

/// One measured mode of an overhead report.
struct ModeRow {
  std::string query;
  std::string mode;
  double cpu_seconds = 0;
  double overhead_vs_off = 0;  // (t - t_off) / t_off
};

/// Writes the overhead report (BENCH_fault.json and micro_overhead's
/// BENCH_<sink>.json): {"config": {...}, "modes": [...], <tail>}, where
/// `tail` holds the report's remaining top-level fields and `clock` names
/// the CPU clock the modes were timed on. Then prints one line per mode.
inline void WriteModeReport(const OverheadConfig& c, const char* clock,
                            const std::vector<ModeRow>& rows,
                            const std::string& tail) {
  std::ofstream out(c.json_path);
  PTP_CHECK(out.good()) << "cannot open " << c.json_path;
  out << "{\n  \"config\": {\"twitter_nodes\": " << c.twitter_nodes
      << ", \"twitter_edges\": " << c.twitter_edges << ", \"reps\": " << c.reps;
  if (c.gate >= 0) out << ", \"gate\": " << c.gate;
  out << ", \"clock\": \"" << clock
      << "\", \"nproc\": " << std::thread::hardware_concurrency()
      << "},\n  \"modes\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const ModeRow& r = rows[i];
    out << "    {\"query\": \"" << r.query << "\", \"mode\": \"" << r.mode
        << "\", \"cpu_seconds\": " << r.cpu_seconds
        << ", \"overhead_vs_off\": " << r.overhead_vs_off << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n  " << tail << "\n}\n";
  out.close();
  for (const ModeRow& r : rows) {
    std::cout << r.query << " " << r.mode << ": " << r.cpu_seconds << "s ("
              << r.overhead_vs_off * 100 << "% vs off)\n";
  }
  std::cout << "report written to " << c.json_path << "\n";
}

/// What MeasureArmedOverhead found: the fastest window per mode, per run,
/// and the gated overhead.
struct ArmedOverhead {
  double off_seconds = 0;
  double armed_seconds = 0;
  /// Median over the interleaved pairs of armed/off, minus one.
  double overhead = 0;
};

/// Measures what installing `armed` costs a workload: `off_run()` is one
/// iteration with no sinks, `armed_run()` one iteration under `armed` (it
/// may reset the armed sink first). Windows are timed on the process CPU
/// clock, so work a run hands to another thread (a server's executor) is
/// counted; with the runtime at one thread, the inline pool makes it equal
/// to the calling thread's CPU time. Fast workloads are batched so every
/// timed window is ~0.3 s: a 3% gate on a 90 ms query needs better than
/// ±2.7 ms of timing stability, which a single run does not have. Windows
/// stay moderate in favour of MORE pairs — per-pair ratios on a shared
/// machine carry a few percent of symmetric noise, and the median over many
/// pairs converges while two long windows would average fewer samples of
/// the same disturbance. The modes are interleaved (off, armed, off, armed,
/// ...): each pair runs back-to-back, so slow machine drift cancels out of
/// its ratio, and the median discards the pairs a noisy neighbour or
/// frequency excursion corrupted (min-of-off vs min-of-armed would compare
/// two different lucky draws instead). `after_pair(r)` runs after pair `r`
/// (outside the timed windows) for per-rep checks.
template <typename OffRun, typename ArmedRun, typename AfterPair>
ArmedOverhead MeasureArmedOverhead(const std::string& id, int reps,
                                   const runtime::QueryContext& armed,
                                   OffRun&& off_run, ArmedRun&& armed_run,
                                   AfterPair&& after_pair) {
  auto timed = [](int n, auto& run) {
    const double t0 = ProcessCpuSeconds();
    for (int i = 0; i < n; ++i) run();
    return ProcessCpuSeconds() - t0;
  };
  const double warmup = timed(1, off_run);
  const int inner =
      warmup > 0 ? std::max(1, static_cast<int>(0.3 / warmup)) : 1;
  auto window = [&](auto& run) { return timed(inner, run); };
  double best_off = 0;
  double best_armed = 0;
  std::vector<double> ratios;
  for (int r = 0; r < reps; ++r) {
    const double off = window(off_run);
    double on = 0;
    {
      runtime::ScopedQueryContext sinks(armed);
      on = window(armed_run);
    }
    if (r == 0 || off < best_off) best_off = off;
    if (r == 0 || on < best_armed) best_armed = on;
    if (off > 0) ratios.push_back(on / off);
    after_pair(r);
  }
  std::sort(ratios.begin(), ratios.end());
  const double median_ratio =
      ratios.empty() ? 1.0 : ratios[ratios.size() / 2];
  if (!ratios.empty()) {
    std::cout << id << " pair-ratio spread: min " << ratios.front()
              << " median " << median_ratio << " max " << ratios.back()
              << " (" << ratios.size() << " pairs, inner " << inner << ")\n";
  }
  return {best_off / inner, best_armed / inner, median_ratio - 1.0};
}

/// Command-line knobs shared by the figure-reproduction binaries.
/// All have defaults sized for a single-core laptop run; the paper's
/// cluster-scale numbers are printed alongside for shape comparison.
struct BenchConfig {
  int workers = 64;  // the paper's worker count
  /// Runtime pool size the W logical workers multiplex onto. 0 = auto
  /// (PTP_THREADS env var, else hardware concurrency); results are
  /// bit-identical at every setting — see docs/RUNTIME.md.
  int threads = 0;
  size_t twitter_nodes = 4000;
  size_t twitter_edges = 48000;
  double twitter_zipf = 0.7;
  double freebase_scale = 1.0;
  uint64_t seed = 42;
  size_t intermediate_budget = 20'000'000;
  size_t sort_budget = 0;  // 0 = budget / 4
  /// When nonempty, a Chrome/Perfetto trace of the run is written here
  /// (open in chrome://tracing or ui.perfetto.dev).
  std::string trace_path;
  /// When nonempty, EXPLAIN ANALYZE JSON for every strategy is written here.
  std::string json_path;
  /// When nonempty, the query profiler is enabled for the run and its
  /// versioned profile JSON (communication matrices, heavy-hitter key
  /// sketches, skew decomposition, per-worker timelines) is written here.
  /// Diff two of these with bench/profile_diff.
  std::string profile_path;
  /// Fault schedule (fault/fault.h grammar), e.g.
  /// "crash@worker=3,stage=join_0;drop@x=0,p=1,c=2". Defaults to the
  /// PTP_FAULTS env var; empty = no injection (zero-overhead fast path).
  std::string faults;
  /// Memory-meter control: -1 (default) leaves the meter off, 0 arms byte
  /// accounting with no budget, > 0 additionally sets a soft per-query
  /// budget in bytes (overruns are logged and annotated, never enforced).
  long long mem_budget = -1;
  /// Sideways-information-passing bloom filters on regular-shuffle rounds:
  /// "off" (default), "on", or "auto" — auto asks the advisor and enables
  /// the filter when its estimated probe-side reduction clears the
  /// worth-it threshold (refined by measured selectivity when
  /// --feedback-in= supplies a bloom-enabled run).
  std::string bloom = "off";
  /// When nonempty, measured cardinality/skew feedback for the run is
  /// recorded into this versioned JSON store (arming the memory meter so
  /// peak bytes are captured too). Re-recording a (query, workers) pair
  /// replaces its entry.
  std::string feedback_out;
  /// When nonempty, a feedback store recorded by a previous --feedback-out=
  /// run is loaded and the advisor re-picks the strategy from the measured
  /// values; the q-error audit is printed alongside.
  std::string feedback_in;
  /// Whole-run deadline in wall-clock milliseconds. > 0 arms a
  /// QueryLifecycle around the strategy runs: once elapsed, the next
  /// coordinator poll point turns the running strategy (and every later
  /// one) into a graceful kDeadlineExceeded FAIL (partial metrics intact —
  /// a FAIL data point, never an abort). 0 = off.
  double deadline_ms = 0;

  /// Parses flags on top of `base` (benches bake in per-figure defaults).
  static BenchConfig FromArgs(int argc, char** argv, BenchConfig base) {
    BenchConfig c = base;
    if (const char* env = std::getenv("PTP_FAULTS")) c.faults = env;
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      auto eat = [&](const std::string& prefix, auto setter) {
        if (arg.rfind(prefix, 0) == 0) {
          setter(arg.substr(prefix.size()));
          return true;
        }
        return false;
      };
      bool ok =
          eat("--workers=", [&](const std::string& v) { c.workers = std::stoi(v); }) ||
          eat("--threads=", [&](const std::string& v) { c.threads = std::stoi(v); }) ||
          eat("--twitter-nodes=", [&](const std::string& v) { c.twitter_nodes = std::stoul(v); }) ||
          eat("--twitter-edges=", [&](const std::string& v) { c.twitter_edges = std::stoul(v); }) ||
          eat("--twitter-zipf=", [&](const std::string& v) { c.twitter_zipf = std::stod(v); }) ||
          eat("--freebase-scale=", [&](const std::string& v) { c.freebase_scale = std::stod(v); }) ||
          eat("--seed=", [&](const std::string& v) { c.seed = std::stoul(v); }) ||
          eat("--budget=", [&](const std::string& v) { c.intermediate_budget = std::stoul(v); }) ||
          eat("--sort-budget=", [&](const std::string& v) { c.sort_budget = std::stoul(v); }) ||
          eat("--trace=", [&](const std::string& v) { c.trace_path = v; }) ||
          eat("--json=", [&](const std::string& v) { c.json_path = v; }) ||
          eat("--profile=", [&](const std::string& v) { c.profile_path = v; }) ||
          eat("--faults=", [&](const std::string& v) { c.faults = v; }) ||
          eat("--bloom=", [&](const std::string& v) { c.bloom = v; }) ||
          eat("--mem-budget=", [&](const std::string& v) { c.mem_budget = std::stoll(v); }) ||
          eat("--feedback-out=", [&](const std::string& v) { c.feedback_out = v; }) ||
          eat("--feedback-in=", [&](const std::string& v) { c.feedback_in = v; }) ||
          eat("--deadline-ms=", [&](const std::string& v) { c.deadline_ms = std::stod(v); });
      if (!ok) {
        std::cerr << "unknown flag: " << arg
                  << "\nflags: --workers= --threads= --twitter-nodes= "
                     "--twitter-edges= --twitter-zipf= --freebase-scale= "
                     "--seed= --budget= --sort-budget= --trace=<file> "
                     "--json=<file> --profile=<file> --faults=<schedule> "
                     "--bloom=on|off|auto --mem-budget=<bytes|-1> "
                     "--feedback-out=<file> --feedback-in=<file> "
                     "--deadline-ms=<ms>\n";
        std::exit(2);
      }
    }
    if (c.bloom != "on" && c.bloom != "off" && c.bloom != "auto") {
      std::cerr << "invalid --bloom= value '" << c.bloom
                << "' (want on, off, or auto)\n";
      std::exit(2);
    }
    runtime::SetThreads(c.threads);
    // Auto-detection resolving to one core serializes every parallel stage
    // and silently flattens the scaling figures — say so once, loudly.
    static bool warned_single_core = false;
    if (c.threads <= 0 && runtime::Threads() == 1 && !warned_single_core) {
      warned_single_core = true;
      std::cerr << "warning: --threads=auto resolved to a single core; "
                   "parallel stages will run serially (pass --threads=N or "
                   "set PTP_THREADS to override)\n";
    }
    return c;
  }

  WorkloadScale ToScale() const {
    WorkloadScale s;
    s.twitter.num_nodes = twitter_nodes;
    s.twitter.num_edges = twitter_edges;
    s.twitter.zipf_exponent = twitter_zipf;
    s.freebase_scale = freebase_scale;
    s.seed = seed;
    return s;
  }

  static BenchConfig FromArgs(int argc, char** argv) {
    return FromArgs(argc, argv, BenchConfig());
  }

  StrategyOptions ToOptions() const {
    StrategyOptions o;
    o.num_workers = workers;
    o.intermediate_budget = intermediate_budget;
    o.sort_budget = sort_budget;
    o.bloom = bloom == "on";  // "auto" is resolved where the advisor runs
    return o;
  }
};

/// Loads workload `q`, runs all six configurations, prints the figure.
/// `patch_options` lets a bench pin plan details (e.g. the paper's explicit
/// Figure-7 join order for Q4).
inline std::vector<StrategyResult> RunSixConfigs(
    const BenchConfig& config, int q, const std::string& title,
    const PaperFigure& paper,
    const std::function<void(StrategyOptions*)>& patch_options = nullptr) {
  WorkloadFactory factory(config.ToScale());
  auto wl = factory.Make(q);
  PTP_CHECK(wl.ok()) << wl.status().ToString();
  std::cout << wl->description << "\n"
            << "query: " << wl->query.ToString() << "\n"
            << "workers: " << config.workers << ", dataset: ";
  size_t input = 0;
  for (const auto& atom : wl->normalized.atoms) {
    input += atom.relation.NumTuples();
  }
  std::cout << input << " input tuples across " << wl->normalized.atoms.size()
            << " atoms\n\n";
  // Observability: --trace= records a Chrome trace of the whole run;
  // --json= exports per-strategy EXPLAIN ANALYZE (with the counter registry
  // embedded). Both are off by default, leaving the hot paths on their
  // single-branch disabled fast path. Every sink a flag arms goes into one
  // context, installed for the strategy runs only.
  runtime::QueryContext sinks;
  std::unique_ptr<TraceSession> trace;
  std::unique_ptr<CounterRegistry> counters;
  if (!config.trace_path.empty()) {
    trace = std::make_unique<TraceSession>();
    trace->NameTrack(kCoordinatorTrack, "coordinator");
    for (int w = 0; w < config.workers; ++w) {
      trace->NameTrack(WorkerTrack(w), StrFormat("worker %d", w));
    }
    sinks.trace = trace.get();
  }
  if (!config.trace_path.empty() || !config.json_path.empty()) {
    counters = std::make_unique<CounterRegistry>();
    sinks.counters = counters.get();
  }
  // --profile= turns on the query profiler (channel matrices, hot-key
  // sketches, per-worker timelines); when a trace is also active the
  // profiler additionally exports Perfetto counter tracks into it.
  std::unique_ptr<QueryProfile> profile;
  if (!config.profile_path.empty()) {
    profile = std::make_unique<QueryProfile>();
    sinks.profile = profile.get();
  }
  // --mem-budget= (>= 0) or --feedback-out= arms the byte-accounting meter
  // (docs/OBSERVABILITY.md): deterministic peak/live bytes per strategy,
  // mem.* counters, and — with a positive budget — soft overrun warnings.
  std::unique_ptr<ResourceMeter> meter;
  if (config.mem_budget >= 0 || !config.feedback_out.empty()) {
    meter = std::make_unique<ResourceMeter>(
        config.mem_budget > 0 ? static_cast<uint64_t>(config.mem_budget) : 0);
    sinks.meter = meter.get();
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
  }
  if (!config.feedback_in.empty()) {
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
  std::unique_ptr<FaultInjector> injector;
  if (!config.faults.empty()) {
    auto plan = FaultPlan::Parse(config.faults);
    PTP_CHECK(plan.ok()) << plan.status().ToString();
    injector = std::make_unique<FaultInjector>(std::move(plan).value());
    sinks.faults = injector.get();
    std::cout << "fault schedule: " << injector->plan().ToString() << "\n\n";
  }

  // --deadline-ms= arms the cooperative-cancellation machinery for the
  // whole run: an elapsed deadline makes strategies FAIL gracefully with
  // kDeadlineExceeded at their next coordinator poll point.
  std::unique_ptr<QueryLifecycle> lifecycle;
  if (config.deadline_ms > 0) {
    lifecycle = std::make_unique<QueryLifecycle>();
    lifecycle->SetDeadline(config.deadline_ms / 1000.0);
    sinks.lifecycle = lifecycle.get();
    std::cout << "deadline: " << config.deadline_ms << " ms\n\n";
  }

  StrategyOptions options = config.ToOptions();
  if (patch_options) patch_options(&options);
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
  std::vector<StrategyResult> results;
  {
    runtime::ScopedQueryContext installed(sinks);
    Result<std::vector<StrategyResult>> run =
        RunAllStrategies(wl->normalized, options);
    PTP_CHECK(run.ok()) << run.status().ToString();
    results = std::move(run).value();
  }

  if (lifecycle != nullptr && lifecycle->stats().deadline_exceeded) {
    std::cout << "deadline exceeded after " << lifecycle->stats().polls
              << " lifecycle polls\n";
  }
  if (injector != nullptr) {
    std::cout << "faults injected: " << injector->injected() << "\n";
  }
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
    size_t idx = 0;
    for (const auto& [shuffle, join] : AllStrategies()) {
      if (idx >= results.size()) break;
      entry->strategies.push_back(CollectStrategyFeedback(
          wl->normalized, StrategyName(shuffle, join), results[idx]));
      ++idx;
    }
    Status s = out_store.WriteFile(config.feedback_out);
    PTP_CHECK(s.ok()) << s.ToString();
    std::cout << "feedback JSON written to " << config.feedback_out << "\n";
  }
  if (profile != nullptr) {
    Status s = WriteProfileJsonFile(config.profile_path, *profile);
    PTP_CHECK(s.ok()) << s.ToString();
    std::cout << "profile JSON written to " << config.profile_path << "\n";
  }
  if (trace != nullptr) {
    Status s = trace->WriteJsonFile(config.trace_path);
    PTP_CHECK(s.ok()) << s.ToString();
  }

  PrintSixConfigFigure(title, results, paper);
  if (trace != nullptr) {
    std::cout << "trace written to " << config.trace_path << " ("
              << trace->events().size() << " events)\n";
  }
  if (!config.json_path.empty()) {
    std::ofstream out(config.json_path);
    PTP_CHECK(out.good()) << "cannot open " << config.json_path;
    ExplainOptions eo;
    eo.counters = counters.get();
    WriteStrategiesJson(out, results, eo);
    std::cout << "EXPLAIN ANALYZE JSON written to " << config.json_path
              << "\n";
  }

  // Consistency check across the non-failed runs.
  const Relation* reference = nullptr;
  for (const StrategyResult& r : results) {
    if (r.metrics.failed) continue;
    if (reference == nullptr) {
      reference = &r.output;
    } else {
      PTP_CHECK(r.output.EqualsUnordered(*reference))
          << "strategy results disagree!";
    }
  }
  std::cout << "\nall completed strategies returned identical results ("
            << (reference ? reference->NumTuples() : 0) << " tuples)\n";
  return results;
}

}  // namespace bench
}  // namespace ptp

#endif  // PTP_BENCH_BENCH_COMMON_H_
