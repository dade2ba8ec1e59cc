#ifndef PTP_BENCH_BENCH_COMMON_H_
#define PTP_BENCH_BENCH_COMMON_H_

#include <time.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
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

  /// FromArgs over a flag list that holds no program name.
  static BenchConfig FromFlags(std::vector<std::string> flags) {
    std::vector<char*> argv = {nullptr};
    for (std::string& flag : flags) argv.push_back(flag.data());
    return FromArgs(static_cast<int>(argv.size()), argv.data());
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

}  // namespace bench
}  // namespace ptp

#endif  // PTP_BENCH_BENCH_COMMON_H_
