// Estimate-feedback replay demonstration (docs/OBSERVABILITY.md): run the
// skewed Q1/Q4 workloads blind, record measured cardinalities and skew into
// a feedback store, then re-advise from the store and show that
//   1. the worst q-error fed to the advisor drops (measured values replace
//      the independence-assumption guesses), and
//   2. the re-picked strategy is at least as good: its measured shuffle
//      volume is no worse than the blind pick's.
// The two EXPLAIN ANALYZE trees (blind pick vs feedback pick) are printed
// and diffed so the plan change is visible line by line. Writes
// BENCH_feedback.json and exits nonzero when either gate fails.
//
// The store round-trips through --store= on disk (written, then re-loaded
// through the same parser --feedback-in= uses), so this bench also
// validates the schema end to end.

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "ptp/ptp.h"

namespace ptp {
namespace {

struct QueryRow {
  std::string query;
  std::string blind_strategy;
  std::string feedback_strategy;
  double blind_max_qerror = 1.0;
  double feedback_max_qerror = 1.0;
  double blind_tuples = 0;
  double feedback_tuples = 0;
};

// Index of strategy `name` in the paper-order results vector.
size_t StrategyIndex(const std::string& name) {
  size_t idx = 0;
  for (const auto& [shuffle, join] : AllStrategies()) {
    if (name == StrategyName(shuffle, join)) return idx;
    ++idx;
  }
  PTP_CHECK(false) << "unknown strategy " << name;
  return 0;
}

// Line-by-line diff of two EXPLAIN trees: unchanged lines print once,
// differing lines print as -blind / +feedback pairs.
void PrintExplainDiff(const std::string& blind, const std::string& fb) {
  std::vector<std::string> a, b;
  std::istringstream sa(blind), sb(fb);
  std::string line;
  while (std::getline(sa, line)) a.push_back(line);
  while (std::getline(sb, line)) b.push_back(line);
  const size_t n = std::max(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    const std::string* la = i < a.size() ? &a[i] : nullptr;
    const std::string* lb = i < b.size() ? &b[i] : nullptr;
    if (la != nullptr && lb != nullptr && *la == *lb) {
      std::cout << "  " << *la << "\n";
    } else {
      if (la != nullptr) std::cout << "- " << *la << "\n";
      if (lb != nullptr) std::cout << "+ " << *lb << "\n";
    }
  }
}

}  // namespace
}  // namespace ptp

int main(int argc, char** argv) {
  using namespace ptp;

  std::string json_path = "BENCH_feedback.json";
  std::string store_path = "feedback_replay.json";
  int workers = 16;
  size_t twitter_nodes = 2000;
  size_t twitter_edges = 24000;
  double twitter_zipf = 0.9;
  double freebase_scale = 0.25;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto eat = [&](const std::string& prefix, auto setter) {
      if (arg.rfind(prefix, 0) == 0) {
        setter(arg.substr(prefix.size()));
        return true;
      }
      return false;
    };
    const bool ok =
        eat("--json=", [&](const std::string& v) { json_path = v; }) ||
        eat("--store=", [&](const std::string& v) { store_path = v; }) ||
        eat("--workers=", [&](const std::string& v) { workers = std::stoi(v); }) ||
        eat("--twitter-nodes=",
            [&](const std::string& v) { twitter_nodes = std::stoul(v); }) ||
        eat("--twitter-edges=",
            [&](const std::string& v) { twitter_edges = std::stoul(v); }) ||
        eat("--twitter-zipf=",
            [&](const std::string& v) { twitter_zipf = std::stod(v); }) ||
        eat("--freebase-scale=",
            [&](const std::string& v) { freebase_scale = std::stod(v); });
    if (!ok) {
      std::cerr << "unknown flag: " << arg
                << "\nflags: --json= --store= --workers= --twitter-nodes= "
                   "--twitter-edges= --twitter-zipf= --freebase-scale=\n";
      return 2;
    }
  }

  WorkloadScale scale;
  scale.twitter.num_nodes = twitter_nodes;
  scale.twitter.num_edges = twitter_edges;
  scale.twitter.zipf_exponent = twitter_zipf;  // deliberately skewed
  scale.freebase_scale = freebase_scale;
  WorkloadFactory factory(scale);

  FeedbackStore store;
  std::vector<QueryRow> rows;
  bool gates_ok = true;

  for (const auto& [qn, id] :
       std::vector<std::pair<int, std::string>>{{1, "Q1"}, {4, "Q4"}}) {
    auto wl = factory.Make(qn);
    PTP_CHECK(wl.ok()) << wl.status().ToString();
    std::cout << "=== " << id << ": " << wl->query.ToString() << " (W="
              << workers << ")\n\n";

    StrategyOptions opts;
    opts.num_workers = workers;

    // Pass 1: blind. The advisor sees only its estimates.
    const StrategyAdvice blind = AdviseStrategy(wl->normalized, workers);
    std::cout << "blind advisor: " << StrategyName(blind.shuffle, blind.join)
              << " — " << blind.rationale << "\n";

    // Measure every strategy with the memory meter armed (peak bytes land
    // in the feedback records) and record the run into the store.
    ResourceMeter meter;
    auto run = [&] {
      runtime::ScopedQueryContext sinks({.meter = &meter});
      return RunAllStrategies(wl->normalized, opts);
    }();
    PTP_CHECK(run.ok()) << run.status().ToString();
    const std::vector<StrategyResult>& results = run.value();

    QueryFeedback* entry = store.FindOrAdd(wl->query.ToString(), workers);
    entry->strategies.clear();
    size_t idx = 0;
    for (const auto& [shuffle, join] : AllStrategies()) {
      entry->strategies.push_back(CollectStrategyFeedback(
          wl->normalized, StrategyName(shuffle, join), results[idx]));
      ++idx;
    }

    // Round-trip through disk: the replay must read exactly what
    // --feedback-in= would read.
    PTP_CHECK(store.WriteFile(store_path).ok());
    Result<FeedbackStore> loaded = FeedbackStore::LoadFile(store_path);
    PTP_CHECK(loaded.ok()) << loaded.status().ToString();
    const QueryFeedback* fb = loaded->Find(wl->query.ToString(), workers);
    PTP_CHECK(fb != nullptr) << id << ": store round-trip lost the entry";

    // Pass 2: replay. Measured values replace the guesses.
    const StrategyAdvice replay = AdviseStrategy(wl->normalized, workers, fb);
    std::cout << "replay advisor: "
              << StrategyName(replay.shuffle, replay.join) << " — "
              << replay.rationale << "\n\n";
    std::cout << QErrorAuditText(*fb) << "\n";

    // Gate 1: the q-error fed to the advisor must not get worse, and must
    // measurably shrink whenever the blind estimates were off.
    if (replay.feedback_max_qerror > replay.blind_max_qerror ||
        (replay.blind_max_qerror > 1.05 &&
         replay.feedback_max_qerror >= replay.blind_max_qerror)) {
      std::cerr << "FAIL " << id << ": q-error not reduced ("
                << replay.blind_max_qerror << " -> "
                << replay.feedback_max_qerror << ")\n";
      gates_ok = false;
    }

    // Gate 2: the re-picked strategy must shuffle no more than the blind
    // pick actually did. A family whose every run failed counts as
    // infinitely expensive.
    auto measured_tuples = [&](const StrategyAdvice& advice) {
      const std::string name = StrategyName(advice.shuffle, advice.join);
      const StrategyFeedback* family = fb->FindFamily(name.substr(0, 3));
      return family != nullptr ? family->tuples_shuffled
                               : std::numeric_limits<double>::infinity();
    };
    const double blind_tuples = measured_tuples(blind);
    const double fb_tuples = measured_tuples(replay);
    if (fb_tuples > blind_tuples) {
      std::cerr << "FAIL " << id << ": feedback pick shuffles more ("
                << fb_tuples << " > " << blind_tuples << ")\n";
      gates_ok = false;
    }

    // Diff the two EXPLAIN trees (timings off: deterministic output).
    ExplainOptions eo;
    eo.include_timings = false;
    eo.resources = &meter;
    const std::string blind_name = StrategyName(blind.shuffle, blind.join);
    const std::string fb_name = StrategyName(replay.shuffle, replay.join);
    const std::string blind_explain = ExplainAnalyzeText(
        blind_name, results[StrategyIndex(blind_name)], eo);
    const std::string fb_explain =
        ExplainAnalyzeText(fb_name, results[StrategyIndex(fb_name)], eo);
    if (blind_name == fb_name) {
      std::cout << "plan unchanged by feedback:\n" << blind_explain << "\n";
    } else {
      std::cout << "EXPLAIN diff (-" << blind_name << " +" << fb_name
                << "):\n";
      PrintExplainDiff(blind_explain, fb_explain);
      std::cout << "\n";
    }

    rows.push_back({id, blind_name, fb_name, replay.blind_max_qerror,
                    replay.feedback_max_qerror, blind_tuples, fb_tuples});
  }

  std::ofstream out(json_path);
  PTP_CHECK(out.good()) << "cannot open " << json_path;
  out << "{\n  \"config\": {\"workers\": " << workers
      << ", \"twitter_nodes\": " << twitter_nodes << ", \"twitter_edges\": "
      << twitter_edges << ", \"twitter_zipf\": " << twitter_zipf
      << ", \"freebase_scale\": " << freebase_scale << "},\n"
      << "  \"store\": \"" << store_path << "\",\n  \"queries\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const QueryRow& r = rows[i];
    out << "    {\"query\": \"" << r.query << "\", \"blind_strategy\": \""
        << r.blind_strategy << "\", \"feedback_strategy\": \""
        << r.feedback_strategy << "\", \"blind_max_qerror\": "
        << r.blind_max_qerror << ", \"feedback_max_qerror\": "
        << r.feedback_max_qerror << ", \"blind_tuples_shuffled\": "
        << (std::isinf(r.blind_tuples) ? -1.0 : r.blind_tuples)
        << ", \"feedback_tuples_shuffled\": "
        << (std::isinf(r.feedback_tuples) ? -1.0 : r.feedback_tuples) << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"gates_ok\": " << (gates_ok ? "true" : "false") << "\n}\n";
  out.close();
  std::cout << "report written to " << json_path << " (store: " << store_path
            << ")\n";
  return gates_ok ? 0 : 1;
}
