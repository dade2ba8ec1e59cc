// Closed-loop serving benchmark: `--concurrency` client threads each keep
// exactly one request in flight against a QueryServer, drawing from a
// seeded mix of the paper's eight queries (docs/SERVING.md), until
// `--queries` total requests have completed. Reports throughput and
// latency percentiles (pow2-bucket histogram quantiles, obs/counters.h)
// into BENCH_serving.json (asserted by the CI smoke step).
//
// The fleet telemetry plane (docs/OBSERVABILITY.md) is exercised end to
// end: `--metrics=` renders the server's Prometheus exposition (validated
// in-process by the strict line-format checker before it is written),
// `--query-log=` arms the structured JSONL query log — including one
// "audit" row per isolation-checked response — and `--trace=` stitches
// every request's submit/queue/execute spans into a Perfetto trace.
//
// Three properties are checked, not just measured:
//   isolation - after the run, every response's counters/metrics/output
//               are compared bit-for-bit against a solo run of the same
//               (query, strategy, workers) — concurrently-served queries
//               share the runtime pool but must never cross-charge;
//   cache     - the plan cache must have parsed each distinct (query,
//               workers) pair exactly once, no matter how many thousands
//               of requests hit it;
//   overhead  - arming the full telemetry plane (query log + trace +
//               metrics) must cost <= --gate (default 1%) CPU against
//               unarmed serving, under the same noise-floor-calibrated
//               off/armed/off sandwich as bench/serve_lifecycle.cc.
// Any failing exits nonzero.
//
// Not a google-benchmark binary: it has its own main (hence the CMake
// special case) so it can drive client threads and emit the JSON report.

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ptp/ptp.h"

namespace ptp {
namespace {

struct Config {
  int queries = 1000;     // total completed requests across all clients
  int concurrency = 4;    // client threads == server executors
  int workers = 16;       // logical cluster size per query
  int threads = 0;        // runtime pool (0 = auto)
  uint64_t seed = 42;
  uint64_t pool_bytes = 0;          // admission pool (0 = unlimited)
  uint64_t query_budget_bytes = 0;  // hard per-query budget (0 = off)
  size_t twitter_nodes = 1200;
  size_t twitter_edges = 12000;
  double freebase_scale = 0.25;
  std::string query_set = "1,2,3,4,5,6,7,8";
  std::string json_path = "BENCH_serving.json";
  std::string metrics_path;    // Prometheus exposition ("" = off)
  std::string query_log_path;  // structured JSONL query log ("" = off)
  std::string trace_path;      // stitched request trace ("" = off)
  double gate = 0.01;          // telemetry-armed overhead gate (fraction)
  int overhead_reps = 5;
};

struct Completed {
  int workload = 0;  // index into the workload vector
  double latency_seconds = 0;
  QueryResponse response;
};

// All percentiles in the report come from the same pow2-bucket estimator
// the fleet latency histograms use (Histogram::Quantile, pinned in
// tests/obs_test.cc) — one quantile implementation, not two.
uint64_t LatencyMicros(double seconds) {
  return static_cast<uint64_t>(std::max(0.0, seconds) * 1e6);
}

double QuantileMs(const Histogram& h, double q) {
  return h.Quantile(q) * 1e-3;
}

// CPU time across every thread of the process — the executors and the
// runtime pool do the serving work, so the caller's thread clock would
// miss nearly all of it.
double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// What the server's executor does for one query, minus the server: fresh
/// sinks, direct RunStrategy. The reference for the isolation check.
struct SoloRun {
  QueryMetrics metrics;
  std::vector<std::pair<std::string, uint64_t>> counters;
  Relation output;
};

SoloRun RunSolo(const Workload& wl, const std::string& strategy, bool bloom,
                int workers, uint64_t query_budget_bytes) {
  ShuffleKind shuffle = ShuffleKind::kRegular;
  JoinKind join = JoinKind::kHashJoin;
  for (const auto& [s, j] : AllStrategies()) {
    if (strategy == StrategyName(s, j)) {
      shuffle = s;
      join = j;
    }
  }
  StrategyOptions opts;
  opts.num_workers = workers;
  opts.bloom = bloom;
  CounterRegistry counters;
  ResourceMeter meter(query_budget_bytes, /*hard=*/true);
  Result<StrategyResult> result = [&] {
    runtime::ScopedQueryContext sinks({.counters = &counters, .meter = &meter});
    return RunStrategy(wl.normalized, shuffle, join, opts);
  }();
  PTP_CHECK(result.ok()) << wl.id << ": " << result.status().ToString();
  SoloRun solo;
  solo.metrics = result->metrics;
  solo.counters = counters.CounterSnapshot();
  solo.output = std::move(result->output);
  return solo;
}

}  // namespace
}  // namespace ptp

int main(int argc, char** argv) {
  using namespace ptp;

  Config c;
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
        eat("--queries=", [&](const std::string& v) { c.queries = std::stoi(v); }) ||
        eat("--concurrency=", [&](const std::string& v) { c.concurrency = std::stoi(v); }) ||
        eat("--workers=", [&](const std::string& v) { c.workers = std::stoi(v); }) ||
        eat("--threads=", [&](const std::string& v) { c.threads = std::stoi(v); }) ||
        eat("--seed=", [&](const std::string& v) { c.seed = std::stoul(v); }) ||
        eat("--pool=", [&](const std::string& v) { c.pool_bytes = std::stoull(v); }) ||
        eat("--query-budget=", [&](const std::string& v) { c.query_budget_bytes = std::stoull(v); }) ||
        eat("--twitter-nodes=", [&](const std::string& v) { c.twitter_nodes = std::stoul(v); }) ||
        eat("--twitter-edges=", [&](const std::string& v) { c.twitter_edges = std::stoul(v); }) ||
        eat("--freebase-scale=", [&](const std::string& v) { c.freebase_scale = std::stod(v); }) ||
        eat("--query-set=", [&](const std::string& v) { c.query_set = v; }) ||
        eat("--json=", [&](const std::string& v) { c.json_path = v; }) ||
        eat("--metrics=", [&](const std::string& v) { c.metrics_path = v; }) ||
        eat("--query-log=", [&](const std::string& v) { c.query_log_path = v; }) ||
        eat("--trace=", [&](const std::string& v) { c.trace_path = v; }) ||
        eat("--gate=", [&](const std::string& v) { c.gate = std::stod(v); }) ||
        eat("--overhead-reps=", [&](const std::string& v) { c.overhead_reps = std::stoi(v); });
    if (!ok) {
      std::cerr << "unknown flag: " << arg
                << "\nflags: --queries= --concurrency= --workers= "
                   "--threads= --seed= --pool=<bytes> "
                   "--query-budget=<bytes> --twitter-nodes= "
                   "--twitter-edges= --freebase-scale= "
                   "--query-set=1,2,... --json=<file> --metrics=<file> "
                   "--query-log=<file> --trace=<file> --gate= "
                   "--overhead-reps=\n";
      return 2;
    }
  }
  runtime::SetThreads(c.threads);

  // Build the query mix once; every client draws from the same workloads
  // (and thus the same catalogs — the server is the only writer via
  // dictionary interning, which the plan cache serializes).
  WorkloadScale scale;
  scale.twitter.num_nodes = c.twitter_nodes;
  scale.twitter.num_edges = c.twitter_edges;
  scale.twitter.zipf_exponent = 0.7;
  scale.freebase_scale = c.freebase_scale;
  scale.seed = c.seed;
  WorkloadFactory factory(scale);
  std::vector<Workload> workloads;
  {
    std::string token;
    for (char ch : c.query_set + ",") {
      if (ch == ',') {
        if (!token.empty()) {
          Result<Workload> wl = factory.Make(std::stoi(token));
          PTP_CHECK(wl.ok()) << wl.status().ToString();
          workloads.push_back(std::move(wl).value());
          token.clear();
        }
      } else {
        token += ch;
      }
    }
  }
  PTP_CHECK(!workloads.empty()) << "empty --query-set";

  std::cout << "closed-loop serving: " << c.queries << " requests, "
            << c.concurrency << " clients (one in flight each), mix of ";
  for (size_t i = 0; i < workloads.size(); ++i) {
    std::cout << (i ? "," : "") << workloads[i].id;
  }
  std::cout << ", W=" << c.workers << ", pool threads "
            << runtime::Threads() << "\n";

  // The trace session must outlive the server (the server stitches
  // request spans into it until its destructor joins the executors).
  TraceSession trace;
  ServerOptions so;
  so.executors = c.concurrency;
  so.memory_pool_bytes = c.pool_bytes;
  so.query_budget_bytes = c.query_budget_bytes;
  so.query_log_path = c.query_log_path;
  if (!c.trace_path.empty()) so.trace = &trace;
  QueryServer server(so);

  // Closed loop: each client owns a session and keeps exactly one request
  // outstanding; the next request fires only when the previous response
  // lands. The mixed arrival order is seeded and client-local, so reruns
  // submit the same per-client query sequence.
  std::vector<std::vector<Completed>> per_client(
      static_cast<size_t>(c.concurrency));
  std::atomic<int> next_ticket{0};
  Timer wall;
  {
    std::vector<std::thread> clients;
    clients.reserve(static_cast<size_t>(c.concurrency));
    for (int cl = 0; cl < c.concurrency; ++cl) {
      clients.emplace_back([&, cl] {
        QueryServer::Session* session = nullptr;
        {
          static std::mutex open_mu;
          std::lock_guard<std::mutex> lock(open_mu);
          session = server.OpenSession(
              "client" + std::to_string(cl + 1));
        }
        Rng rng(c.seed * 1000003 + static_cast<uint64_t>(cl));
        while (next_ticket.fetch_add(1) < c.queries) {
          const int w = static_cast<int>(rng.Uniform(workloads.size()));
          QueryRequest req;
          req.text = workloads[static_cast<size_t>(w)].query.ToString();
          req.catalog = workloads[static_cast<size_t>(w)].catalog.get();
          req.workers = c.workers;
          Timer latency;
          QueryHandle handle = session->Submit(req);
          const QueryResponse& r = handle.Get();  // closed loop: block
          Completed done;
          done.workload = w;
          done.latency_seconds = latency.Seconds();
          done.response = r;
          per_client[static_cast<size_t>(cl)].push_back(std::move(done));
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  const double wall_seconds = wall.Seconds();
  server.Drain();

  std::vector<Completed> all;
  for (std::vector<Completed>& v : per_client) {
    for (Completed& d : v) all.push_back(std::move(d));
  }
  PTP_CHECK_EQ(all.size(), static_cast<size_t>(c.queries));

  uint64_t ok_count = 0;
  uint64_t failed = 0;
  uint64_t cache_hits = 0;
  for (const Completed& d : all) {
    if (d.response.status.ok()) {
      ++ok_count;
    } else {
      ++failed;
    }
    if (d.response.cache_hit) ++cache_hits;
  }

  // Isolation check: one solo reference per distinct (workload, strategy,
  // bloom) actually served — feedback can upgrade a hot query's strategy or
  // flip its bloom decision between executions, and each upgraded plan gets
  // its own reference — then every successful response must match its
  // reference bit-for-bit. With the query log armed, every audited
  // response appends a kind:"audit" row next to its request record, so
  // the per-request verdicts are machine-readable, not stdout-only.
  std::map<std::pair<int, std::string>, SoloRun> references;
  uint64_t isolation_checked = 0;
  uint64_t isolation_mismatches = 0;
  for (const Completed& d : all) {
    if (!d.response.status.ok()) continue;
    const auto key = std::make_pair(
        d.workload,
        d.response.strategy + (d.response.bloom ? "+bloom" : ""));
    auto it = references.find(key);
    if (it == references.end()) {
      it = references
               .emplace(key, RunSolo(workloads[static_cast<size_t>(
                                         d.workload)],
                                     d.response.strategy, d.response.bloom,
                                     c.workers, c.query_budget_bytes))
               .first;
    }
    const SoloRun& solo = it->second;
    ++isolation_checked;
    const QueryResponse& r = d.response;
    const bool match = r.output.EqualsUnordered(solo.output) &&
                       r.metrics.output_tuples == solo.metrics.output_tuples &&
                       r.metrics.TuplesShuffled() ==
                           solo.metrics.TuplesShuffled() &&
                       r.metrics.peak_bytes == solo.metrics.peak_bytes &&
                       r.metrics.charged_bytes == solo.metrics.charged_bytes &&
                       r.counters == solo.counters;
    if (!match) {
      ++isolation_mismatches;
      std::cerr << "ISOLATION MISMATCH: " << r.id << " ("
                << workloads[static_cast<size_t>(d.workload)].id << ", "
                << r.strategy << ") diverges from its solo run\n";
    }
    if (QueryLog* qlog = server.query_log()) {
      qlog->AppendLine(StrFormat(
          "{\"v\":1,\"kind\":\"audit\",\"id\":%s,\"query\":%s,"
          "\"strategy\":%s,\"bloom\":%s,\"match\":%s}",
          JsonQuote(r.id).c_str(),
          JsonQuote(workloads[static_cast<size_t>(d.workload)].id).c_str(),
          JsonQuote(r.strategy).c_str(), r.bloom ? "true" : "false",
          match ? "true" : "false"));
    }
  }

  // Cache check: exactly one parse per distinct (query, workers) pair, one
  // advisor scan per parse (feedback folds never re-scan), and at most one
  // variable-order optimization per entry.
  const PlanCache::Stats cache = server.plan_cache().stats();
  const bool cache_ok = cache.parses == workloads.size() &&
                        cache.hits + cache.misses >=
                            static_cast<uint64_t>(c.queries) &&
                        cache.blind_advisories == cache.parses &&
                        cache.order_optimizations <= cache.parses;

  const QueryServer::Stats stats = server.stats();
  Histogram latency_hist;
  for (const Completed& d : all) {
    latency_hist.Record(LatencyMicros(d.latency_seconds));
  }
  const double p50 = QuantileMs(latency_hist, 0.50);
  const double p95 = QuantileMs(latency_hist, 0.95);
  const double p99 = QuantileMs(latency_hist, 0.99);
  const double p999 = QuantileMs(latency_hist, 0.999);
  const double qps =
      wall_seconds > 0 ? static_cast<double>(c.queries) / wall_seconds : 0;

  // Per-workload latency rows.
  struct QueryRow {
    std::string id;
    Histogram latencies;
    std::vector<std::string> strategies;  // distinct, in first-seen order
  };
  std::vector<QueryRow> rows(workloads.size());
  for (size_t w = 0; w < workloads.size(); ++w) rows[w].id = workloads[w].id;
  for (const Completed& d : all) {
    QueryRow& row = rows[static_cast<size_t>(d.workload)];
    row.latencies.Record(LatencyMicros(d.latency_seconds));
    if (d.response.status.ok() &&
        std::find(row.strategies.begin(), row.strategies.end(),
                  d.response.strategy) == row.strategies.end()) {
      row.strategies.push_back(d.response.strategy);
    }
  }

  // Telemetry exports: the exposition is validated by the strict checker
  // before it is written — a malformed render fails the run, not just the
  // scrape.
  bool prom_valid = true;
  if (!c.metrics_path.empty()) {
    const std::string prom = server.RenderMetricsProm();
    const Status valid = ValidatePrometheusText(prom);
    if (!valid.ok()) {
      prom_valid = false;
      std::cerr << "FAIL: metrics exposition invalid: " << valid.ToString()
                << "\n";
    }
    std::ofstream mout(c.metrics_path);
    PTP_CHECK(mout.good()) << "cannot open " << c.metrics_path;
    mout << prom;
  }
  if (!c.trace_path.empty()) {
    const Status ts = trace.WriteJsonFile(c.trace_path);
    PTP_CHECK(ts.ok()) << ts.ToString();
  }
  const uint64_t query_log_lines =
      server.query_log() != nullptr ? server.query_log()->lines_written()
                                    : 0;

  // Telemetry-armed overhead: a single-executor, single-client closed
  // loop, CPU-timed over the whole process (executors + pool do the
  // work). Each rep sandwiches an armed window (query log + trace +
  // metrics render all live) between two unarmed windows; methodology —
  // median-of-ratios AND best-window ratio, gated at --gate plus the
  // off/off noise floor of the same reps — as in bench/serve_lifecycle.cc.
  runtime::SetThreads(1);
  double telemetry_overhead = 0;
  double telemetry_noise_floor = 0;
  bool telemetry_ok = true;
  int overhead_inner = 0;
  {
    const Workload& wl = workloads[0];
    const std::string ovh_qlog = c.json_path + ".ovh.qlog.jsonl";
    auto run_window = [&](bool armed, int n) {
      TraceSession window_trace;
      ServerOptions wo;
      wo.executors = 1;
      if (armed) {
        wo.query_log_path = ovh_qlog;
        wo.trace = &window_trace;
      }
      QueryServer window_server(wo);
      QueryServer::Session* session = window_server.OpenSession("ovh");
      const double t0 = ProcessCpuSeconds();
      for (int i = 0; i < n; ++i) {
        QueryRequest req;
        req.text = wl.query.ToString();
        req.catalog = wl.catalog.get();
        req.workers = c.workers;
        session->Submit(req).Get();
      }
      const double elapsed = ProcessCpuSeconds() - t0;
      if (armed) {
        const std::string prom = window_server.RenderMetricsProm();
        PTP_CHECK(ValidatePrometheusText(prom).ok());
      }
      return elapsed;
    };
    // Calibrate the window to ~0.25 s of CPU so the clock's granularity
    // is far below the gate.
    const double once = run_window(false, 1);
    overhead_inner =
        once > 0 ? std::max(4, static_cast<int>(0.25 / once)) : 4;
    std::vector<double> ratios, noise_samples;
    double best_off = 0, best_on = 0;
    for (int r = 0; r < c.overhead_reps; ++r) {
      const double off_a = run_window(false, overhead_inner);
      const double on = run_window(true, overhead_inner);
      const double off_b = run_window(false, overhead_inner);
      const double off_mean = (off_a + off_b) / 2;
      if (best_off == 0 || off_a < best_off) best_off = off_a;
      if (off_b < best_off) best_off = off_b;
      if (best_on == 0 || on < best_on) best_on = on;
      if (off_mean > 0) ratios.push_back(on / off_mean);
      if (off_a > 0 && off_b > 0) {
        noise_samples.push_back(std::abs(off_b / off_a - 1.0));
      }
    }
    std::sort(ratios.begin(), ratios.end());
    std::sort(noise_samples.begin(), noise_samples.end());
    const double median_ratio =
        ratios.empty() ? 1.0 : ratios[ratios.size() / 2];
    const double best_ratio = best_off > 0 ? best_on / best_off : 1.0;
    const double noise_floor =
        noise_samples.empty() ? 0.0
                              : noise_samples[noise_samples.size() / 2];
    telemetry_overhead = std::min(median_ratio, best_ratio) - 1.0;
    telemetry_noise_floor = noise_floor;
    telemetry_ok = telemetry_overhead <= c.gate + noise_floor;
    std::remove(ovh_qlog.c_str());
    std::cout << "telemetry overhead: armed/off median " << median_ratio
              << ", best-window " << best_ratio << ", off/off noise floor "
              << noise_floor * 100 << "% over " << c.overhead_reps
              << " reps (inner " << overhead_inner << "), gate "
              << c.gate * 100 << "% + floor\n";
  }

  std::ofstream out(c.json_path);
  PTP_CHECK(out.good()) << "cannot open " << c.json_path;
  out << "{\n  \"config\": {\"queries\": " << c.queries
      << ", \"concurrency\": " << c.concurrency
      << ", \"workers\": " << c.workers
      << ", \"pool_threads\": " << runtime::Threads()
      << ", \"seed\": " << c.seed
      << ", \"pool_bytes\": " << c.pool_bytes
      << ", \"query_budget_bytes\": " << c.query_budget_bytes << "},\n";
  out << "  \"totals\": {\"completed\": " << stats.completed
      << ", \"ok\": " << ok_count << ", \"failed\": " << failed
      << ", \"rejected\": " << stats.rejected
      << ", \"cache_hits\": " << cache_hits
      << ", \"wall_seconds\": " << wall_seconds
      << ", \"qps\": " << qps << "},\n";
  out << "  \"latency\": {\"p50_ms\": " << p50 << ", \"p95_ms\": " << p95
      << ", \"p99_ms\": " << p99 << ", \"p999_ms\": " << p999
      << ", \"max_ms\": "
      << static_cast<double>(latency_hist.max()) * 1e-3 << "},\n";
  out << "  \"plan_cache\": {\"parses\": " << cache.parses
      << ", \"hits\": " << cache.hits << ", \"misses\": " << cache.misses
      << ", \"refreshes\": " << cache.refreshes
      << ", \"blind_advisories\": " << cache.blind_advisories
      << ", \"order_optimizations\": " << cache.order_optimizations
      << "},\n";
  out << "  \"scheduler\": {\"small_dispatched\": " << stats.small_dispatched
      << ", \"large_dispatched\": " << stats.large_dispatched
      << ", \"admission_stalls\": " << stats.admission_stalls << "},\n";
  out << "  \"isolation\": {\"checked\": " << isolation_checked
      << ", \"references\": " << references.size()
      << ", \"mismatches\": " << isolation_mismatches << "},\n";
  out << "  \"telemetry\": {\"prom_valid\": "
      << (prom_valid ? "true" : "false")
      << ", \"query_log_lines\": " << query_log_lines
      << ", \"overhead\": {\"measured_overhead\": " << telemetry_overhead
      << ", \"noise_floor\": " << telemetry_noise_floor
      << ", \"gate\": " << c.gate << ", \"reps\": " << c.overhead_reps
      << ", \"inner\": " << overhead_inner
      << ", \"ok\": " << (telemetry_ok ? "true" : "false") << "}},\n";
  out << "  \"per_query\": [\n";
  for (size_t w = 0; w < rows.size(); ++w) {
    QueryRow& row = rows[w];
    out << "    {\"query\": \"" << row.id
        << "\", \"count\": " << row.latencies.count()
        << ", \"p50_ms\": " << QuantileMs(row.latencies, 0.50)
        << ", \"p99_ms\": " << QuantileMs(row.latencies, 0.99)
        << ", \"strategies\": [";
    for (size_t s = 0; s < row.strategies.size(); ++s) {
      out << (s ? ", " : "") << "\"" << row.strategies[s] << "\"";
    }
    out << "]}" << (w + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  out.close();

  std::cout << "\n" << c.queries << " requests in " << wall_seconds
            << "s — " << qps << " queries/s\n"
            << "latency p50 " << p50 << " ms, p95 " << p95 << " ms, p99 "
            << p99 << " ms, p999 " << p999 << " ms\n"
            << "plan cache: " << cache.parses << " parses, " << cache.hits
            << " hits, " << cache.misses << " misses\n"
            << "isolation: " << isolation_checked << " responses vs "
            << references.size() << " solo references, "
            << isolation_mismatches << " mismatches\n"
            << "report written to " << c.json_path << "\n";

  if (isolation_mismatches > 0) {
    std::cerr << "FAIL: " << isolation_mismatches
              << " responses diverged from their solo runs\n";
    return 1;
  }
  if (!cache_ok) {
    std::cerr << "FAIL: plan cache parsed " << cache.parses
              << " times for " << workloads.size()
              << " distinct queries (hits " << cache.hits << ", misses "
              << cache.misses << ", advisor scans " << cache.blind_advisories
              << ", order optimizations " << cache.order_optimizations
              << ")\n";
    return 1;
  }
  if (!prom_valid) return 1;
  if (!telemetry_ok) {
    std::cerr << "FAIL: telemetry-armed overhead "
              << telemetry_overhead * 100 << "% exceeds gate "
              << c.gate * 100 << "% + noise floor "
              << telemetry_noise_floor * 100 << "%\n";
    return 1;
  }
  return 0;
}
