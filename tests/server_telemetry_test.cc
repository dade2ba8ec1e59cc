// Fleet telemetry plane tests (server/telemetry.h, obs/metrics_export.h):
// the metrics registry must agree with the per-response ground truth, the
// Prometheus exposition must round-trip the strict line-format checker
// (and the checker must reject corrupted expositions), the structured
// query log must hold exactly one parseable JSONL record per resolved
// request — including shed and cancelled ones — the snapshot renderer is
// pinned by a golden, the stitched request trace must carry a
// submit->queue->execute flow per request, and every way a request can end
// (reject, shed, cancel, dispatch-time stop, completion, budget FAIL) is
// pinned end to end by an exit golden.

#include "server/telemetry.h"

#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/str_util.h"
#include "gtest/gtest.h"
#include "obs/metrics_export.h"
#include "obs/profile_report.h"
#include "obs/trace.h"
#include "server/server.h"
#include "storage/catalog.h"
#include "test_util.h"

namespace ptp {
namespace {

std::shared_ptr<Catalog> MakeCatalog(uint64_t seed, size_t tuples,
                                     Value domain) {
  auto catalog = std::make_shared<Catalog>();
  Rng rng(seed);
  for (const char* name : {"R", "S", "U"}) {
    catalog->Put(test::RandomBinaryRelation(name, {"a", "b"}, tuples, domain,
                                            &rng));
  }
  return catalog;
}

QueryRequest MakeRequest(Catalog* catalog, const std::string& text,
                         int workers = 4) {
  QueryRequest req;
  req.text = text;
  req.catalog = catalog;
  req.workers = workers;
  return req;
}

constexpr const char* kTriangle = "T(x,y,z) :- R(x,y), S(y,z), U(z,x).";
constexpr const char* kPath = "P(x,w) :- R(x,y), S(y,z), U(z,w).";

std::string TempPath(const char* name) {
  return ::testing::TempDir() + name;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// ---------------------------------------------------------------------------
// Outcome vocabulary.
// ---------------------------------------------------------------------------

TEST(Telemetry, OutcomeNames) {
  EXPECT_EQ(OutcomeName(StatusCode::kOk, false, false), "ok");
  EXPECT_EQ(OutcomeName(StatusCode::kInvalidArgument, false, false),
            "invalid");
  EXPECT_EQ(OutcomeName(StatusCode::kResourceExhausted, true, false), "shed");
  EXPECT_EQ(OutcomeName(StatusCode::kResourceExhausted, false, true),
            "rejected");
  EXPECT_EQ(OutcomeName(StatusCode::kResourceExhausted, false, false),
            "resource_exhausted");
  EXPECT_EQ(OutcomeName(StatusCode::kCancelled, false, false), "cancelled");
  EXPECT_EQ(OutcomeName(StatusCode::kDeadlineExceeded, false, false),
            "deadline_exceeded");
  EXPECT_EQ(OutcomeName(StatusCode::kUnavailable, false, false),
            "unavailable");
  EXPECT_EQ(OutcomeName(StatusCode::kInternal, false, false), "failed");
}

// ---------------------------------------------------------------------------
// Fleet metrics vs per-response ground truth.
// ---------------------------------------------------------------------------

TEST(Telemetry, MetricsMatchResponses) {
  auto catalog = MakeCatalog(7, 400, 40);
  ServerOptions so;
  so.executors = 3;
  QueryServer server(so);
  auto* session = server.OpenSession("t");

  std::vector<QueryHandle> handles;
  for (int i = 0; i < 12; ++i) {
    handles.push_back(session->Submit(MakeRequest(
        catalog.get(), i % 2 == 0 ? kTriangle : kPath)));
  }
  server.Drain();

  uint64_t ok = 0, cache_hits = 0, small = 0, large = 0;
  for (const QueryHandle& h : handles) {
    const QueryResponse& r = h.Get();
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    ++ok;
    if (r.cache_hit) ++cache_hits;
    if (r.cost_class == "small") {
      ++small;
    } else {
      ++large;
    }
  }

  const ServerTelemetry& t = server.telemetry();
  EXPECT_EQ(t.CounterValue("outcome.ok"), ok);
  EXPECT_EQ(t.CounterValue("cache_hits"), cache_hits);
  EXPECT_EQ(t.CounterValue("class.small"), small);
  EXPECT_EQ(t.CounterValue("class.large"), large);
  EXPECT_EQ(t.CounterValue("dispatched"), 12u);

  // Every resolved request lands in the end-to-end histogram of its class;
  // every dispatched one also in queue-wait and execution.
  for (const RequestPhase phase :
       {RequestPhase::kAdmission, RequestPhase::kQueueWait,
        RequestPhase::kExecution, RequestPhase::kEndToEnd}) {
    const uint64_t total = t.LatencySnapshot(phase, true).count() +
                           t.LatencySnapshot(phase, false).count();
    EXPECT_EQ(total, 12u) << RequestPhaseName(phase);
  }
  EXPECT_EQ(t.LatencySnapshot(RequestPhase::kEndToEnd, true).count(), small);
  EXPECT_EQ(t.LatencySnapshot(RequestPhase::kEndToEnd, false).count(), large);
}

// ---------------------------------------------------------------------------
// Prometheus exposition round-trip.
// ---------------------------------------------------------------------------

TEST(Telemetry, PrometheusRoundTrip) {
  auto catalog = MakeCatalog(11, 300, 30);
  ServerOptions so;
  so.executors = 2;
  QueryServer server(so);
  auto* session = server.OpenSession();
  for (int i = 0; i < 6; ++i) {
    session->Submit(MakeRequest(catalog.get(), kTriangle));
  }
  server.Drain();

  const std::string prom = server.RenderMetricsProm();
  EXPECT_TRUE(ValidatePrometheusText(prom).ok())
      << ValidatePrometheusText(prom).ToString();
  EXPECT_NE(prom.find("ptp_request_latency_seconds_bucket"),
            std::string::npos);
  EXPECT_NE(prom.find("ptp_server_requests_total{outcome=\"ok\"} 6"),
            std::string::npos);
  EXPECT_NE(prom.find("ptp_plan_cache_lookups_total{result=\"hit\"} 5"),
            std::string::npos);
  // Each fleet family is declared with its Prometheus type.
  for (const auto& [family, type] :
       std::vector<std::pair<std::string, std::string>>{
           {"ptp_request_latency_seconds", "histogram"},
           {"ptp_server_requests_total", "counter"},
           {"ptp_server_queue_depth", "gauge"},
           {"ptp_plan_cache_lookups_total", "counter"},
           {"ptp_plan_cache_blind_advisories_total", "counter"},
           {"ptp_plan_cache_order_optimizations_total", "counter"}}) {
    EXPECT_NE(prom.find("# TYPE " + family + " " + type + "\n"),
              std::string::npos)
        << family << " is not declared as a " << type;
  }
  size_t samples = 0;
  std::istringstream lines(prom);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind('#', 0) != 0) ++samples;
  }
  EXPECT_GT(samples, 50u);

  // The JSON render parses with the in-repo parser and carries the same
  // counters.
  Result<JsonValue> json = ParseJson(server.RenderMetricsJson());
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  const JsonValue* fleet = json->Find("fleet");
  ASSERT_NE(fleet, nullptr);
  const JsonValue* counters = fleet->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->NumberOr("outcome.ok", -1), 6);

  // The checker is strict: corruptions a scraper would choke on fail.
  EXPECT_FALSE(ValidatePrometheusText("").ok());
  EXPECT_FALSE(ValidatePrometheusText(prom.substr(0, prom.size() - 1)).ok())
      << "missing trailing newline must fail";
  EXPECT_FALSE(ValidatePrometheusText(prom + "undeclared_metric 1\n").ok())
      << "sample without a TYPE declaration must fail";
  EXPECT_FALSE(ValidatePrometheusText(prom + "# free-form comment\n").ok())
      << "comments other than HELP/TYPE must fail";
  EXPECT_FALSE(
      ValidatePrometheusText("# TYPE h histogram\n"
                             "h_bucket{le=\"2\"} 3\n"
                             "h_bucket{le=\"1\"} 1\n"
                             "h_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n")
          .ok())
      << "non-monotonic le must fail";
  EXPECT_FALSE(
      ValidatePrometheusText("# TYPE h histogram\n"
                             "h_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 2\n")
          .ok())
      << "_count disagreeing with the +Inf bucket must fail";
  EXPECT_TRUE(
      ValidatePrometheusText("# TYPE h histogram\n"
                             "h_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n")
          .ok());
}

// ---------------------------------------------------------------------------
// Structured query log.
// ---------------------------------------------------------------------------

TEST(Telemetry, QueryLogOneRecordPerRequest) {
  auto catalog = MakeCatalog(13, 300, 30);
  const std::string path = TempPath("telemetry_qlog_test.jsonl");
  uint64_t submitted = 0;
  {
    ServerOptions so;
    so.executors = 1;
    so.start_paused = true;  // stage shed + cancel deterministically
    so.max_queue_depth = 3;
    so.query_log_path = path;
    so.slow_query_seconds = 1e-9;  // everything that runs is "slow"
    QueryServer server(so);
    auto* session = server.OpenSession("c");
    std::vector<QueryHandle> handles;
    for (int i = 0; i < 5; ++i) {  // 3 queue, 2 shed at the cap
      handles.push_back(session->Submit(MakeRequest(catalog.get(),
                                                    kTriangle)));
      ++submitted;
    }
    ASSERT_TRUE(session->Cancel("c.q3"));  // cancelled while queued
    server.Start();
    server.Drain();
    uint64_t ok = 0, shed = 0, cancelled = 0;
    for (const QueryHandle& h : handles) {
      const QueryResponse& r = h.Get();
      if (r.status.ok()) ++ok;
      if (r.status.code() == StatusCode::kResourceExhausted) ++shed;
      if (r.status.code() == StatusCode::kCancelled) ++cancelled;
    }
    EXPECT_EQ(ok, 2u);
    EXPECT_EQ(shed, 2u);
    EXPECT_EQ(cancelled, 1u);
    ASSERT_NE(server.query_log(), nullptr);
    EXPECT_EQ(server.query_log()->lines_written(), submitted);
  }

  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), submitted);
  std::map<std::string, int> outcomes;
  std::set<std::string> ids;
  for (const std::string& line : lines) {
    Result<JsonValue> parsed = ParseJson(line);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << ": " << line;
    EXPECT_EQ(parsed->NumberOr("v", -1), 1);
    const JsonValue* kind = parsed->Find("kind");
    ASSERT_NE(kind, nullptr);
    EXPECT_EQ(kind->string, "request");
    const JsonValue* id = parsed->Find("id");
    ASSERT_NE(id, nullptr);
    EXPECT_TRUE(ids.insert(id->string).second) << "duplicate " << id->string;
    const JsonValue* outcome = parsed->Find("outcome");
    ASSERT_NE(outcome, nullptr);
    ++outcomes[outcome->string];
    const JsonValue* hash = parsed->Find("query_hash");
    ASSERT_NE(hash, nullptr);
    EXPECT_EQ(hash->string.size(), 16u);
    if (outcome->string == "ok") {
      const JsonValue* slow = parsed->Find("slow");
      ASSERT_NE(slow, nullptr);
      EXPECT_TRUE(slow->boolean);
      const JsonValue* status = parsed->Find("status");
      ASSERT_NE(status, nullptr);
      EXPECT_EQ(status->string, "OK");
      const double exec_ms = parsed->NumberOr("exec_ms", -1);
      EXPECT_GT(exec_ms, 0);
      EXPECT_GE(parsed->NumberOr("total_ms", -1), exec_ms);
      EXPECT_GT(parsed->NumberOr("dispatch_seq", -1), 0);
      EXPECT_GT(parsed->NumberOr("output_tuples", -1), 0);
    }
  }
  EXPECT_EQ(outcomes["ok"], 2);
  EXPECT_EQ(outcomes["shed"], 2);
  EXPECT_EQ(outcomes["cancelled"], 1);
  std::remove(path.c_str());
}

TEST(Telemetry, QueryHashIsStable) {
  // Deterministic 16-hex digest: equal texts agree, different texts don't.
  EXPECT_EQ(HashQueryText("T(x,y) :- R(x,y)."),
            HashQueryText("T(x,y) :- R(x,y)."));
  EXPECT_NE(HashQueryText("T(x,y) :- R(x,y)."),
            HashQueryText("T(x,y) :- S(x,y)."));
  EXPECT_EQ(HashQueryText("").size(), 16u);
}

// ---------------------------------------------------------------------------
// Snapshot views.
// ---------------------------------------------------------------------------

TEST(Telemetry, RenderSnapshotGolden) {
  ServerSnapshot snap;
  snap.pool.executors = 2;
  snap.pool.in_flight = 1;
  snap.pool.reserved_bytes = 1024;
  snap.pool.memory_pool_bytes = 4096;
  snap.pool.small_queued = 1;
  snap.pool.large_queued = 1;
  snap.pool.submitted = 4;
  snap.pool.completed = 1;
  snap.sessions.push_back({"alpha", 3});
  snap.sessions.push_back({"beta", 1});
  snap.queries.push_back(
      {"alpha.q2", "running", "large", "", 2048, 1, 0, 0.0});
  snap.queries.push_back(
      {"alpha.q3", "queued", "small", "RS_HJ", 512, 0, 0, 0.25});
  snap.queries.push_back(
      {"beta.q1", "suspended", "large", "RS_HJ", 1536, 2, 1, 0.5});
  const std::string golden =
      "ptp.pool\n"
      "  executors  2\n"
      "  in_flight  1\n"
      "  reserved   1024 B of 4096 B\n"
      "  queued     small=1 large=1\n"
      "  submitted  4\n"
      "  completed  1\n"
      "ptp.sessions\n"
      "  alpha        submitted=3\n"
      "  beta         submitted=1\n"
      "ptp.queries\n"
      "  alpha.q2     running   large est=2048 B seq=1 suspends=0\n"
      "  alpha.q3     queued    small est=512 B seq=0 suspends=0"
      " strategy=RS_HJ\n"
      "  beta.q1      suspended large est=1536 B seq=2 suspends=1"
      " strategy=RS_HJ\n";
  EXPECT_EQ(RenderSnapshotText(snap, /*include_timings=*/false), golden);
  // include_timings appends the volatile waited= column.
  EXPECT_NE(RenderSnapshotText(snap, /*include_timings=*/true)
                .find("waited=0.250s"),
            std::string::npos);
}

TEST(Telemetry, LiveSnapshotSeesQueuedQueries) {
  auto catalog = MakeCatalog(17, 200, 20);
  ServerOptions so;
  so.executors = 1;
  so.start_paused = true;
  QueryServer server(so);
  auto* session = server.OpenSession("live");
  session->Submit(MakeRequest(catalog.get(), kTriangle));
  session->Submit(MakeRequest(catalog.get(), kPath));

  const ServerSnapshot snap = server.Snapshot();
  EXPECT_EQ(snap.pool.submitted, 2u);
  EXPECT_EQ(snap.pool.completed, 0u);
  EXPECT_EQ(snap.pool.in_flight, 0);
  EXPECT_EQ(snap.pool.small_queued + snap.pool.large_queued, 2u);
  ASSERT_EQ(snap.sessions.size(), 1u);
  EXPECT_EQ(snap.sessions[0].id, "live");
  EXPECT_EQ(snap.sessions[0].submitted, 2u);
  ASSERT_EQ(snap.queries.size(), 2u);
  for (const ServerSnapshot::QueryRow& q : snap.queries) {
    EXPECT_EQ(q.state, "queued");
    EXPECT_TRUE(q.cost_class == "small" || q.cost_class == "large");
    EXPECT_EQ(q.dispatch_seq, 0u);
  }
  server.Start();
  server.Drain();
  const ServerSnapshot done = server.Snapshot();
  EXPECT_EQ(done.pool.completed, 2u);
  EXPECT_TRUE(done.queries.empty());
}

// ---------------------------------------------------------------------------
// Request trace stitching.
// ---------------------------------------------------------------------------

TEST(Telemetry, TraceStitchesRequestFlow) {
  auto catalog = MakeCatalog(19, 300, 30);
  TraceSession trace;
  std::vector<std::string> ids;
  {
    ServerOptions so;
    so.executors = 2;
    so.trace = &trace;
    QueryServer server(so);
    auto* session = server.OpenSession("tr");
    std::vector<QueryHandle> handles;
    for (int i = 0; i < 3; ++i) {
      handles.push_back(session->Submit(MakeRequest(catalog.get(),
                                                    kTriangle)));
    }
    server.Drain();
    for (const QueryHandle& h : handles) {
      ASSERT_TRUE(h.Get().status.ok());
      ids.push_back(h.Get().id);
    }
  }

  std::ostringstream os;
  trace.WriteJson(os);
  Result<JsonValue> parsed = ParseJson(os.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);

  std::set<std::string> submit_names, queued_names, exec_names;
  std::map<std::string, std::set<std::string>> flow_phases;  // id -> phases
  for (const JsonValue& e : events->array) {
    const JsonValue* name = e.Find("name");
    const JsonValue* ph = e.Find("ph");
    if (name == nullptr || ph == nullptr) continue;
    if (name->string.rfind("submit ", 0) == 0) {
      submit_names.insert(name->string.substr(7));
    }
    if (name->string.rfind("queued ", 0) == 0) {
      queued_names.insert(name->string.substr(7));
    }
    if (name->string.rfind("exec ", 0) == 0 && ph->string == "B") {
      exec_names.insert(name->string.substr(5));
    }
    const JsonValue* cat = e.Find("cat");
    if (cat != nullptr && cat->string == "flow") {
      const JsonValue* flow = e.Find("id");
      ASSERT_NE(flow, nullptr);
      flow_phases[flow->string].insert(ph->string);
    }
  }
  for (const std::string& id : ids) {
    EXPECT_TRUE(submit_names.count(id)) << "no submit span for " << id;
    EXPECT_TRUE(queued_names.count(id)) << "no queued span for " << id;
    EXPECT_TRUE(exec_names.count(id)) << "no exec span for " << id;
  }
  // One flow per request, each opened (s), stepped (t), and closed (f).
  EXPECT_EQ(flow_phases.size(), ids.size());
  for (const auto& [flow, phases] : flow_phases) {
    EXPECT_TRUE(phases.count("s")) << "flow " << flow << " never started";
    EXPECT_TRUE(phases.count("t")) << "flow " << flow << " never stepped";
    EXPECT_TRUE(phases.count("f")) << "flow " << flow << " never finished";
  }
}

// ---------------------------------------------------------------------------
// Exit golden: every way a request can end, pinned end to end — the
// response, stats(), every fleet counter and histogram count, and the
// query-log line (its four wall-clock *_ms fields masked).
// ---------------------------------------------------------------------------

std::string CountersDigest(
    const std::vector<std::pair<std::string, uint64_t>>& counters) {
  std::string flat;
  for (const auto& [name, value] : counters) {
    flat += name + "=" + std::to_string(value) + ";";
  }
  return StrFormat("n=%zu h=%s", counters.size(),
                   HashQueryText(flat).c_str());
}

// Wall-clock fields render only as zero / nonzero.
const char* Timed(double seconds) { return seconds == 0 ? "0" : "+"; }

std::string RenderResponse(const QueryResponse& r) {
  const QueryMetrics& m = r.metrics;
  const LifecycleStats& l = r.lifecycle;
  return StrFormat(
      "response %s status=%s retry_after=%.3f cache_hit=%d seq=%llu "
      "strategy=%s bloom=%d class=%s est=%llu rows=%zu\n"
      "  metrics failed=%d code=%s reason=%s peak=%zu out=%zu "
      "shuffled=%zu\n"
      "  counters %s queue=%s exec=%s\n"
      "  lifecycle polls=%llu suspends=%llu resumes=%llu trips=%llu "
      "cancelled=%d deadline=%d\n",
      r.id.c_str(), r.status.ToString().c_str(), r.retry_after_seconds,
      r.cache_hit, static_cast<unsigned long long>(r.dispatch_seq),
      r.strategy.c_str(), r.bloom, r.cost_class.c_str(),
      static_cast<unsigned long long>(r.est_peak_bytes), r.output.NumTuples(),
      m.failed, StatusCodeToString(m.fail_code), m.fail_reason.c_str(),
      m.peak_bytes, m.output_tuples, m.TuplesShuffled(),
      CountersDigest(r.counters).c_str(), Timed(r.queue_seconds),
      Timed(r.exec_seconds), static_cast<unsigned long long>(l.polls),
      static_cast<unsigned long long>(l.suspends),
      static_cast<unsigned long long>(l.resumes),
      static_cast<unsigned long long>(l.watchdog_trips), l.cancelled,
      l.deadline_exceeded);
}

std::string RenderServerState(const QueryServer& server) {
  const QueryServer::Stats s = server.stats();
  std::string out = StrFormat(
      "stats submitted=%llu completed=%llu rejected=%llu failed=%llu "
      "stalls=%llu small=%llu large=%llu shed=%llu cancelled=%llu "
      "deadline=%llu suspended=%llu resumed=%llu\n",
      static_cast<unsigned long long>(s.submitted),
      static_cast<unsigned long long>(s.completed),
      static_cast<unsigned long long>(s.rejected),
      static_cast<unsigned long long>(s.failed),
      static_cast<unsigned long long>(s.admission_stalls),
      static_cast<unsigned long long>(s.small_dispatched),
      static_cast<unsigned long long>(s.large_dispatched),
      static_cast<unsigned long long>(s.shed),
      static_cast<unsigned long long>(s.cancelled),
      static_cast<unsigned long long>(s.deadline_exceeded),
      static_cast<unsigned long long>(s.suspended),
      static_cast<unsigned long long>(s.resumed));
  // Every fleet counter, as the JSON render lists them.
  Result<JsonValue> json = ParseJson(server.RenderMetricsJson());
  EXPECT_TRUE(json.ok()) << json.status().ToString();
  out += "telemetry";
  if (json.ok()) {
    const JsonValue* fleet = json->Find("fleet");
    const JsonValue* counters =
        fleet == nullptr ? nullptr : fleet->Find("counters");
    EXPECT_NE(counters, nullptr);
    if (counters != nullptr) {
      for (const auto& [name, value] : counters->object) {
        out += StrFormat(" %s=%.0f", name.c_str(), value.number);
      }
    }
  }
  out += "\nlatency";
  const ServerTelemetry& t = server.telemetry();
  for (const RequestPhase phase :
       {RequestPhase::kAdmission, RequestPhase::kQueueWait,
        RequestPhase::kExecution, RequestPhase::kEndToEnd}) {
    out += StrFormat(" %s=%llu/%llu",
                     std::string(RequestPhaseName(phase)).c_str(),
                     static_cast<unsigned long long>(
                         t.LatencySnapshot(phase, true).count()),
                     static_cast<unsigned long long>(
                         t.LatencySnapshot(phase, false).count()));
  }
  return out + "\n";
}

// One golden per exit, as RunExitCase renders it.
constexpr const char* kGoldenParseReject =
    "response g.q1 status=InvalidArgument: parse error at offset 15: "
    "expected ',' or ')' in term list retry_after=0.000 cache_hit=0 seq=0 "
    "strategy= bloom=0 class= est=0 rows=0\n"
    "  metrics failed=0 code=OK reason= peak=0 out=0 shuffled=0\n"
    "  counters n=0 h=cbf29ce484222325 queue=0 exec=0\n"
    "  lifecycle polls=0 suspends=0 resumes=0 trips=0 cancelled=0 "
    "deadline=0\n"
    "stats submitted=1 completed=0 rejected=1 failed=0 stalls=0 small=0 "
    "large=0 shed=0 cancelled=0 deadline=0 suspended=0 resumed=0\n"
    "telemetry class.small=1 lifecycle_polls=0 outcome.invalid=1 resumes=0 "
    "suspends=0 watchdog_trips=0\n"
    "latency admission=1/0 queue_wait=0/0 execution=0/0 end_to_end=1/0\n"
    "log {\"v\":1,\"kind\":\"request\",\"id\":\"g.q1\",\"session\":\"g\","
    "\"query_hash\":\"9a59afdf85a8a3e5\",\"catalog\":\"6bbb26135c1b0270\","
    "\"class\":\"\",\"strategy\":\"\",\"bloom\":false,\"cache_hit\":false,"
    "\"outcome\":\"invalid\",\"status\":\"InvalidArgument\","
    "\"fail_reason\":\"parse error at offset 15: expected ',' or ')' in "
    "term list\",\"admission_ms\":*,\"queue_ms\":*,\"exec_ms\":*,"
    "\"total_ms\":*,\"est_peak_bytes\":0,\"peak_bytes\":0,"
    "\"peak_qerror\":0.0000,\"output_tuples\":0,\"tuples_shuffled\":0,"
    "\"suspends\":0,\"watchdog_trips\":0,\"slow\":false,"
    "\"dispatch_seq\":0}\n";

constexpr const char* kGoldenMalformedFaults =
    "response g.q1 status=OK retry_after=0.000 cache_hit=0 seq=1 "
    "strategy=HC_TJ bloom=0 class=small est=54128 rows=1235\n"
    "  metrics failed=0 code=OK reason= peak=20936 out=1235 shuffled=641\n"
    "  counters n=22 h=03fc2e794392ef68 queue=+ exec=+\n"
    "  lifecycle polls=12 suspends=0 resumes=0 trips=0 cancelled=0 "
    "deadline=0\n"
    "response g.q2 status=InvalidArgument: faults: unknown kind 'explode' "
    "retry_after=0.000 cache_hit=1 seq=0 strategy= bloom=0 class=small "
    "est=54128 rows=0\n"
    "  metrics failed=0 code=OK reason= peak=0 out=0 shuffled=0\n"
    "  counters n=0 h=cbf29ce484222325 queue=0 exec=0\n"
    "  lifecycle polls=0 suspends=0 resumes=0 trips=0 cancelled=0 "
    "deadline=0\n"
    "stats submitted=2 completed=1 rejected=1 failed=0 stalls=0 small=1 "
    "large=0 shed=0 cancelled=0 deadline=0 suspended=0 resumed=0\n"
    "telemetry cache_hits=1 class.small=2 dispatched=1 lifecycle_polls=12 "
    "outcome.invalid=1 outcome.ok=1 resumes=0 suspends=0 watchdog_trips=0\n"
    "latency admission=2/0 queue_wait=1/0 execution=1/0 end_to_end=2/0\n"
    "log {\"v\":1,\"kind\":\"request\",\"id\":\"g.q2\",\"session\":\"g\","
    "\"query_hash\":\"389aa7703c91e3e3\",\"catalog\":\"6bbb26135c1b0270\","
    "\"class\":\"small\",\"strategy\":\"\",\"bloom\":false,"
    "\"cache_hit\":true,\"outcome\":\"invalid\","
    "\"status\":\"InvalidArgument\",\"fail_reason\":\"faults: unknown kind "
    "'explode'\",\"admission_ms\":*,\"queue_ms\":*,\"exec_ms\":*,"
    "\"total_ms\":*,\"est_peak_bytes\":54128,\"peak_bytes\":0,"
    "\"peak_qerror\":0.0000,\"output_tuples\":0,\"tuples_shuffled\":0,"
    "\"suspends\":0,\"watchdog_trips\":0,\"slow\":false,"
    "\"dispatch_seq\":0}\n"
    "log {\"v\":1,\"kind\":\"request\",\"id\":\"g.q1\",\"session\":\"g\","
    "\"query_hash\":\"389aa7703c91e3e3\",\"catalog\":\"6bbb26135c1b0270\","
    "\"class\":\"small\",\"strategy\":\"HC_TJ\",\"bloom\":false,"
    "\"cache_hit\":false,\"outcome\":\"ok\",\"status\":\"OK\","
    "\"fail_reason\":\"\",\"admission_ms\":*,\"queue_ms\":*,\"exec_ms\":*,"
    "\"total_ms\":*,\"est_peak_bytes\":54128,\"peak_bytes\":20936,"
    "\"peak_qerror\":2.5854,\"output_tuples\":1235,\"tuples_shuffled\":641,"
    "\"suspends\":0,\"watchdog_trips\":0,\"slow\":false,"
    "\"dispatch_seq\":1}\n";

constexpr const char* kGoldenNeverFits =
    "response g.q1 status=ResourceExhausted: estimated peak 54128 B "
    "exceeds the server memory pool (1 B) retry_after=0.000 cache_hit=0 "
    "seq=0 strategy= bloom=0 class=small est=54128 rows=0\n"
    "  metrics failed=0 code=OK reason= peak=0 out=0 shuffled=0\n"
    "  counters n=0 h=cbf29ce484222325 queue=0 exec=0\n"
    "  lifecycle polls=0 suspends=0 resumes=0 trips=0 cancelled=0 "
    "deadline=0\n"
    "stats submitted=1 completed=0 rejected=1 failed=0 stalls=0 small=0 "
    "large=0 shed=0 cancelled=0 deadline=0 suspended=0 resumed=0\n"
    "telemetry class.small=1 lifecycle_polls=0 outcome.rejected=1 "
    "resumes=0 suspends=0 watchdog_trips=0\n"
    "latency admission=1/0 queue_wait=0/0 execution=0/0 end_to_end=1/0\n"
    "log {\"v\":1,\"kind\":\"request\",\"id\":\"g.q1\",\"session\":\"g\","
    "\"query_hash\":\"389aa7703c91e3e3\",\"catalog\":\"6bbb26135c1b0270\","
    "\"class\":\"small\",\"strategy\":\"\",\"bloom\":false,"
    "\"cache_hit\":false,\"outcome\":\"rejected\","
    "\"status\":\"ResourceExhausted\",\"fail_reason\":\"estimated peak "
    "54128 B exceeds the server memory pool (1 B)\",\"admission_ms\":*,"
    "\"queue_ms\":*,\"exec_ms\":*,\"total_ms\":*,\"est_peak_bytes\":54128,"
    "\"peak_bytes\":0,\"peak_qerror\":0.0000,\"output_tuples\":0,"
    "\"tuples_shuffled\":0,\"suspends\":0,\"watchdog_trips\":0,"
    "\"slow\":false,\"dispatch_seq\":0}\n";

constexpr const char* kGoldenShed =
    "response g.q1 status=OK retry_after=0.000 cache_hit=0 seq=1 "
    "strategy=HC_TJ bloom=0 class=small est=54128 rows=1235\n"
    "  metrics failed=0 code=OK reason= peak=20936 out=1235 shuffled=641\n"
    "  counters n=22 h=03fc2e794392ef68 queue=+ exec=+\n"
    "  lifecycle polls=12 suspends=0 resumes=0 trips=0 cancelled=0 "
    "deadline=0\n"
    "response g.q2 status=ResourceExhausted: admission queue full (1 "
    "queued, cap 1) retry_after=0.050 cache_hit=1 seq=0 strategy= bloom=0 "
    "class=small est=54128 rows=0\n"
    "  metrics failed=0 code=OK reason= peak=0 out=0 shuffled=0\n"
    "  counters n=0 h=cbf29ce484222325 queue=0 exec=0\n"
    "  lifecycle polls=0 suspends=0 resumes=0 trips=0 cancelled=0 "
    "deadline=0\n"
    "stats submitted=2 completed=1 rejected=1 failed=0 stalls=0 small=1 "
    "large=0 shed=1 cancelled=0 deadline=0 suspended=0 resumed=0\n"
    "telemetry cache_hits=1 class.small=2 dispatched=1 lifecycle_polls=12 "
    "outcome.ok=1 outcome.shed=1 resumes=0 suspends=0 watchdog_trips=0\n"
    "latency admission=2/0 queue_wait=1/0 execution=1/0 end_to_end=2/0\n"
    "log {\"v\":1,\"kind\":\"request\",\"id\":\"g.q2\",\"session\":\"g\","
    "\"query_hash\":\"389aa7703c91e3e3\",\"catalog\":\"6bbb26135c1b0270\","
    "\"class\":\"small\",\"strategy\":\"\",\"bloom\":false,"
    "\"cache_hit\":true,\"outcome\":\"shed\","
    "\"status\":\"ResourceExhausted\",\"fail_reason\":\"admission queue "
    "full (1 queued, cap 1)\",\"admission_ms\":*,\"queue_ms\":*,"
    "\"exec_ms\":*,\"total_ms\":*,\"est_peak_bytes\":54128,"
    "\"peak_bytes\":0,\"peak_qerror\":0.0000,\"output_tuples\":0,"
    "\"tuples_shuffled\":0,\"suspends\":0,\"watchdog_trips\":0,"
    "\"slow\":false,\"dispatch_seq\":0}\n"
    "log {\"v\":1,\"kind\":\"request\",\"id\":\"g.q1\",\"session\":\"g\","
    "\"query_hash\":\"389aa7703c91e3e3\",\"catalog\":\"6bbb26135c1b0270\","
    "\"class\":\"small\",\"strategy\":\"HC_TJ\",\"bloom\":false,"
    "\"cache_hit\":false,\"outcome\":\"ok\",\"status\":\"OK\","
    "\"fail_reason\":\"\",\"admission_ms\":*,\"queue_ms\":*,\"exec_ms\":*,"
    "\"total_ms\":*,\"est_peak_bytes\":54128,\"peak_bytes\":20936,"
    "\"peak_qerror\":2.5854,\"output_tuples\":1235,\"tuples_shuffled\":641,"
    "\"suspends\":0,\"watchdog_trips\":0,\"slow\":false,"
    "\"dispatch_seq\":1}\n";

constexpr const char* kGoldenQueuedCancel =
    "response g.q1 status=Cancelled: cancelled by client (at queue) "
    "retry_after=0.000 cache_hit=0 seq=0 strategy= bloom=0 class=small "
    "est=54128 rows=0\n"
    "  metrics failed=1 code=Cancelled reason=cancelled by client (at "
    "queue) peak=0 out=0 shuffled=0\n"
    "  counters n=0 h=cbf29ce484222325 queue=+ exec=0\n"
    "  lifecycle polls=1 suspends=0 resumes=0 trips=0 cancelled=1 "
    "deadline=0\n"
    "stats submitted=1 completed=0 rejected=0 failed=0 stalls=0 small=0 "
    "large=0 shed=0 cancelled=1 deadline=0 suspended=0 resumed=0\n"
    "telemetry class.small=1 lifecycle_polls=1 outcome.cancelled=1 "
    "resumes=0 suspends=0 watchdog_trips=0\n"
    "latency admission=1/0 queue_wait=0/0 execution=0/0 end_to_end=1/0\n"
    "log {\"v\":1,\"kind\":\"request\",\"id\":\"g.q1\",\"session\":\"g\","
    "\"query_hash\":\"389aa7703c91e3e3\",\"catalog\":\"6bbb26135c1b0270\","
    "\"class\":\"small\",\"strategy\":\"\",\"bloom\":false,"
    "\"cache_hit\":false,\"outcome\":\"cancelled\","
    "\"status\":\"Cancelled\",\"fail_reason\":\"cancelled by client (at "
    "queue)\",\"admission_ms\":*,\"queue_ms\":*,\"exec_ms\":*,"
    "\"total_ms\":*,\"est_peak_bytes\":54128,\"peak_bytes\":0,"
    "\"peak_qerror\":0.0000,\"output_tuples\":0,\"tuples_shuffled\":0,"
    "\"suspends\":0,\"watchdog_trips\":0,\"slow\":false,"
    "\"dispatch_seq\":0}\n";

constexpr const char* kGoldenDeadlineInQueue =
    "response g.q1 status=DeadlineExceeded: deadline exceeded (at "
    "dispatch) retry_after=0.000 cache_hit=0 seq=1 strategy=HC_TJ bloom=0 "
    "class=small est=54128 rows=0\n"
    "  metrics failed=1 code=DeadlineExceeded reason=deadline exceeded (at "
    "dispatch) peak=0 out=0 shuffled=0\n"
    "  counters n=1 h=f0b12a513fb51c40 queue=+ exec=0\n"
    "  lifecycle polls=1 suspends=0 resumes=0 trips=0 cancelled=0 "
    "deadline=1\n"
    "stats submitted=1 completed=1 rejected=0 failed=1 stalls=0 small=1 "
    "large=0 shed=0 cancelled=0 deadline=1 suspended=0 resumed=0\n"
    "telemetry class.small=1 dispatched=1 lifecycle_polls=1 "
    "outcome.deadline_exceeded=1 resumes=0 suspends=0 watchdog_trips=0\n"
    "latency admission=1/0 queue_wait=1/0 execution=1/0 end_to_end=1/0\n"
    "log {\"v\":1,\"kind\":\"request\",\"id\":\"g.q1\",\"session\":\"g\","
    "\"query_hash\":\"389aa7703c91e3e3\",\"catalog\":\"6bbb26135c1b0270\","
    "\"class\":\"small\",\"strategy\":\"HC_TJ\",\"bloom\":false,"
    "\"cache_hit\":false,\"outcome\":\"deadline_exceeded\","
    "\"status\":\"DeadlineExceeded\",\"fail_reason\":\"deadline exceeded "
    "(at dispatch)\",\"admission_ms\":*,\"queue_ms\":*,\"exec_ms\":*,"
    "\"total_ms\":*,\"est_peak_bytes\":54128,\"peak_bytes\":0,"
    "\"peak_qerror\":0.0000,\"output_tuples\":0,\"tuples_shuffled\":0,"
    "\"suspends\":0,\"watchdog_trips\":0,\"slow\":false,"
    "\"dispatch_seq\":1}\n";

constexpr const char* kGoldenCompleted =
    "response g.q1 status=OK retry_after=0.000 cache_hit=0 seq=1 "
    "strategy=HC_TJ bloom=0 class=small est=54128 rows=1235\n"
    "  metrics failed=0 code=OK reason= peak=20936 out=1235 shuffled=641\n"
    "  counters n=22 h=03fc2e794392ef68 queue=+ exec=+\n"
    "  lifecycle polls=12 suspends=0 resumes=0 trips=0 cancelled=0 "
    "deadline=0\n"
    "stats submitted=1 completed=1 rejected=0 failed=0 stalls=0 small=1 "
    "large=0 shed=0 cancelled=0 deadline=0 suspended=0 resumed=0\n"
    "telemetry class.small=1 dispatched=1 lifecycle_polls=12 outcome.ok=1 "
    "resumes=0 suspends=0 watchdog_trips=0\n"
    "latency admission=1/0 queue_wait=1/0 execution=1/0 end_to_end=1/0\n"
    "log {\"v\":1,\"kind\":\"request\",\"id\":\"g.q1\",\"session\":\"g\","
    "\"query_hash\":\"389aa7703c91e3e3\",\"catalog\":\"6bbb26135c1b0270\","
    "\"class\":\"small\",\"strategy\":\"HC_TJ\",\"bloom\":false,"
    "\"cache_hit\":false,\"outcome\":\"ok\",\"status\":\"OK\","
    "\"fail_reason\":\"\",\"admission_ms\":*,\"queue_ms\":*,\"exec_ms\":*,"
    "\"total_ms\":*,\"est_peak_bytes\":54128,\"peak_bytes\":20936,"
    "\"peak_qerror\":2.5854,\"output_tuples\":1235,\"tuples_shuffled\":641,"
    "\"suspends\":0,\"watchdog_trips\":0,\"slow\":false,"
    "\"dispatch_seq\":1}\n";

constexpr const char* kGoldenHardBudgetFail =
    "response g.q1 status=ResourceExhausted: memory budget exceeded: 2096 "
    "B live > 1024 B hard budget retry_after=0.010 cache_hit=0 seq=1 "
    "strategy=HC_TJ bloom=0 class=small est=54128 rows=0\n"
    "  metrics failed=1 code=ResourceExhausted reason=memory budget "
    "exceeded: 2096 B live > 1024 B hard budget peak=2096 out=0 "
    "shuffled=131\n"
    "  counters n=7 h=da02f19421e9d62e queue=+ exec=+\n"
    "  lifecycle polls=3 suspends=0 resumes=0 trips=0 cancelled=0 "
    "deadline=0\n"
    "stats submitted=1 completed=1 rejected=0 failed=1 stalls=0 small=1 "
    "large=0 shed=0 cancelled=0 deadline=0 suspended=0 resumed=0\n"
    "telemetry class.small=1 dispatched=1 lifecycle_polls=3 "
    "outcome.resource_exhausted=1 resumes=0 suspends=0 watchdog_trips=0\n"
    "latency admission=1/0 queue_wait=1/0 execution=1/0 end_to_end=1/0\n"
    "log {\"v\":1,\"kind\":\"request\",\"id\":\"g.q1\",\"session\":\"g\","
    "\"query_hash\":\"389aa7703c91e3e3\",\"catalog\":\"6bbb26135c1b0270\","
    "\"class\":\"small\",\"strategy\":\"HC_TJ\",\"bloom\":false,"
    "\"cache_hit\":false,\"outcome\":\"resource_exhausted\","
    "\"status\":\"ResourceExhausted\",\"fail_reason\":\"memory budget "
    "exceeded: 2096 B live > 1024 B hard budget\",\"admission_ms\":*,"
    "\"queue_ms\":*,\"exec_ms\":*,\"total_ms\":*,\"est_peak_bytes\":54128,"
    "\"peak_bytes\":2096,\"peak_qerror\":25.8244,\"output_tuples\":0,"
    "\"tuples_shuffled\":131,\"suspends\":0,\"watchdog_trips\":0,"
    "\"slow\":false,\"dispatch_seq\":1}\n";

struct ExitCase {
  const char* name;
  std::function<void(ServerOptions*)> configure;
  /// Submits through `session`; returns the handles to render, in order.
  std::function<std::vector<QueryHandle>(QueryServer*,
                                         QueryServer::Session*, Catalog*)>
      drive;
  const char* golden;
};

std::string RunExitCase(const ExitCase& c) {
  auto catalog = MakeCatalog(5, 300, 12);
  const std::string path =
      TempPath((std::string("exit_golden_") + c.name + ".jsonl").c_str());
  std::string out;
  {
    ServerOptions so;
    so.executors = 1;
    so.query_log_path = path;
    so.slow_query_seconds = 0;  // wall-clock dependent; never flag
    c.configure(&so);
    QueryServer server(so);
    auto* session = server.OpenSession("g");
    const std::vector<QueryHandle> handles =
        c.drive(&server, session, catalog.get());
    server.Start();
    server.Drain();
    for (const QueryHandle& h : handles) out += RenderResponse(h.Get());
    out += RenderServerState(server);
  }
  const std::regex wall_clock("\"(admission|queue|exec|total)_ms\":[0-9.]+");
  for (const std::string& line : ReadLines(path)) {
    out += "log " +
           std::regex_replace(line, wall_clock, "\"$1_ms\":*") + "\n";
  }
  std::remove(path.c_str());
  return out;
}

std::vector<ExitCase> ExitCases() {
  auto no_options = [](ServerOptions*) {};
  auto one = [](const QueryRequest& req) {
    return [req](QueryServer*, QueryServer::Session* session,
                 Catalog* catalog) {
      QueryRequest r = req;
      r.catalog = catalog;
      return std::vector<QueryHandle>{session->Submit(r)};
    };
  };
  QueryRequest triangle = MakeRequest(nullptr, kTriangle);
  QueryRequest unparsable = MakeRequest(nullptr, "T(x,y) :- R(x,y");
  QueryRequest expired = triangle;
  expired.deadline_seconds = 1e-9;  // expires while the server is paused
  return {
      {"parse_reject", no_options, one(unparsable), kGoldenParseReject},
      {"malformed_faults", [](ServerOptions* so) { so->start_paused = true; },
       [](QueryServer*, QueryServer::Session* session, Catalog* catalog) {
         // A clean run first, so the rejected resubmission is a cache hit.
         QueryRequest clean = MakeRequest(catalog, kTriangle);
         QueryRequest bad = clean;
         bad.faults = "explode@stage=join_1";  // unknown fault kind
         return std::vector<QueryHandle>{session->Submit(clean),
                                         session->Submit(bad)};
       },
       kGoldenMalformedFaults},
      {"never_fits", [](ServerOptions* so) { so->memory_pool_bytes = 1; },
       one(triangle), kGoldenNeverFits},
      {"shed",
       [](ServerOptions* so) {
         so->start_paused = true;
         so->max_queue_depth = 1;
       },
       [](QueryServer*, QueryServer::Session* session, Catalog* catalog) {
         QueryRequest req = MakeRequest(catalog, kTriangle);
         return std::vector<QueryHandle>{session->Submit(req),
                                         session->Submit(req)};
       },
       kGoldenShed},
      {"queued_cancel", [](ServerOptions* so) { so->start_paused = true; },
       [](QueryServer* server, QueryServer::Session* session,
          Catalog* catalog) {
         QueryHandle h = session->Submit(MakeRequest(catalog, kTriangle));
         EXPECT_TRUE(server->Cancel("g.q1"));
         return std::vector<QueryHandle>{h};
       },
       kGoldenQueuedCancel},
      {"deadline_in_queue",
       [](ServerOptions* so) { so->start_paused = true; }, one(expired),
       kGoldenDeadlineInQueue},
      {"completed", no_options, one(triangle), kGoldenCompleted},
      {"hard_budget_fail",
       [](ServerOptions* so) { so->query_budget_bytes = 1024; },
       one(triangle), kGoldenHardBudgetFail},
  };
}

TEST(ExitGolden, EveryExitIsPinned) {
  for (const ExitCase& c : ExitCases()) {
    SCOPED_TRACE(c.name);
    const std::string actual = RunExitCase(c);
    EXPECT_EQ(actual, c.golden) << "actual for " << c.name << ":\n"
                                << actual;
  }
}

}  // namespace
}  // namespace ptp
