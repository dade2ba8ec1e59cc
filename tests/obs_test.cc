#include <algorithm>
#include <cctype>
#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "bench_util/report.h"
#include "common/logging.h"
#include "gtest/gtest.h"
#include "obs/counters.h"
#include "obs/explain.h"
#include "obs/trace.h"
#include "plan/strategies.h"
#include "query/parser.h"
#include "test_util.h"
#include "tj/order_optimizer.h"
#include "tj/tributary_join.h"

namespace ptp {
namespace {

using internal_logging::ParseSeverity;
using internal_logging::SetMinLogSeverity;
using internal_logging::Severity;

// ---------------------------------------------------------------------------
// Minimal JSON syntax validator — no semantics, just structure, string
// escapes and number shape; catches unbalanced output or stray commas in the
// exported documents.
// ---------------------------------------------------------------------------
class JsonValidator {
 public:
  static bool Valid(std::string_view s) {
    JsonValidator v(s);
    v.SkipWs();
    if (!v.Value()) return false;
    v.SkipWs();
    return v.pos_ == s.size();
  }

 private:
  explicit JsonValidator(std::string_view s) : s_(s) {}

  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  bool Eat(char c) {
    if (Peek() != c) return false;
    ++pos_;
    return true;
  }
  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Value() {
    switch (Peek()) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    bool digits = false;
    while (pos_ < s_.size() && (std::isdigit(s_[pos_]) || s_[pos_] == '.' ||
                                s_[pos_] == 'e' || s_[pos_] == 'E' ||
                                s_[pos_] == '+' || s_[pos_] == '-')) {
      digits = digits || std::isdigit(s_[pos_]);
      ++pos_;
    }
    return digits && pos_ > start;
  }

  bool String() {
    if (!Eat('"')) return false;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        const char esc = s_[pos_++];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            if (pos_ >= s_.size() || !std::isxdigit(s_[pos_++])) return false;
          }
        } else if (std::string_view("\"\\/bfnrt").find(esc) ==
                   std::string_view::npos) {
          return false;
        }
      }
    }
    return false;  // unterminated
  }

  bool Object() {
    if (!Eat('{')) return false;
    SkipWs();
    if (Eat('}')) return true;
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (!Eat(':')) return false;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Eat('}')) return true;
      if (!Eat(',')) return false;
    }
  }

  bool Array() {
    if (!Eat('[')) return false;
    SkipWs();
    if (Eat(']')) return true;
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Eat(']')) return true;
      if (!Eat(',')) return false;
    }
  }

  std::string_view s_;
  size_t pos_ = 0;
};

NormalizedQuery RandomQuery(const char* text, uint64_t seed, size_t tuples,
                            Value domain) {
  Rng rng(seed);
  auto parsed = ParseDatalog(text, nullptr);
  PTP_CHECK(parsed.ok()) << parsed.status().ToString();
  Catalog catalog;
  for (const Atom& atom : parsed->atoms()) {
    if (!catalog.Contains(atom.relation)) {
      catalog.Put(test::RandomBinaryRelation(
          atom.relation, atom.Variables(), tuples, domain, &rng));
    }
  }
  auto nq = Normalize(*parsed, catalog);
  PTP_CHECK(nq.ok()) << nq.status().ToString();
  return std::move(nq).value();
}

TEST(JsonQuoteTest, EscapesSpecials) {
  EXPECT_EQ(JsonQuote("plain"), "\"plain\"");
  EXPECT_EQ(JsonQuote("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(JsonQuote("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
  EXPECT_TRUE(JsonValidator::Valid(JsonQuote(std::string("\x01\x1f"))));
}

TEST(JsonValidatorTest, SanityOnItself) {
  EXPECT_TRUE(JsonValidator::Valid(R"({"a":[1,2.5,-3e4],"b":{"c":null}})"));
  EXPECT_TRUE(JsonValidator::Valid("[]"));
  EXPECT_FALSE(JsonValidator::Valid("{"));
  EXPECT_FALSE(JsonValidator::Valid("[1,]"));
  EXPECT_FALSE(JsonValidator::Valid("{\"a\":1} extra"));
  EXPECT_FALSE(JsonValidator::Valid("\"bad\\x\""));
}

TEST(TraceSessionTest, RecordsSpansCountersAndSerializes) {
  TraceSession session;
  session.NameTrack(kCoordinatorTrack, "coordinator");
  session.BeginSpan("outer", kCoordinatorTrack);
  session.Counter("tuples", 42, kCoordinatorTrack);
  session.Instant("note", "something happened", kCoordinatorTrack);
  session.EndSpan("outer", kCoordinatorTrack);
  session.CompleteSpan("late", WorkerTrack(0), 1500.0);

  ASSERT_EQ(session.events().size(), 6u);
  EXPECT_EQ(session.events()[0].phase, TraceEvent::Phase::kMetadata);
  EXPECT_EQ(session.events()[1].name, "outer");
  EXPECT_EQ(session.events()[2].value, 42.0);

  const std::string json = session.ToJson();
  EXPECT_TRUE(JsonValidator::Valid(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
}

TEST(TraceSessionTest, TimestampsAreMonotonic) {
  TraceSession session;
  for (int i = 0; i < 100; ++i) {
    Span span("tick", kCoordinatorTrack);
  }
  double last = -1.0;
  for (const TraceEvent& e : session.events()) {
    EXPECT_GE(e.ts_us, last);
    last = e.ts_us;
  }
}

TEST(SpanTest, NullSessionIsNoop) {
  runtime::ScopedQueryContext detached{runtime::QueryContext{}};
  Span span("ignored", WorkerTrack(3));  // must not crash or record
  SUCCEED();
}

TEST(SpanTest, DisabledPathEmitsNoEventsAndDoesNotAllocate) {
  runtime::ScopedQueryContext detached{runtime::QueryContext{}};
  const size_t before = g_alloc_count.load();
  for (int i = 0; i < 1000; ++i) {
    Span span("hot loop", WorkerTrack(1));
    if (CounterRegistry* reg = ActiveCounterRegistry()) {
      reg->Add("never", 1);
    }
    if (TraceSession* trace = ActiveTraceSession()) {
      trace->Counter("never", 1.0);
    }
  }
  EXPECT_EQ(g_alloc_count.load(), before)
      << "disabled instrumentation must not allocate";
}

TEST(CounterRegistryTest, CountersAreMonotonicAndSorted) {
  CounterRegistry reg;
  reg.Add("b.second", 2);
  reg.Add("a.first", 1);
  reg.Add("a.first", 4);
  EXPECT_EQ(reg.Value("a.first"), 5u);
  EXPECT_EQ(reg.Value("missing"), 0u);

  uint64_t* cell = reg.Counter("a.first");
  *cell += 10;
  EXPECT_EQ(reg.Value("a.first"), 15u);

  auto snapshot = reg.CounterSnapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].first, "a.first");  // name order
  EXPECT_EQ(snapshot[1].first, "b.second");

  auto prefixed = reg.CountersWithPrefix("a.");
  ASSERT_EQ(prefixed.size(), 1u);
  EXPECT_EQ(prefixed[0].second, 15u);
}

TEST(CounterRegistryTest, HistogramBucketsAndJson) {
  CounterRegistry reg;
  Histogram* h = reg.Hist("loads");
  h->Record(0);
  h->Record(3);
  h->Record(1000);
  EXPECT_EQ(h->count(), 3u);
  EXPECT_EQ(h->sum(), 1003u);
  EXPECT_EQ(h->min(), 0u);
  EXPECT_EQ(h->max(), 1000u);
  EXPECT_NEAR(h->Mean(), 1003.0 / 3.0, 1e-9);

  reg.Add("x", 7);
  std::ostringstream os;
  reg.WriteJson(os);
  EXPECT_TRUE(JsonValidator::Valid(os.str())) << os.str();
}

// Pins the pow2-bucket quantile estimator's interpolation exactly (the
// fleet latency percentiles p50/p95/p99/p999 all come from it): continuous
// rank q*(count-1) located by cumulative bucket counts, samples assumed
// evenly spaced within a bucket, result clamped to the tracked [min, max].
TEST(HistogramTest, QuantileEmptyAndSingleSample) {
  Histogram h;
  EXPECT_EQ(h.Quantile(0.0), 0.0);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  EXPECT_EQ(h.Quantile(1.0), 0.0);

  h.Record(100);
  // One sample: every quantile is that sample — the bucket midpoint
  // estimate is clamped to [min, max] = [100, 100].
  for (double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(h.Quantile(q), 100.0) << q;
  }
}

TEST(HistogramTest, QuantileTwoSamplesInterpolatesWithinBucket) {
  Histogram h;
  h.Record(1);     // bucket 1: [1, 2)
  h.Record(1024);  // bucket 11: [1024, 2048)
  // rank 0 -> offset 0 in bucket 1 -> its lower bound.
  EXPECT_EQ(h.Quantile(0.0), 1.0);
  // rank 1 -> offset 0 in bucket 11 -> 1024.
  EXPECT_EQ(h.Quantile(1.0), 1024.0);
  // rank 0.5 -> halfway through bucket 1's [1, 2): 1 + (2-1) * 0.5.
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 1.5);
  // Out-of-range q clamps.
  EXPECT_EQ(h.Quantile(-1.0), 1.0);
  EXPECT_EQ(h.Quantile(2.0), 1024.0);
}

TEST(HistogramTest, QuantileEvenSpacingWithinBucket) {
  Histogram h;
  for (uint64_t v : {4, 5, 6, 7}) h.Record(v);  // all bucket 3: [4, 8)
  // rank q*(4-1); n=4 samples spread over [4, 8): 4 + 4 * (rank / 4).
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 4.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 4.0 + 4.0 * (1.5 / 4.0));
  // rank 3 -> 4 + 4 * (3/4) = 7 == max (clamp is a no-op here).
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 7.0);
}

TEST(HistogramTest, QuantileZeroBucketEstimatesZero) {
  Histogram h;
  h.Record(0);
  h.Record(0);
  h.Record(0);
  h.Record(8);  // bucket 4: [8, 16)
  EXPECT_EQ(h.Quantile(0.0), 0.0);
  EXPECT_EQ(h.Quantile(0.5), 0.0);  // rank 1.5 still in the zero bucket
  EXPECT_EQ(h.Quantile(1.0), 8.0);  // rank 3, offset 0 in bucket 4
}

TEST(ObservedRunTest, WorkerSpansPerStageAndShuffleCounters) {
  const int W = 4;
  NormalizedQuery q = RandomQuery("T(x,y,z) :- R(x,y), S(y,z), U(z,x).", 11,
                                  150, 20);
  struct {
    TraceSession trace;
    CounterRegistry counters;
  } obs;
  runtime::ScopedQueryContext sinks(
      {.counters = &obs.counters, .trace = &obs.trace});
  StrategyOptions opts;
  opts.num_workers = W;
  std::vector<StrategyResult> results = RunAllStrategies(q, opts).value();
  ASSERT_EQ(results.size(), 6u);

  // Index begin-events: span name -> set of tracks it appeared on.
  std::map<std::string, std::set<int>> span_tracks;
  size_t shuffle_counter_events = 0;
  for (const TraceEvent& e : obs.trace.events()) {
    if (e.phase == TraceEvent::Phase::kBegin) {
      span_tracks[e.name].insert(e.track);
    }
    if (e.phase == TraceEvent::Phase::kCounter &&
        e.name == "shuffle.tuples_sent") {
      ++shuffle_counter_events;
    }
  }

  // Every strategy ran under a coordinator-track span named after it.
  for (const auto& [shuffle, join] : AllStrategies()) {
    const std::string name = StrategyName(shuffle, join);
    ASSERT_TRUE(span_tracks.count(name)) << name;
    EXPECT_TRUE(span_tracks[name].count(kCoordinatorTrack)) << name;
  }

  // Each per-worker stage produced one span per worker: the local one-round
  // stages (BR/HC) and the per-round RS stages.
  for (const char* stage : {"local TJ", "local HJ pipeline", "join_1",
                            "join_2"}) {
    ASSERT_TRUE(span_tracks.count(stage)) << stage;
    for (int w = 0; w < W; ++w) {
      EXPECT_TRUE(span_tracks[stage].count(WorkerTrack(w)))
          << stage << " missing span on worker " << w;
    }
  }

  EXPECT_GT(shuffle_counter_events, 0u);

  // The whole trace must be loadable JSON.
  EXPECT_TRUE(JsonValidator::Valid(obs.trace.ToJson()));

  // Registry side: the hot paths published their aggregates.
  EXPECT_GT(obs.counters.Value("shuffle.count"), 0u);
  EXPECT_GT(obs.counters.Value("shuffle.tuples_sent"), 0u);
  EXPECT_GT(obs.counters.Value("shuffle.bytes_sent"), 0u);
  EXPECT_GT(obs.counters.Value("pipeline.joins"), 0u);
  EXPECT_GT(obs.counters.Value("tj.joins"), 0u);
  EXPECT_GT(obs.counters.Value("tj.seeks"), 0u);
  // Per-variable seek attribution for the triangle variables.
  uint64_t per_var = 0;
  for (const auto& [name, value] : obs.counters.CountersWithPrefix("tj.seeks.")) {
    per_var += value;
  }
  EXPECT_EQ(per_var, obs.counters.Value("tj.seeks"))
      << "per-variable seeks must sum to the total";
}

TEST(ObservedRunTest, SpansNestPerTrack) {
  NormalizedQuery q = RandomQuery("T(x,z) :- R(x,y), S(y,z).", 5, 80, 12);
  TraceSession session;
  runtime::ScopedQueryContext sinks({.trace = &session});
  StrategyOptions opts;
  opts.num_workers = 3;
  auto result = RunStrategy(q, ShuffleKind::kBroadcast, JoinKind::kTributary,
                            opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Replay: per track, B/E events must form a proper LIFO nesting.
  std::map<int, std::vector<std::string>> stacks;
  for (const TraceEvent& e : session.events()) {
    if (e.phase == TraceEvent::Phase::kBegin) {
      stacks[e.track].push_back(e.name);
    } else if (e.phase == TraceEvent::Phase::kEnd) {
      ASSERT_FALSE(stacks[e.track].empty())
          << "E without matching B on track " << e.track;
      EXPECT_EQ(stacks[e.track].back(), e.name);
      stacks[e.track].pop_back();
    }
  }
  for (const auto& [track, stack] : stacks) {
    EXPECT_TRUE(stack.empty()) << "unclosed span on track " << track;
  }
}

TEST(LoggingTest, ParseSeverityAcceptsNamesAndNumbers) {
  Severity s = Severity::kInfo;
  EXPECT_TRUE(ParseSeverity("warning", &s));
  EXPECT_EQ(s, Severity::kWarning);
  EXPECT_TRUE(ParseSeverity("WARN", &s));
  EXPECT_EQ(s, Severity::kWarning);
  EXPECT_TRUE(ParseSeverity("Error", &s));
  EXPECT_EQ(s, Severity::kError);
  EXPECT_TRUE(ParseSeverity("0", &s));
  EXPECT_EQ(s, Severity::kInfo);
  EXPECT_TRUE(ParseSeverity("3", &s));
  EXPECT_EQ(s, Severity::kFatal);
  EXPECT_FALSE(ParseSeverity("verbose", &s));
  EXPECT_FALSE(ParseSeverity("", &s));
  EXPECT_EQ(s, Severity::kFatal);  // untouched on failure
}

TEST(LoggingTest, LogLinesBecomeInstantTraceEvents) {
  TraceSession session;
  {
    runtime::ScopedQueryContext sinks({.trace = &session});
    const Severity prev = SetMinLogSeverity(Severity::kInfo);
    PTP_LOG(Warning) << "shuffle imbalance detected";
    SetMinLogSeverity(prev);
  }

  bool found = false;
  for (const TraceEvent& e : session.events()) {
    if (e.phase == TraceEvent::Phase::kInstant && e.name == "log.warning" &&
        e.detail.find("shuffle imbalance detected") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << "log line not mirrored into the trace";
}

TEST(LoggingTest, LinesBelowMinSeverityAreNotTraced) {
  TraceSession session;
  {
    runtime::ScopedQueryContext sinks({.trace = &session});
    const Severity prev = SetMinLogSeverity(Severity::kError);
    PTP_LOG(Info) << "should be filtered";
    SetMinLogSeverity(prev);
  }
  for (const TraceEvent& e : session.events()) {
    EXPECT_EQ(e.detail.find("should be filtered"), std::string::npos);
  }
}

TEST(ExplainAnalyzeTest, GoldenText) {
  StrategyResult r;
  r.join_order_used = {0, 1};
  r.metrics.shuffles.push_back({"R(x,y) ->h(y)", 1000, 1.25, 1.5});
  StageMetrics stage;
  stage.label = "join_1";
  stage.output_tuples = 420;
  r.metrics.stages.push_back(stage);
  r.metrics.max_intermediate_tuples = 800;
  r.metrics.output_tuples = 420;

  ExplainOptions options;
  options.include_timings = false;  // deterministic
  const std::string got = ExplainAnalyzeText("RS_HJ", r, options);
  const std::string want =
      "EXPLAIN ANALYZE RS_HJ\n"
      "  shuffled=1,000  max_intermediate=800  output=420\n"
      "  plan: join order [0, 1]\n"
      "  ├─ shuffle R(x,y) ->h(y): sent=1,000 producer_skew=1.25 "
      "consumer_skew=1.50\n"
      "  └─ stage join_1: out=420\n";
  EXPECT_EQ(got, want);
}

TEST(ExplainAnalyzeTest, FailedRunShowsReason) {
  StrategyResult r;
  r.metrics.failed = true;
  r.metrics.fail_reason = "out of memory";
  ExplainOptions options;
  options.include_timings = false;
  const std::string text = ExplainAnalyzeText("HC_TJ", r, options);
  EXPECT_NE(text.find("FAILED: out of memory"), std::string::npos);
  EXPECT_EQ(SummaryCells(r.metrics)[0], "FAIL");
}

TEST(ExplainAnalyzeTest, JsonExportsAreValid) {
  NormalizedQuery q = RandomQuery("T(x,y,z) :- R(x,y), S(y,z), U(z,x).", 19,
                                  100, 16);
  CounterRegistry counters;
  runtime::ScopedQueryContext sinks({.counters = &counters});
  StrategyOptions opts;
  opts.num_workers = 2;
  std::vector<StrategyResult> results = RunAllStrategies(q, opts).value();

  ExplainOptions eo;
  eo.counters = &counters;
  std::ostringstream one;
  ExplainAnalyzeJson(one, "RS_HJ", results[0], eo);
  EXPECT_TRUE(JsonValidator::Valid(one.str())) << one.str();

  std::ostringstream all;
  WriteStrategiesJson(all, results, eo);
  EXPECT_TRUE(JsonValidator::Valid(all.str())) << all.str();
  EXPECT_NE(all.str().find("\"observability\""), std::string::npos);
  EXPECT_NE(all.str().find("\"HC_TJ\""), std::string::npos);
}

TEST(CostModelValidationTest, PredictedSeeksTrackMeasuredSeeks) {
  // Triangle query at growing scales: the Sec. 5 cost model's predicted
  // seeks and the registry-measured seeks must correlate strongly (log-log
  // Pearson >= 0.9) — the acceptance bar for the Figure 12 reproduction.
  CounterRegistry reg;
  runtime::ScopedQueryContext sinks({.counters = &reg});
  std::vector<double> predicted, measured;
  uint64_t mark = 0;
  for (const size_t edges : {200u, 800u, 3200u}) {
    NormalizedQuery q =
        RandomQuery("T(x,y,z) :- R(x,y), S(y,z), U(z,x).", 23, edges,
                    static_cast<Value>(edges / 8));
    OrderChoice best = OptimizeVariableOrder(q);
    auto count = TributaryJoinQuery(q, best.order);
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    const uint64_t seeks = reg.Value("tj.seeks") - mark;
    mark = reg.Value("tj.seeks");
    ASSERT_GT(seeks, 0u);
    predicted.push_back(std::log10(std::max(1.0, best.estimated_cost)));
    measured.push_back(std::log10(static_cast<double>(seeks)));
  }
  const double r = PearsonCorrelation(predicted, measured);
  EXPECT_GE(r, 0.9) << "predicted vs measured seek correlation too weak";
}

TEST(TJMetricsTest, PerVariableSeeksSumToTotal) {
  NormalizedQuery q = RandomQuery("T(x,y,z) :- R(x,y), S(y,z), U(z,x).", 31,
                                  120, 15);
  std::vector<const Relation*> inputs;
  for (const NormalizedAtom& atom : q.atoms) inputs.push_back(&atom.relation);
  const std::vector<std::string> order = {"x", "y", "z"};
  TJMetrics metrics;
  auto result = TributaryCount(inputs, order, {}, {}, &metrics);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(metrics.seeks_per_var.size(), 3u);
  size_t sum = 0;
  for (size_t s : metrics.seeks_per_var) sum += s;
  EXPECT_EQ(sum, metrics.seeks);
  EXPECT_GT(metrics.opens, 0u);
  EXPECT_EQ(metrics.opens, metrics.ups);  // every Open is matched by an Up
}

}  // namespace
}  // namespace ptp
