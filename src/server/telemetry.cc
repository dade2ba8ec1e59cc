#include "server/telemetry.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>

#include "common/logging.h"
#include "common/str_util.h"
#include "obs/metrics_export.h"
#include "obs/trace.h"
#include "storage/catalog.h"

namespace ptp {
namespace {

constexpr std::string_view kPhaseNames[kNumRequestPhases] = {
    "admission", "queue_wait", "execution", "end_to_end"};

uint64_t Micros(double seconds) {
  return static_cast<uint64_t>(std::llround(std::max(0.0, seconds) * 1e6));
}

uint64_t Fnv1a(std::string_view data, uint64_t hash) {
  constexpr uint64_t kPrime = 1099511628211ull;
  for (char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kPrime;
  }
  return hash;
}

constexpr uint64_t kFnvBasis = 14695981039346656037ull;

std::string HexDigest(uint64_t hash) {
  return StrFormat("%016llx", static_cast<unsigned long long>(hash));
}

}  // namespace

std::string_view RequestPhaseName(RequestPhase phase) {
  return kPhaseNames[static_cast<int>(phase)];
}

std::string OutcomeName(StatusCode code, bool shed, bool never_fits) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kInvalidArgument:
      return "invalid";
    case StatusCode::kResourceExhausted:
      if (shed) return "shed";
      if (never_fits) return "rejected";
      return "resource_exhausted";
    case StatusCode::kCancelled:
      return "cancelled";
    case StatusCode::kDeadlineExceeded:
      return "deadline_exceeded";
    case StatusCode::kUnavailable:
      return "unavailable";
    default:
      return "failed";
  }
}

void ServerTelemetry::Record(const RequestRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  const int cls = record.cost_class == "large" ? 1 : 0;
  const bool dispatched = record.dispatch_seq != 0;
  latency_[static_cast<int>(RequestPhase::kAdmission)][cls].Record(
      Micros(record.admission_seconds));
  latency_[static_cast<int>(RequestPhase::kEndToEnd)][cls].Record(
      Micros(record.total_seconds));
  if (dispatched) {
    latency_[static_cast<int>(RequestPhase::kQueueWait)][cls].Record(
        Micros(record.queue_seconds));
    latency_[static_cast<int>(RequestPhase::kExecution)][cls].Record(
        Micros(record.exec_seconds));
  }
  ++counters_["outcome." + record.outcome];
  ++counters_[cls == 0 ? "class.small" : "class.large"];
  if (record.cache_hit) ++counters_["cache_hits"];
  if (record.bloom) ++counters_["bloom_runs"];
  if (dispatched) ++counters_["dispatched"];
  if (record.slow) ++counters_["slow_queries"];
  counters_["lifecycle_polls"] += record.lifecycle.polls;
  counters_["suspends"] += record.lifecycle.suspends;
  counters_["resumes"] += record.lifecycle.resumes;
  counters_["watchdog_trips"] += record.lifecycle.watchdog_trips;
}

void ServerTelemetry::WriteProm(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<PromLabels, const Histogram*>> series;
  for (int phase = 0; phase < kNumRequestPhases; ++phase) {
    for (int cls = 0; cls < 2; ++cls) {
      series.emplace_back(
          PromLabels{{"phase", std::string(kPhaseNames[phase])},
                     {"class", cls == 0 ? "small" : "large"}},
          &latency_[phase][cls]);
    }
  }
  // Samples are recorded as integer microseconds; the exposition unit is
  // seconds, hence the 1e-6 scale on bucket bounds and sums.
  WritePromHistogramFamily(
      os, "ptp_request_latency_seconds",
      "Per-request latency by phase and admission cost class.", series,
      1e-6);

  auto value = [&](std::string_view name) -> double {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : static_cast<double>(it->second);
  };
  std::vector<std::pair<PromLabels, double>> by_outcome;
  std::vector<std::pair<PromLabels, double>> by_class;
  for (const auto& [name, count] : counters_) {
    if (StartsWith(name, "outcome.")) {
      by_outcome.emplace_back(PromLabels{{"outcome", name.substr(8)}},
                              static_cast<double>(count));
    } else if (StartsWith(name, "class.")) {
      by_class.emplace_back(PromLabels{{"class", name.substr(6)}},
                            static_cast<double>(count));
    }
  }
  WritePromScalarFamily(os, "ptp_server_requests_total",
                        "Resolved requests by terminal outcome.", "counter",
                        by_outcome);
  WritePromScalarFamily(os, "ptp_server_requests_by_class_total",
                        "Resolved requests by admission cost class.",
                        "counter", by_class);
  const std::pair<const char*, const char*> scalars[] = {
      {"cache_hits", "Requests served from the prepared-plan cache."},
      {"bloom_runs", "Requests whose plan pushed a bloom filter."},
      {"dispatched", "Requests that reached an executor at least once."},
      {"slow_queries", "Requests slower end-to-end than the slow-query "
                       "threshold."},
      {"lifecycle_polls", "Coordinator lifecycle poll-point visits."},
      {"suspends", "Barrier-checkpoint suspensions honored."},
      {"resumes", "Suspended queries resumed."},
      {"watchdog_trips", "Straggling stage attempts retried by the "
                         "watchdog."},
  };
  for (const auto& [name, help] : scalars) {
    WritePromScalarFamily(os, std::string("ptp_server_") + name + "_total",
                          help, "counter", {{PromLabels{}, value(name)}});
  }
}

void ServerTelemetry::WriteJson(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  os << "{\"latency\":{";
  for (int phase = 0; phase < kNumRequestPhases; ++phase) {
    if (phase > 0) os << ",";
    os << JsonQuote(kPhaseNames[phase]) << ":{\"small\":";
    WriteHistogramJson(os, latency_[phase][0], 1e-6);
    os << ",\"large\":";
    WriteHistogramJson(os, latency_[phase][1], 1e-6);
    os << "}";
  }
  os << "},\"counters\":{";
  bool first = true;
  for (const auto& [name, count] : counters_) {
    if (!first) os << ",";
    first = false;
    os << JsonQuote(name) << ":" << count;
  }
  os << "}}";
}

uint64_t ServerTelemetry::CounterValue(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

Histogram ServerTelemetry::LatencySnapshot(RequestPhase phase,
                                           bool class_small) const {
  std::lock_guard<std::mutex> lock(mu_);
  return latency_[static_cast<int>(phase)][class_small ? 0 : 1];
}

std::string QueryLogJson(const RequestRecord& r) {
  std::string out = "{\"v\":1,\"kind\":\"request\"";
  auto str = [&](const char* key, const std::string& value) {
    out += ",\"";
    out += key;
    out += "\":";
    out += JsonQuote(value);
  };
  auto num = [&](const char* key, uint64_t value) {
    out += StrFormat(",\"%s\":%llu", key,
                     static_cast<unsigned long long>(value));
  };
  auto ms = [&](const char* key, double value) {
    out += StrFormat(",\"%s\":%.3f", key, value);
  };
  auto boolean = [&](const char* key, bool value) {
    out += StrFormat(",\"%s\":%s", key, value ? "true" : "false");
  };
  str("id", r.id);
  str("session", r.session);
  str("query_hash", r.query_hash);
  str("catalog", r.catalog);
  str("class", r.cost_class);
  str("strategy", r.strategy);
  boolean("bloom", r.bloom);
  boolean("cache_hit", r.cache_hit);
  str("outcome", r.outcome);
  str("status", r.status);
  str("fail_reason", r.fail_reason);
  ms("admission_ms", r.admission_seconds * 1e3);
  ms("queue_ms", r.queue_seconds * 1e3);
  ms("exec_ms", r.exec_seconds * 1e3);
  ms("total_ms", r.total_seconds * 1e3);
  num("est_peak_bytes", r.est_peak_bytes);
  num("peak_bytes", r.peak_bytes);
  double peak_qerror = 0;
  if (r.est_peak_bytes > 0 && r.peak_bytes > 0) {
    const double est = static_cast<double>(r.est_peak_bytes);
    const double actual = static_cast<double>(r.peak_bytes);
    peak_qerror = std::max(est / actual, actual / est);
  }
  out += StrFormat(",\"peak_qerror\":%.4f", peak_qerror);
  num("output_tuples", r.output_tuples);
  num("tuples_shuffled", r.tuples_shuffled);
  num("suspends", r.lifecycle.suspends);
  num("watchdog_trips", r.lifecycle.watchdog_trips);
  boolean("slow", r.slow);
  num("dispatch_seq", r.dispatch_seq);
  out += "}";
  return out;
}

QueryLog::QueryLog(const std::string& path) {
  out_.open(path, std::ios::out | std::ios::trunc);
  ok_ = static_cast<bool>(out_);
  if (!ok_) {
    PTP_LOG(Warning) << "query log disabled: cannot open " << path;
  }
}

void QueryLog::Append(const RequestRecord& record) {
  const std::string line = QueryLogJson(record);
  std::lock_guard<std::mutex> lock(mu_);
  if (!ok_) return;
  out_ << line << '\n';
  out_.flush();
  ++lines_;
}

uint64_t QueryLog::lines_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lines_;
}

std::string HashQueryText(std::string_view normalized_text) {
  return HexDigest(Fnv1a(normalized_text, kFnvBasis));
}

std::string CatalogFingerprint(const Catalog* catalog) {
  if (catalog == nullptr) return "none";
  uint64_t hash = kFnvBasis;
  for (const std::string& name : catalog->Names()) {
    hash = Fnv1a(name, hash);
    hash = Fnv1a(";", hash);
  }
  hash = Fnv1a(StrFormat("#%zu", catalog->TotalTuples()), hash);
  return HexDigest(hash);
}

std::string RenderSnapshotText(const ServerSnapshot& snapshot,
                               bool include_timings) {
  std::ostringstream os;
  const ServerSnapshot::Pool& pool = snapshot.pool;
  os << "ptp.pool\n";
  os << StrFormat("  executors  %d\n", pool.executors);
  os << StrFormat("  in_flight  %d\n", pool.in_flight);
  os << StrFormat("  reserved   %llu B of %llu B\n",
                  static_cast<unsigned long long>(pool.reserved_bytes),
                  static_cast<unsigned long long>(pool.memory_pool_bytes));
  os << StrFormat("  queued     small=%llu large=%llu\n",
                  static_cast<unsigned long long>(pool.small_queued),
                  static_cast<unsigned long long>(pool.large_queued));
  os << StrFormat("  submitted  %llu\n",
                  static_cast<unsigned long long>(pool.submitted));
  os << StrFormat("  completed  %llu\n",
                  static_cast<unsigned long long>(pool.completed));
  os << "ptp.sessions\n";
  for (const ServerSnapshot::SessionRow& s : snapshot.sessions) {
    os << StrFormat("  %-12s submitted=%llu\n", s.id.c_str(),
                    static_cast<unsigned long long>(s.submitted));
  }
  os << "ptp.queries\n";
  for (const ServerSnapshot::QueryRow& q : snapshot.queries) {
    os << StrFormat(
        "  %-12s %-9s %-5s est=%llu B seq=%llu suspends=%d",
        q.id.c_str(), q.state.c_str(), q.cost_class.c_str(),
        static_cast<unsigned long long>(q.est_peak_bytes),
        static_cast<unsigned long long>(q.dispatch_seq), q.suspend_count);
    if (!q.strategy.empty()) os << " strategy=" << q.strategy;
    if (include_timings) {
      os << StrFormat(" waited=%.3fs", q.waited_seconds);
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace ptp
