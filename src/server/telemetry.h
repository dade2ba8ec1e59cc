#ifndef PTP_SERVER_TELEMETRY_H_
#define PTP_SERVER_TELEMETRY_H_

#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "exec/lifecycle.h"
#include "obs/counters.h"

namespace ptp {

class Catalog;

/// Fleet telemetry plane for the serving layer (docs/OBSERVABILITY.md,
/// "Fleet telemetry"): one RequestRecord per resolved request aggregates
/// into latency histograms keyed by phase × cost class plus outcome
/// counters (ServerTelemetry) and appends one structured JSONL line
/// (QueryLog), and the server's request path stitches
/// submit→queue→execute spans into a TraceSession via flow events using
/// the track numbering below. All of it is observational: arming
/// telemetry changes no query output, counter, or scheduling decision.

/// Server-plane track numbering, continuing the engine convention
/// (coordinator = 0, worker w = w + 1) far above any realistic worker
/// count: one track for submissions, one for the waiting queue, and one
/// per executor lane.
inline constexpr int kServerSubmitTrack = 900;
inline constexpr int kServerQueueTrack = 901;
constexpr int ServerLaneTrack(int lane) { return 910 + lane; }

/// The latency phases ServerTelemetry tracks per request. Admission is
/// the submit-side work (parse/prepare, admission decision); queue-wait
/// is time between submit and first dispatch net of admission; execution
/// accumulates across suspend/resume dispatches; end-to-end is
/// submit→resolve.
enum class RequestPhase {
  kAdmission = 0,
  kQueueWait = 1,
  kExecution = 2,
  kEndToEnd = 3,
};
inline constexpr int kNumRequestPhases = 4;
std::string_view RequestPhaseName(RequestPhase phase);

/// One resolved request, built once by the server's FinishRequest and read
/// by both the fleet aggregate (ServerTelemetry::Record) and the query log
/// (QueryLog::Append, schema v1; docs/OBSERVABILITY.md). Every log field
/// is present in every line so downstream parsers never branch on
/// optionality; string fields are "" and numerics 0 when not applicable.
struct RequestRecord {
  std::string id;
  /// Log-only fields, filled only when a query log is armed.
  std::string session;     // id prefix before ".q"
  std::string query_hash;  // 16 hex chars, FNV-1a of the normalized text
  std::string catalog;     // CatalogFingerprint, "none" without a catalog
  /// "small"/"large"; "" when the plan never prepared, which the fleet
  /// aggregate counts as small.
  std::string cost_class;
  std::string strategy;
  bool bloom = false;
  bool cache_hit = false;
  /// Terminal outcome vocabulary: "ok", "invalid" (parse/validation
  /// reject), "rejected" (can never fit the pool), "shed" (queue-depth
  /// refusal), "cancelled", "deadline_exceeded", "resource_exhausted"
  /// (budget kill), "unavailable" (retries exhausted / shutdown), "failed"
  /// (other graceful FAILs).
  std::string outcome;
  std::string status;  // StatusCodeToString of the response status
  std::string fail_reason;
  /// The RequestPhase latencies; the log renders them in milliseconds.
  double admission_seconds = 0;
  double queue_seconds = 0;
  double exec_seconds = 0;
  double total_seconds = 0;
  uint64_t est_peak_bytes = 0;
  uint64_t peak_bytes = 0;
  uint64_t output_tuples = 0;
  uint64_t tuples_shuffled = 0;
  LifecycleStats lifecycle;
  /// total_seconds >= ServerOptions::slow_query_seconds.
  bool slow = false;
  /// 0 for requests resolved at submit (never dispatched): their
  /// queue/execution phases are not recorded.
  uint64_t dispatch_seq = 0;
};

/// Maps a response status + failure detail onto the outcome vocabulary.
/// `shed` and `never_fits` disambiguate the three kResourceExhausted
/// flavors (shed / permanent reject / budget kill).
std::string OutcomeName(StatusCode code, bool shed, bool never_fits);

/// Thread-safe fleet aggregate: latency histograms (integer microseconds
/// in pow2 buckets, see obs::Histogram) per phase × class, plus named
/// outcome/lifecycle counters. Samples arrive from executor threads and
/// the submit path concurrently; renderers may run at any time.
class ServerTelemetry {
 public:
  void Record(const RequestRecord& record);

  /// Appends the fleet families in Prometheus text exposition format:
  /// ptp_request_latency_seconds{phase,class} histograms and the
  /// ptp_server_* counters (docs/OBSERVABILITY.md lists them all).
  void WriteProm(std::ostream& os) const;
  /// {"latency":{"<phase>":{"small":{...},"large":{...}},...},
  ///  "counters":{...}} — an object, embeddable in a larger document.
  void WriteJson(std::ostream& os) const;

  /// Merged counter value ("outcome.ok", "cache_hits", ...); 0 when the
  /// counter never incremented.
  uint64_t CounterValue(std::string_view name) const;
  /// Copy of one latency histogram (class_small selects small/large).
  Histogram LatencySnapshot(RequestPhase phase, bool class_small) const;

 private:
  mutable std::mutex mu_;
  Histogram latency_[kNumRequestPhases][2];  // [phase][small=0 / large=1]
  std::map<std::string, uint64_t, std::less<>> counters_;
};

/// {"v":1,"kind":"request",...} — one line, no trailing newline. Adds the
/// derived peak_qerror: max(est/actual, actual/est) when both peaks are
/// nonzero, else 0 — the admission estimate's q-error against the
/// measured run.
std::string QueryLogJson(const RequestRecord& record);

/// Append-only JSONL sink (ServerOptions::query_log_path). The file is
/// truncated at construction; Append serializes writers and flushes per
/// line so a crashed process keeps every completed record.
class QueryLog {
 public:
  explicit QueryLog(const std::string& path);

  /// False when the path could not be opened (appends become no-ops; the
  /// server logs one warning and serves on — telemetry never fails a
  /// query).
  bool ok() const { return ok_; }
  void Append(const RequestRecord& record);
  uint64_t lines_written() const;

 private:
  mutable std::mutex mu_;
  std::ofstream out_;
  bool ok_ = false;
  uint64_t lines_ = 0;
};

/// FNV-1a over the normalized query text, rendered as 16 hex chars —
/// stable across processes (std::hash is not), so log analysis can group
/// resubmissions of one query without storing its text.
std::string HashQueryText(std::string_view normalized_text);

/// Stable digest of the catalog a query ran against (relation names +
/// total tuples); "none" for a null catalog.
std::string CatalogFingerprint(const Catalog* catalog);

/// Live introspection snapshot (QueryServer::Snapshot): the pool gauges
/// and one row per session / unresolved query.
struct ServerSnapshot {
  struct SessionRow {
    std::string id;
    uint64_t submitted = 0;
  };
  struct QueryRow {
    std::string id;
    std::string state;  // "queued" / "running" / "suspended"
    std::string cost_class;
    std::string strategy;  // "" until first dispatch froze the plan
    uint64_t est_peak_bytes = 0;
    uint64_t dispatch_seq = 0;
    int suspend_count = 0;
    double waited_seconds = 0;
  };
  struct Pool {
    int executors = 0;
    int in_flight = 0;
    uint64_t reserved_bytes = 0;
    uint64_t memory_pool_bytes = 0;
    uint64_t small_queued = 0;
    uint64_t large_queued = 0;
    uint64_t submitted = 0;
    uint64_t completed = 0;
  };
  Pool pool;
  std::vector<SessionRow> sessions;
  std::vector<QueryRow> queries;
};

/// The ptp.pool / ptp.sessions / ptp.queries views as fixed-layout text
/// (golden-tested). `include_timings` adds the wall-clock waited column;
/// tests render without it for determinism.
std::string RenderSnapshotText(const ServerSnapshot& snapshot,
                               bool include_timings);

}  // namespace ptp

#endif  // PTP_SERVER_TELEMETRY_H_
