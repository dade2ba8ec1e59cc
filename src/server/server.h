#ifndef PTP_SERVER_SERVER_H_
#define PTP_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "exec/lifecycle.h"
#include "obs/feedback.h"
#include "plan/strategies.h"
#include "server/plan_cache.h"
#include "server/telemetry.h"
#include "storage/catalog.h"

namespace ptp {

class QueryServer;
class TraceSession;
namespace server_internal {
struct PendingQuery;
}  // namespace server_internal

/// One query submission: the raw Datalog text, the catalog it resolves
/// against, and the simulated cluster size to run it on.
struct QueryRequest {
  std::string text;
  /// Must outlive the response. The parser may intern new string literals
  /// into its dictionary (serialized by the plan cache).
  Catalog* catalog = nullptr;
  int workers = 4;

  /// Base execution options; num_workers is overridden by `workers`.
  StrategyOptions exec;

  /// When true, run exactly (shuffle, join) instead of the advised
  /// strategy (ablation / pinned plans).
  bool force_strategy = false;
  ShuffleKind shuffle = ShuffleKind::kRegular;
  JoinKind join = JoinKind::kHashJoin;

  /// Per-query deadline, measured from submit; fires at the next
  /// coordinator lifecycle poll once elapsed and resolves the query
  /// kDeadlineExceeded (a graceful FAIL with partial metrics — still in
  /// the queue, it resolves without running). 0 = inherit
  /// ServerOptions::default_deadline_seconds.
  double deadline_seconds = 0;

  /// Deterministic test knobs: trip cancellation / the deadline at exactly
  /// the n-th lifecycle poll (1-based; 0 = off). Thread-count independent
  /// by construction — see QueryLifecycle.
  uint64_t cancel_after_polls = 0;
  uint64_t deadline_after_polls = 0;

  /// Per-query fault schedule (fault/fault.h grammar, e.g.
  /// "drop@stage=join_2,attempt=0"). The server runs this query under its
  /// own private FaultInjector — concurrent neighbours are unaffected, and
  /// a solo run with the same schedule reproduces the served run
  /// bit-for-bit. Malformed schedules reject at submit (kInvalidArgument).
  std::string faults;
};

/// Everything the server reports back for one query.
struct QueryResponse {
  /// Deterministic id: "<session>.q<seq>", assigned at submit.
  std::string id;
  /// kOk for completed runs (including result-less ones); kInvalidArgument
  /// for parse/validation errors; kResourceExhausted for budget rejections,
  /// load shedding, and hard-budget FAILs (see retry_after_seconds);
  /// kCancelled / kDeadlineExceeded for lifecycle-stopped runs (graceful
  /// FAILs with partial metrics); kUnavailable when a run exhausted its
  /// fault retries or the server shut down first.
  Status status;
  /// For kResourceExhausted: suggested client backoff. 0 means permanent
  /// (the query can never fit the pool); > 0 means the pool, queue, or
  /// budget was transiently oversubscribed — computed from the estimated
  /// runtime of the work ahead of the client, not a constant.
  double retry_after_seconds = 0;

  bool cache_hit = false;
  /// 1-based position in the server's dispatch order (0 when the query
  /// never dispatched, i.e. was rejected at submit) — what the fairness
  /// tests assert on.
  uint64_t dispatch_seq = 0;
  /// Strategy actually executed ("RS_HJ", ...).
  std::string strategy;
  /// Whether the executed plan filtered regular shuffles with a bloom
  /// filter (the cached --bloom=auto decision; always false for forced
  /// strategies). Solo-comparison harnesses must replay this to reproduce
  /// the served run's counters bit-for-bit.
  bool bloom = false;
  /// Admission cost class ("small"/"large") and the peak-bytes figure the
  /// admission controller used.
  std::string cost_class;
  uint64_t est_peak_bytes = 0;

  Relation output;
  QueryMetrics metrics;
  /// The query's private counter registry, snapshotted after the run —
  /// what a solo run of the same plan would have published (the
  /// isolation checks in tests/server_test.cc compare these bit-for-bit).
  std::vector<std::pair<std::string, uint64_t>> counters;

  double queue_seconds = 0;
  double exec_seconds = 0;

  /// Control-plane account: polls, suspends/resumes, watchdog trips, and
  /// whether a cancel/deadline fired (exec/lifecycle.h).
  LifecycleStats lifecycle;
};

/// Blocking handle to an in-flight submission. Copyable; Get() blocks
/// until the response is ready and stays valid for the handle's lifetime.
class QueryHandle {
 public:
  QueryHandle() = default;
  const QueryResponse& Get() const;
  bool Done() const;
  /// Bounded wait: OK once the response is ready within `timeout_seconds`,
  /// kDeadlineExceeded otherwise. Never consumes the result — a timed-out
  /// caller can keep polling or fall back to Get().
  Status WaitFor(double timeout_seconds) const;

 private:
  friend class QueryServer;
  explicit QueryHandle(std::shared_ptr<server_internal::PendingQuery> p)
      : pending_(std::move(p)) {}
  std::shared_ptr<server_internal::PendingQuery> pending_;
};

/// Ceiling on barrier-checkpoint suspensions per query, so a large query
/// under sustained small-query pressure still finishes.
inline constexpr int kMaxSuspendsPerQuery = 4;

struct ServerOptions {
  /// Executor threads draining the queue. Each executes one query at a
  /// time end-to-end; the per-stage parallelism inside a query still comes
  /// from the shared runtime pool, where concurrent queries' batches are
  /// open side by side and pool threads serve them oldest first.
  int executors = 2;

  /// Global admission pool: the sum of estimated (or measured) peak bytes
  /// of running queries never exceeds this. A query that doesn't currently
  /// fit waits in the queue; one that can never fit (estimate > pool) is
  /// rejected at submit. 0 = unlimited.
  uint64_t memory_pool_bytes = 0;

  /// Hard per-query budget: a running query whose metered live bytes
  /// exceed this FAILs gracefully with kResourceExhausted (and a
  /// retry-after) instead of running on. 0 = off.
  uint64_t query_budget_bytes = 0;

  /// Two-level fair scheduling: queries whose peak estimate is at most
  /// this many bytes form the "small" class, served ahead of "large" ones
  /// — but after `small_per_large` consecutive small dispatches the oldest
  /// large query goes first, so neither class starves. FIFO within class.
  uint64_t small_query_bytes = 8ull << 20;
  int small_per_large = 4;

  /// When true the server accepts submissions but dispatches nothing until
  /// Start() — how tests stage deterministic arrival orders.
  bool start_paused = false;

  /// LRU entry caps so ad-hoc query text cannot grow the prepared-plan
  /// cache or the in-memory feedback store without bound (every finished
  /// run that was not cancelled or timed out is folded into the feedback
  /// store, and its cached plan re-advised). Evicted entries cost a
  /// re-parse / a re-measure when the query returns — never wrong
  /// results. 0 means 1 (the caches are never unbounded).
  size_t plan_cache_max_entries = PlanCache::kDefaultMaxEntries;
  size_t feedback_max_entries = 1024;

  /// Default per-query deadline applied when a request doesn't set its
  /// own. 0 = none.
  double default_deadline_seconds = 0;

  /// Overload shedding: when the admission queues already hold this many
  /// queries, further submissions are refused immediately with
  /// kResourceExhausted and a computed retry_after (the estimated time for
  /// the backlog to drain) instead of queueing without bound. 0 = never
  /// shed.
  size_t max_queue_depth = 0;

  /// Barrier-checkpoint preemption: when the small-class queue holds at
  /// least this many waiting queries, a running large query is asked to
  /// suspend at its next round barrier, releasing its pool reservation and
  /// executor to the small queries; it re-queues at the front of its class
  /// and resumes bit-identically. 0 = never preempt.
  int preempt_small_backlog = 0;

  /// Stage watchdog: a worker whose injected virtual delay inflates its
  /// stage attempt by at least this factor is treated as hung and the
  /// attempt retried through the recovery ladder (kUnavailable). Forwarded
  /// into each query's RecoveryOptions unless the request set its own.
  /// 0 = off. Driven purely by the fault injector's virtual clock, so
  /// trips are deterministic at any thread count.
  double watchdog_straggle_factor = 0;

  /// Structured JSONL query log (server/telemetry.h): one record per
  /// resolved request — completed, failed, shed, cancelled — written to
  /// this path (truncated at server construction). Empty = off.
  std::string query_log_path;
  /// End-to-end latency threshold flagging a query-log record `slow` (and
  /// counting ptp_server_slow_queries_total). <= 0 = never.
  double slow_query_seconds = 1.0;
  /// Externally-owned trace session the server stitches request timelines
  /// into: a submit span, a queued span, per-lane execution spans, and one
  /// flow (arrow chain) per request connecting them. Must outlive the
  /// server. nullptr = off. Engine-internal spans are not routed here —
  /// concurrent lanes would interleave B/E pairs on the engine's
  /// worker-numbered tracks; the server plane sticks to its own tracks
  /// (kServerSubmitTrack and friends).
  TraceSession* trace = nullptr;
};

/// Concurrent multi-query serving layer: sessions submit Datalog text, the
/// server parses/optimizes through a prepared-plan cache, admits queries
/// against a global memory pool, schedules them fairly across two cost
/// classes, and executes on the shared deterministic runtime.
///
/// Isolation: each executor installs the query's sinks (counter registry,
/// resource meter, lifecycle, fault injector) as one thread-local
/// runtime::QueryContext through a runtime::ScopedQueryContext, which
/// ParallelFor propagates to the pool, so concurrently-served queries never
/// cross-charge — a query's counters and memory account are bit-identical
/// to a solo run of the same plan.
class QueryServer {
 public:
  /// A client connection: a named stream of submissions with
  /// deterministically numbered query ids. Sessions are created by
  /// OpenSession and owned by the server.
  class Session {
   public:
    const std::string& id() const { return id_; }
    /// Enqueues `request`; returns immediately with a blocking handle.
    QueryHandle Submit(const QueryRequest& request);
    /// Cancels the query with this id (still queued: resolves immediately;
    /// running: stops at its next lifecycle poll). False when the id is
    /// unknown or already done.
    bool Cancel(const std::string& id);

   private:
    friend class QueryServer;
    Session(QueryServer* server, std::string id)
        : server_(server), id_(std::move(id)) {}
    QueryServer* server_;
    std::string id_;
    int next_seq_ = 1;
    std::mutex seq_mu_;
  };

  struct Stats {
    uint64_t submitted = 0;
    uint64_t completed = 0;  // ran to completion, including graceful FAILs
    uint64_t rejected = 0;   // refused at submit (can never fit the pool)
    uint64_t failed = 0;     // completed with metrics.failed
    /// Dispatch attempts that found work but had to hold it back for pool
    /// headroom (admission waits).
    uint64_t admission_stalls = 0;
    uint64_t small_dispatched = 0;
    uint64_t large_dispatched = 0;
    /// Submissions refused by the queue-depth shed (a subset of rejected).
    uint64_t shed = 0;
    uint64_t cancelled = 0;          // resolved kCancelled
    uint64_t deadline_exceeded = 0;  // resolved kDeadlineExceeded
    /// Barrier-checkpoint preemptions: suspensions honored / resumes
    /// dispatched (resumed == suspended once the server drains).
    uint64_t suspended = 0;
    uint64_t resumed = 0;
  };

  explicit QueryServer(const ServerOptions& options);
  /// Drains the queue (starting a paused server if needed), then joins the
  /// executors.
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Opens a session; the pointer stays valid for the server's lifetime.
  /// Ids are "s1", "s2", ... in open order unless `name` is given.
  Session* OpenSession(std::string name = "");

  /// Begins dispatching (no-op unless start_paused).
  void Start();
  /// Blocks until every accepted query has completed.
  void Drain();

  /// Cancels a query by id (see Session::Cancel). Queued queries resolve
  /// kCancelled immediately (with any checkpointed partial metrics);
  /// running queries stop at their next coordinator lifecycle poll. False
  /// when the id is unknown or the query already resolved.
  bool Cancel(const std::string& id);

  Stats stats() const;

  /// Fleet telemetry aggregate (always collected; one histogram record +
  /// a few counter bumps per resolved request).
  const ServerTelemetry& telemetry() const { return telemetry_; }
  /// The structured query log, or nullptr when query_log_path is empty.
  QueryLog* query_log() { return query_log_.get(); }

  /// Prometheus text exposition: the fleet latency/outcome families plus
  /// live pool gauges and plan-cache counters. Self-consistent snapshot,
  /// callable at any time (docs/OBSERVABILITY.md, "Fleet telemetry").
  std::string RenderMetricsProm() const;
  /// The same content as one JSON object.
  std::string RenderMetricsJson() const;

  /// Live introspection: the ptp.pool / ptp.sessions / ptp.queries views.
  /// Queued and suspended queries report full detail; running queries only
  /// what is immutable while an executor owns them.
  ServerSnapshot Snapshot() const;

  const PlanCache& plan_cache() const { return cache_; }
  /// In-memory measured-run store the feedback loop builds up; callers may
  /// persist it with FeedbackStore::WriteFile after Drain().
  FeedbackStore SnapshotFeedback() const;

  const ServerOptions& options() const { return options_; }

 private:
  friend class Session;

  QueryHandle SubmitInternal(const std::string& id,
                             const QueryRequest& request);
  void ExecutorMain(int lane);
  std::shared_ptr<server_internal::PendingQuery> PickLocked();
  QueryResponse Execute(server_internal::PendingQuery* p, bool* suspended);
  /// Terminal resolve hook, called (outside mu_) at every point a request
  /// resolves: builds the one RequestRecord that the fleet telemetry and
  /// the query log both read, closes the request's trace flow, then
  /// resolves the handle. `shed` / `never_fits` disambiguate the
  /// kResourceExhausted outcomes.
  void FinishRequest(const std::shared_ptr<server_internal::PendingQuery>& p,
                     QueryResponse r, bool shed, bool never_fits);
  /// Books admission time and emits the submit-track span + flow start.
  void BookSubmit(server_internal::PendingQuery* p);
  /// Under mu_: estimated seconds until the current backlog (queued +
  /// running) drains across the executors — the retry_after hint for shed
  /// and budget-killed queries.
  double RetryAfterLocked() const;
  /// Under mu_: whether `p` owes the small class a yield — it is large,
  /// has suspension budget left, and the small-class backlog stands at
  /// preempt_small_backlog or more. Asked at every submit (of one running
  /// victim) and at every dispatch of a large query (level-triggered), so
  /// an anti-starvation resume yields again instead of marching past the
  /// backlog's tail.
  bool YieldDueLocked(const server_internal::PendingQuery& p) const;

  const ServerOptions options_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable drain_cv_;
  bool running_ = false;
  bool stopping_ = false;
  std::deque<std::shared_ptr<server_internal::PendingQuery>> small_;
  std::deque<std::shared_ptr<server_internal::PendingQuery>> large_;
  /// Queries currently on an executor (for Cancel and preemption).
  std::vector<std::shared_ptr<server_internal::PendingQuery>>
      running_queries_;
  /// Every unresolved query by id (queued, running, or suspended).
  std::unordered_map<std::string,
                     std::weak_ptr<server_internal::PendingQuery>>
      by_id_;
  uint64_t reserved_bytes_ = 0;
  int in_flight_ = 0;
  int consecutive_small_ = 0;
  uint64_t next_dispatch_seq_ = 1;
  Stats stats_;

  PlanCache cache_;
  mutable std::mutex feedback_mu_;
  FeedbackStore feedback_;

  ServerTelemetry telemetry_;
  std::unique_ptr<QueryLog> query_log_;
  /// Flow ids for request trace stitching, assigned at submit.
  std::atomic<uint64_t> next_flow_id_{1};

  mutable std::mutex sessions_mu_;
  std::vector<std::unique_ptr<Session>> sessions_;

  std::vector<std::thread> executors_;
};

}  // namespace ptp

#endif  // PTP_SERVER_SERVER_H_
