#include "server/server.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "common/str_util.h"
#include "common/timer.h"
#include "fault/fault.h"
#include "obs/counters.h"
#include "obs/metrics_export.h"
#include "obs/resource.h"
#include "obs/trace.h"
#include "plan/advisor.h"
#include "query/normalize_text.h"

namespace ptp {
namespace server_internal {

/// One accepted submission, shared between the submitting thread (via
/// QueryHandle), the scheduler queues, and the executor that runs it.
struct PendingQuery {
  std::string id;
  QueryRequest request;
  /// The prepared plan, frozen at submit (empty when the text never
  /// parsed); its peak estimate is the admission reservation and its
  /// measured runtime the retry_after hint.
  PlanCache::Entry plan;
  bool cache_hit = false;
  bool small = true;
  uint64_t dispatch_seq = 0;
  Timer queue_timer;
  /// Submit-side time (parse/prepare + admission decision), booked when
  /// SubmitInternal reaches a terminal decision for the request.
  double admission_seconds = 0;
  /// Trace-stitching flow id, assigned at submit (telemetry plane).
  uint64_t flow_id = 0;

  /// Cancel token + deadline, created at submit so a queued query can be
  /// cancelled (or expire) before it ever dispatches.
  std::unique_ptr<QueryLifecycle> lifecycle;
  /// Per-request private fault injector (QueryRequest::faults).
  std::unique_ptr<FaultInjector> injector;

  /// Execution state that must survive a barrier-checkpoint suspension:
  /// the registry and meter are created at FIRST dispatch and kept across
  /// suspend/resume cycles (the meter's query section stays open while
  /// suspended), so the finished query's counters and memory peaks are
  /// bit-identical to an uninterrupted run.
  bool started = false;
  std::unique_ptr<CounterRegistry> counters;
  std::unique_ptr<ResourceMeter> meter;
  std::shared_ptr<QueryCheckpoint> checkpoint;
  int suspend_count = 0;
  ShuffleKind shuffle = ShuffleKind::kRegular;
  JoinKind join = JoinKind::kHashJoin;
  StrategyOptions opts;
  double queue_seconds = 0;  // frozen at first dispatch or queued cancel
  double exec_seconds = 0;   // accumulated across dispatches

  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  QueryResponse response;

  /// The one response builder: what every exit reports from the request's
  /// own state. The admission verdict (cache hit, cost class, peak
  /// estimate) appears once the plan is prepared, the executed plan once a
  /// dispatch froze it, and the metrics are a suspended query's
  /// checkpointed partial account (a finished run overwrites them).
  QueryResponse Respond(Status status) const {
    QueryResponse r;
    r.id = id;
    r.status = std::move(status);
    if (plan.prepared != nullptr) {
      r.cache_hit = cache_hit;
      r.cost_class = small ? "small" : "large";
      r.est_peak_bytes = plan.est_peak_bytes;
    }
    r.dispatch_seq = dispatch_seq;
    if (started) {
      r.strategy = StrategyName(shuffle, join);
      r.bloom = opts.bloom;
    }
    if (checkpoint != nullptr) r.metrics = checkpoint->metrics;
    if (counters != nullptr) r.counters = counters->CounterSnapshot();
    if (lifecycle != nullptr) r.lifecycle = lifecycle->stats();
    r.queue_seconds = queue_seconds;
    r.exec_seconds = exec_seconds;
    return r;
  }

  /// A lifecycle verdict that stops the query outside the engine (a queued
  /// cancel, a stop caught at dispatch): the partial account becomes a
  /// graceful FAIL.
  QueryResponse RespondStopped(const Status& verdict) const {
    QueryResponse r = Respond(verdict);
    r.metrics.failed = true;
    r.metrics.fail_code = verdict.code();
    r.metrics.fail_reason = verdict.message();
    return r;
  }

  void Resolve(QueryResponse r) {
    {
      std::lock_guard<std::mutex> lock(mu);
      response = std::move(r);
      done = true;
    }
    cv.notify_all();
  }
};

}  // namespace server_internal

using server_internal::PendingQuery;

const QueryResponse& QueryHandle::Get() const {
  PTP_CHECK(pending_ != nullptr) << "empty QueryHandle";
  std::unique_lock<std::mutex> lock(pending_->mu);
  pending_->cv.wait(lock, [&] { return pending_->done; });
  return pending_->response;
}

bool QueryHandle::Done() const {
  if (pending_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(pending_->mu);
  return pending_->done;
}

Status QueryHandle::WaitFor(double timeout_seconds) const {
  PTP_CHECK(pending_ != nullptr) << "empty QueryHandle";
  std::unique_lock<std::mutex> lock(pending_->mu);
  const auto wait = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double>(std::max(0.0, timeout_seconds)));
  if (pending_->cv.wait_for(lock, wait, [&] { return pending_->done; })) {
    return Status::OK();
  }
  return Status::DeadlineExceeded("query still running after bounded wait");
}

QueryHandle QueryServer::Session::Submit(const QueryRequest& request) {
  int seq;
  {
    std::lock_guard<std::mutex> lock(seq_mu_);
    seq = next_seq_++;
  }
  return server_->SubmitInternal(id_ + ".q" + std::to_string(seq), request);
}

bool QueryServer::Session::Cancel(const std::string& id) {
  return server_->Cancel(id);
}

QueryServer::QueryServer(const ServerOptions& options)
    : options_(options),
      running_(!options.start_paused),
      cache_(options.plan_cache_max_entries) {
  if (!options_.query_log_path.empty()) {
    query_log_ = std::make_unique<QueryLog>(options_.query_log_path);
  }
  if (options_.trace != nullptr) {
    options_.trace->NameTrack(kServerSubmitTrack, "server submit");
    options_.trace->NameTrack(kServerQueueTrack, "server queue");
  }
  const int n = std::max(1, options_.executors);
  executors_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    if (options_.trace != nullptr) {
      options_.trace->NameTrack(ServerLaneTrack(i),
                                StrFormat("executor %d", i));
    }
    executors_.emplace_back([this, i] { ExecutorMain(i); });
  }
}

QueryServer::~QueryServer() {
  Start();  // a paused server still drains what it accepted
  Drain();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : executors_) t.join();
}

QueryServer::Session* QueryServer::OpenSession(std::string name) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  if (name.empty()) name = "s" + std::to_string(sessions_.size() + 1);
  sessions_.push_back(
      std::unique_ptr<Session>(new Session(this, std::move(name))));
  return sessions_.back().get();
}

void QueryServer::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (running_) return;
    running_ = true;
  }
  work_cv_.notify_all();
}

void QueryServer::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [&] {
    return small_.empty() && large_.empty() && in_flight_ == 0;
  });
}

QueryServer::Stats QueryServer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

FeedbackStore QueryServer::SnapshotFeedback() const {
  std::lock_guard<std::mutex> lock(feedback_mu_);
  return feedback_;
}

QueryHandle QueryServer::SubmitInternal(const std::string& id,
                                        const QueryRequest& request) {
  auto p = std::make_shared<PendingQuery>();
  p->id = id;
  p->request = request;
  p->flow_id = next_flow_id_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.submitted;
  }
  QueryHandle handle(p);
  // Parse, fault-schedule and never-fits rejects resolve here, before the
  // query is visible to executors.
  auto reject = [&](Status status, bool never_fits) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.rejected;
    }
    BookSubmit(p.get());
    FinishRequest(p, p->Respond(std::move(status)), /*shed=*/false,
                  never_fits);
    return handle;
  };

  // Parse + optimize through the plan cache. The feedback store is read
  // under its lock so in-flight refreshes never race a prepare (lock
  // order: feedback_mu_ before the cache's internal mutex, everywhere).
  Result<PlanCache::Entry> prepared = [&]() -> Result<PlanCache::Entry> {
    std::lock_guard<std::mutex> fb_lock(feedback_mu_);
    return cache_.Prepare(request.text, request.workers, request.catalog,
                          &feedback_, &p->cache_hit);
  }();
  if (!prepared.ok()) return reject(prepared.status(), /*never_fits=*/false);
  p->plan = std::move(prepared).value();
  p->small = p->plan.est_peak_bytes <= options_.small_query_bytes;

  // Per-request fault schedule: parsed now so a malformed schedule rejects
  // at submit, run later under the query's private injector.
  if (!request.faults.empty()) {
    Result<FaultPlan> fault_plan = FaultPlan::Parse(request.faults);
    if (!fault_plan.ok()) {
      return reject(fault_plan.status(), /*never_fits=*/false);
    }
    p->injector =
        std::make_unique<FaultInjector>(std::move(fault_plan).value());
  }

  // Cancel token + deadline armed from submit: time spent queued counts
  // against the deadline, and an expired query resolves at dispatch
  // without running.
  p->lifecycle = std::make_unique<QueryLifecycle>();
  const double deadline = request.deadline_seconds > 0
                              ? request.deadline_seconds
                              : options_.default_deadline_seconds;
  if (deadline > 0) p->lifecycle->SetDeadline(deadline);
  if (request.cancel_after_polls > 0) {
    p->lifecycle->CancelAfterPolls(request.cancel_after_polls);
  }
  if (request.deadline_after_polls > 0) {
    p->lifecycle->DeadlineAfterPolls(request.deadline_after_polls);
  }

  // Admission: a query that can never fit the pool is refused now, not
  // queued forever (retry_after stays 0: resubmitting cannot help).
  if (options_.memory_pool_bytes != 0 &&
      p->plan.est_peak_bytes > options_.memory_pool_bytes) {
    return reject(
        Status::ResourceExhausted(StrFormat(
            "estimated peak %llu B exceeds the server memory pool (%llu B)",
            static_cast<unsigned long long>(p->plan.est_peak_bytes),
            static_cast<unsigned long long>(options_.memory_pool_bytes))),
        /*never_fits=*/true);
  }

  // Admission work is booked (and the submit span emitted) before the
  // query becomes visible to executors — once enqueued, an executor may
  // resolve it concurrently and read the admission account.
  BookSubmit(p.get());

  // Overload shedding: a full admission queue refuses immediately with a
  // computed backoff instead of queueing without bound.
  double shed_retry_after = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (options_.max_queue_depth != 0 &&
        small_.size() + large_.size() >= options_.max_queue_depth) {
      ++stats_.rejected;
      ++stats_.shed;
      shed_retry_after = RetryAfterLocked();
    } else {
      (p->small ? small_ : large_).push_back(p);
      by_id_[p->id] = p;
      // One victim per backlog crossing; the request is honored at the
      // query's next regular-shuffle round barrier (single-round plans
      // run to completion — nothing to preempt).
      for (const auto& running : running_queries_) {
        if (YieldDueLocked(*running) &&
            running->lifecycle->RequestSuspend()) {
          break;
        }
      }
    }
  }
  if (shed_retry_after >= 0) {
    QueryResponse r = p->Respond(Status::ResourceExhausted(
        StrFormat("admission queue full (%zu queued, cap %zu)",
                  options_.max_queue_depth, options_.max_queue_depth)));
    r.retry_after_seconds = shed_retry_after;
    FinishRequest(p, std::move(r), /*shed=*/true, /*never_fits=*/false);
    return handle;
  }
  work_cv_.notify_all();
  return handle;
}

void QueryServer::BookSubmit(PendingQuery* p) {
  p->admission_seconds = p->queue_timer.Seconds();
  TraceSession* trace = options_.trace;
  if (trace == nullptr) return;
  const double duration_us = p->admission_seconds * 1e6;
  trace->CompleteSpan("submit " + p->id, kServerSubmitTrack, duration_us);
  // The flow start is rewound into the submit span so the viewers bind
  // the arrow's tail to it.
  trace->FlowStart("request", p->flow_id, kServerSubmitTrack,
                   duration_us / 2);
}

double QueryServer::RetryAfterLocked() const {
  // Estimated time for the backlog ahead of a returning client to drain:
  // the sum of measured runtimes of everything queued or running (a query
  // the cache hasn't measured yet counts a nominal 50 ms), spread across
  // the executor lanes.
  constexpr double kUnmeasuredSeconds = 0.05;
  double backlog = 0;
  auto est = [&](const std::shared_ptr<PendingQuery>& p) {
    return p->plan.est_exec_seconds > 0 ? p->plan.est_exec_seconds
                                        : kUnmeasuredSeconds;
  };
  for (const auto& p : small_) backlog += est(p);
  for (const auto& p : large_) backlog += est(p);
  for (const auto& p : running_queries_) backlog += est(p);
  const double lanes =
      static_cast<double>(std::max(1, options_.executors));
  return std::max(0.01, backlog / lanes);
}

bool QueryServer::YieldDueLocked(const PendingQuery& p) const {
  return !p.small && options_.preempt_small_backlog > 0 &&
         small_.size() >=
             static_cast<size_t>(options_.preempt_small_backlog) &&
         p.suspend_count < kMaxSuspendsPerQuery;
}

bool QueryServer::Cancel(const std::string& id) {
  std::shared_ptr<PendingQuery> queued;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = by_id_.find(id);
    if (it == by_id_.end()) return false;
    std::shared_ptr<PendingQuery> p = it->second.lock();
    if (p == nullptr) {
      by_id_.erase(it);
      return false;
    }
    p->lifecycle->Cancel("cancelled by client");
    // Still queued (first submission or suspended): strip it so it
    // resolves now instead of at its next dispatch. A running query stops
    // at its next coordinator poll and resolves from the executor.
    auto strip = [&](std::deque<std::shared_ptr<PendingQuery>>& q) {
      for (auto qi = q.begin(); qi != q.end(); ++qi) {
        if ((*qi)->id == id) {
          queued = *qi;
          q.erase(qi);
          return true;
        }
      }
      return false;
    };
    if (strip(small_) || strip(large_)) {
      ++stats_.cancelled;
      by_id_.erase(id);
      if (!queued->started) {
        queued->queue_seconds = queued->queue_timer.Seconds();
      }
    }
  }
  if (queued == nullptr) return true;  // running: the executor resolves it

  const Status verdict = queued->lifecycle->Poll("queue");
  FinishRequest(queued,
                queued->RespondStopped(
                    verdict.ok() ? Status::Cancelled("cancelled by client")
                                 : verdict),
                /*shed=*/false, /*never_fits=*/false);
  drain_cv_.notify_all();
  return true;
}

// Under mu_. Two-level fair pick: small before large, FIFO within class,
// with two anti-starvation rules — after small_per_large consecutive small
// dispatches the oldest large query goes first (and small queries are held
// back until it fits the pool), and a blocked small head lets the large
// head through rather than idling the executor.
std::shared_ptr<PendingQuery> QueryServer::PickLocked() {
  auto fits = [&](const PendingQuery& p) {
    return options_.memory_pool_bytes == 0 || in_flight_ == 0 ||
           reserved_bytes_ + p.plan.est_peak_bytes <=
               options_.memory_pool_bytes;
  };
  auto take_small = [&]() {
    auto p = small_.front();
    small_.pop_front();
    ++consecutive_small_;
    ++stats_.small_dispatched;
    return p;
  };
  auto take_large = [&]() {
    auto p = large_.front();
    large_.pop_front();
    consecutive_small_ = 0;
    ++stats_.large_dispatched;
    return p;
  };

  const bool large_due =
      !large_.empty() && (small_.empty() || consecutive_small_ >=
                                                options_.small_per_large);
  if (large_due) {
    if (fits(*large_.front())) return take_large();
    ++stats_.admission_stalls;
    return nullptr;  // let the pool drain so the owed large query runs
  }
  if (!small_.empty()) {
    if (fits(*small_.front())) return take_small();
    if (!large_.empty() && fits(*large_.front())) return take_large();
    ++stats_.admission_stalls;
    return nullptr;
  }
  if (!large_.empty()) {
    if (fits(*large_.front())) return take_large();
    ++stats_.admission_stalls;
  }
  return nullptr;
}

void QueryServer::ExecutorMain(int lane) {
  while (true) {
    std::shared_ptr<PendingQuery> p;
    bool first_dispatch = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      while (true) {
        if (stopping_) return;
        if (running_) {
          p = PickLocked();
          if (p != nullptr) break;
        }
        work_cv_.wait(lock);
      }
      reserved_bytes_ += p->plan.est_peak_bytes;
      ++in_flight_;
      if (p->dispatch_seq == 0) {
        first_dispatch = true;
        p->dispatch_seq = next_dispatch_seq_++;
      } else {
        // Re-dispatch of a suspended query: it keeps its original dispatch
        // position (it already ran once).
        ++stats_.resumed;
      }
      running_queries_.push_back(p);
      // Preemption is level-triggered, not just submit-triggered: a large
      // query dispatched (or resumed by the anti-starvation rule) over a
      // still-standing small backlog is asked to yield again at its next
      // barrier. Without this the first resume marches past the backlog's
      // tail — smalls behind the small_per_large window would wait out the
      // whole remaining large run. kMaxSuspendsPerQuery still bounds the
      // total yields, after which the query runs to completion.
      if (YieldDueLocked(*p)) p->lifecycle->RequestSuspend();
    }

    // Telemetry-plane trace: the queue-wait span (once, at first
    // dispatch), then a per-dispatch execution span on this lane's track.
    // The request's flow arrow steps through both and ends inside the
    // final execution span.
    TraceSession* trace = options_.trace;
    const int lane_track = ServerLaneTrack(lane);
    std::string exec_name;
    if (trace != nullptr) {
      if (first_dispatch) {
        const double waited_us =
            std::max(0.0, p->queue_timer.Seconds() - p->admission_seconds) *
            1e6;
        trace->CompleteSpan("queued " + p->id, kServerQueueTrack, waited_us);
        trace->FlowStep("request", p->flow_id, kServerQueueTrack,
                        waited_us / 2);
      }
      exec_name = "exec " + p->id;
      trace->BeginSpan(exec_name, lane_track);
      trace->FlowStep("request", p->flow_id, lane_track);
    }

    bool suspended = false;
    QueryResponse r = Execute(p.get(), &suspended);

    if (trace != nullptr) {
      if (suspended) {
        trace->Instant("suspend", p->id, lane_track);
      } else {
        trace->FlowEnd("request", p->flow_id, lane_track);
      }
      trace->EndSpan(exec_name, lane_track);
    }

    {
      std::lock_guard<std::mutex> lock(mu_);
      reserved_bytes_ -= p->plan.est_peak_bytes;
      --in_flight_;
      running_queries_.erase(std::remove(running_queries_.begin(),
                                         running_queries_.end(), p),
                             running_queries_.end());
      if (suspended) {
        // Barrier checkpoint captured: the pool reservation and executor
        // are free for the backlog; the query re-queues at the FRONT of
        // its class so it resumes ahead of later arrivals.
        ++p->suspend_count;
        ++stats_.suspended;
        (p->small ? small_ : large_).push_front(p);
      } else {
        ++stats_.completed;
        if (!r.status.ok() || r.metrics.failed) ++stats_.failed;
        if (r.status.code() == StatusCode::kResourceExhausted) {
          // The run was killed by the per-query budget; suggest waiting
          // out the estimated backlog.
          r.retry_after_seconds = RetryAfterLocked();
        }
        if (r.status.code() == StatusCode::kCancelled) ++stats_.cancelled;
        if (r.status.code() == StatusCode::kDeadlineExceeded) {
          ++stats_.deadline_exceeded;
        }
        by_id_.erase(p->id);
      }
    }
    if (!suspended) {
      FinishRequest(p, std::move(r), /*shed=*/false, /*never_fits=*/false);
    }
    work_cv_.notify_all();
    drain_cv_.notify_all();
  }
}

QueryResponse QueryServer::Execute(PendingQuery* p, bool* suspended) {
  *suspended = false;
  if (!p->started) {
    // First dispatch: freeze the plan choice and create the per-query
    // sinks. Both survive a suspension — a resumed query keeps charging
    // the same registry and the same open meter section, which is what
    // makes its finished counters and peaks bit-identical to an
    // uninterrupted run.
    p->started = true;
    p->queue_seconds = p->queue_timer.Seconds();
    p->shuffle = p->plan.advice.shuffle;
    p->join = p->plan.advice.join;
    if (p->request.force_strategy) {
      p->shuffle = p->request.shuffle;
      p->join = p->request.join;
    }
    p->opts = p->request.exec;
    p->opts.num_workers = p->request.workers;
    if (!p->request.force_strategy && p->plan.advice.use_bloom) {
      // Advised runs inherit the cached --bloom=auto decision (refined by
      // feedback on Refresh); forced/pinned plans take request.exec
      // verbatim so ablations and solo-comparison runs stay reproducible.
      p->opts.bloom = true;
    }
    // The entry's planning decisions override only what RunStrategy would
    // derive itself from the same query — the greedy join order and the
    // Sec. 5 variable order — so a served run stays bit-identical to a
    // solo run while each optimizer runs once per prepared plan instead of
    // once per execution. Orders set in the request win.
    const PreparedPlan& prepared = *p->plan.prepared;
    if (p->opts.join_order.empty()) {
      p->opts.join_order = prepared.blind().order;
    }
    if (p->opts.var_order.empty() && p->join == JoinKind::kTributary &&
        p->shuffle != ShuffleKind::kRegular) {
      p->opts.var_order = cache_.VarOrder(prepared);
    }
    if (p->opts.recovery.watchdog_straggle_factor == 0) {
      p->opts.recovery.watchdog_straggle_factor =
          options_.watchdog_straggle_factor;
    }
    p->counters = std::make_unique<CounterRegistry>();
    p->meter = std::make_unique<ResourceMeter>(options_.query_budget_bytes,
                                               /*hard=*/true);
  }

  // Per-query observability + control sinks, installed on this executor
  // thread only (a thread-local runtime::QueryContext) until this function
  // returns: a concurrent query on another executor charges its own
  // registry/meter and answers to its own cancel token, never these. Sinks
  // the request does not carry keep the executor thread's values.
  runtime::QueryContext sinks = runtime::CurrentQueryContext();
  sinks.counters = p->counters.get();
  sinks.meter = p->meter.get();
  sinks.lifecycle = p->lifecycle.get();
  if (p->injector != nullptr) sinks.faults = p->injector.get();
  runtime::ScopedQueryContext installed(sinks);

  // A deadline that expired in the queue (or a cancel that landed between
  // pick and dispatch) resolves here without (re)entering the engine —
  // with any checkpointed partial account intact.
  Status pre = p->lifecycle->Poll("dispatch");
  if (!pre.ok()) return p->RespondStopped(pre);

  // The run consumes the checkpoint it resumes from; a new one comes back
  // only when it suspends again.
  const std::shared_ptr<QueryCheckpoint> resume = std::move(p->checkpoint);
  Timer exec_timer;
  Result<StrategyResult> result =
      resume != nullptr
          ? ResumeStrategy(p->plan.prepared->normalized(), p->shuffle,
                           p->join, p->opts, *resume)
          : RunStrategy(p->plan.prepared->normalized(), p->shuffle, p->join,
                        p->opts);
  p->exec_seconds += exec_timer.Seconds();
  if (!result.ok()) return p->Respond(result.status());
  StrategyResult sr = std::move(result).value();
  if (sr.checkpoint != nullptr) {
    // Suspended at a round barrier: stash the checkpoint for the resume
    // dispatch. No response — the handle resolves only when the query
    // finishes (or is cancelled).
    p->checkpoint = std::move(sr.checkpoint);
    *suspended = true;
    return QueryResponse();
  }

  // A graceful FAIL keeps its budget or lifecycle code; any other failure
  // is the recovery ladder giving up.
  Status status;
  bool lifecycle_stop = false;
  if (sr.metrics.failed) {
    const StatusCode code = sr.metrics.fail_code;
    lifecycle_stop = code == StatusCode::kCancelled ||
                     code == StatusCode::kDeadlineExceeded;
    status = Status(lifecycle_stop || code == StatusCode::kResourceExhausted
                        ? code
                        : StatusCode::kUnavailable,
                    sr.metrics.fail_reason);
  }

  // Lifecycle-stopped runs teach the advisor nothing (their measurements
  // describe an interrupted run, not the plan).
  if (!lifecycle_stop) {
    // Fold the measured run into the feedback store and re-advise the
    // cached plan: the next execution of this query starts from what this
    // one measured (strategy upgrade + measured peak for admission). Both
    // steps reuse the entry's blind estimates, so nothing under
    // feedback_mu_ — which every submit also takes — scans a relation.
    const PreparedPlan& prepared = *p->plan.prepared;
    StrategyFeedback sf =
        CollectStrategyFeedback(prepared.normalized(),
                                StrategyName(p->shuffle, p->join), sr,
                                &prepared.blind());
    std::lock_guard<std::mutex> fb_lock(feedback_mu_);
    const QueryFeedback* qf =
        feedback_.Fold(p->plan.key, p->request.workers, std::move(sf),
                       options_.feedback_max_entries);
    cache_.Refresh(p->plan.key, p->request.workers, p->request.catalog,
                   ApplyFeedback(prepared.blind(), qf),
                   sr.metrics.failed
                       ? 0
                       : static_cast<uint64_t>(sr.metrics.peak_bytes),
                   sr.metrics.failed ? 0 : p->exec_seconds);
  }
  QueryResponse r = p->Respond(std::move(status));
  r.metrics = std::move(sr.metrics);
  r.output = std::move(sr.output);
  return r;
}

void QueryServer::FinishRequest(const std::shared_ptr<PendingQuery>& p,
                                QueryResponse r, bool shed,
                                bool never_fits) {
  RequestRecord rec;
  rec.id = p->id;
  rec.total_seconds = p->queue_timer.Seconds();
  if (query_log_ != nullptr) {
    const size_t dot = p->id.rfind(".q");
    rec.session = dot == std::string::npos ? "" : p->id.substr(0, dot);
    // The cache key IS the normalized text; a request that never prepared
    // (parse reject) normalizes its raw text here instead.
    rec.query_hash = HashQueryText(!p->plan.key.empty()
                                       ? p->plan.key
                                       : NormalizeQueryText(p->request.text));
    rec.catalog = CatalogFingerprint(p->request.catalog);
  }
  rec.cost_class = r.cost_class;
  rec.strategy = r.strategy;
  rec.bloom = r.bloom;
  rec.cache_hit = r.cache_hit;
  rec.outcome = OutcomeName(r.status.code(), shed, never_fits);
  rec.status = StatusCodeToString(r.status.code());
  if (!r.status.ok()) rec.fail_reason = r.status.message();
  const bool dispatched = r.dispatch_seq != 0;
  rec.admission_seconds = p->admission_seconds;
  // Queue-wait is submit→first-dispatch net of the submit-side work; a
  // never-dispatched request spends its whole life in admission + queue
  // but only the end-to-end phase records it.
  rec.queue_seconds =
      std::max(0.0, (dispatched ? p->queue_seconds : rec.total_seconds) -
                        p->admission_seconds);
  rec.exec_seconds = p->exec_seconds;
  rec.est_peak_bytes = r.est_peak_bytes;
  rec.peak_bytes = r.metrics.peak_bytes;
  rec.output_tuples = r.metrics.output_tuples;
  rec.tuples_shuffled = r.metrics.TuplesShuffled();
  rec.lifecycle = r.lifecycle;
  rec.slow = options_.slow_query_seconds > 0 &&
             rec.total_seconds >= options_.slow_query_seconds;
  rec.dispatch_seq = r.dispatch_seq;
  telemetry_.Record(rec);
  if (query_log_ != nullptr) query_log_->Append(rec);

  if (options_.trace != nullptr && !dispatched) {
    // Dispatched requests close their flow inside the final execution
    // span (ExecutorMain); never-dispatched ones close it back at the
    // submit span, where they resolved.
    options_.trace->FlowEnd("request", p->flow_id, kServerSubmitTrack);
  }
  p->Resolve(std::move(r));
}

std::string QueryServer::RenderMetricsProm() const {
  std::ostringstream os;
  telemetry_.WriteProm(os);

  double small_queued, large_queued, reserved, in_flight;
  Stats s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    small_queued = static_cast<double>(small_.size());
    large_queued = static_cast<double>(large_.size());
    reserved = static_cast<double>(reserved_bytes_);
    in_flight = static_cast<double>(in_flight_);
    s = stats_;
  }
  WritePromScalarFamily(
      os, "ptp_server_queue_depth", "Admission queue depth by cost class.",
      "gauge",
      {{PromLabels{{"class", "small"}}, small_queued},
       {PromLabels{{"class", "large"}}, large_queued}});
  WritePromScalarFamily(os, "ptp_server_in_flight",
                        "Queries currently on an executor.", "gauge",
                        {{PromLabels{}, in_flight}});
  WritePromScalarFamily(os, "ptp_server_reserved_bytes",
                        "Admission pool bytes reserved by running queries.",
                        "gauge", {{PromLabels{}, reserved}});
  WritePromScalarFamily(
      os, "ptp_server_memory_pool_bytes",
      "Configured admission pool size (0 = unlimited).", "gauge",
      {{PromLabels{},
        static_cast<double>(options_.memory_pool_bytes)}});
  WritePromScalarFamily(
      os, "ptp_server_executors", "Executor lanes.", "gauge",
      {{PromLabels{}, static_cast<double>(executors_.size())}});
  WritePromScalarFamily(os, "ptp_server_submitted_total",
                        "Requests submitted.", "counter",
                        {{PromLabels{}, static_cast<double>(s.submitted)}});
  WritePromScalarFamily(os, "ptp_server_completed_total",
                        "Requests that ran to completion.", "counter",
                        {{PromLabels{}, static_cast<double>(s.completed)}});
  WritePromScalarFamily(
      os, "ptp_server_admission_stalls_total",
      "Dispatch attempts held back for pool headroom.", "counter",
      {{PromLabels{}, static_cast<double>(s.admission_stalls)}});

  const PlanCache::Stats cs = cache_.stats();
  WritePromScalarFamily(
      os, "ptp_plan_cache_lookups_total",
      "Prepared-plan cache lookups by result.", "counter",
      {{PromLabels{{"result", "hit"}}, static_cast<double>(cs.hits)},
       {PromLabels{{"result", "miss"}}, static_cast<double>(cs.misses)}});
  WritePromScalarFamily(os, "ptp_plan_cache_parses_total",
                        "Parser/normalizer/advisor invocations.", "counter",
                        {{PromLabels{}, static_cast<double>(cs.parses)}});
  WritePromScalarFamily(os, "ptp_plan_cache_evictions_total",
                        "Entries dropped by the LRU cap.", "counter",
                        {{PromLabels{}, static_cast<double>(cs.evictions)}});
  WritePromScalarFamily(
      os, "ptp_plan_cache_blind_advisories_total",
      "Advisor relation scans, one per prepared entry.", "counter",
      {{PromLabels{}, static_cast<double>(cs.blind_advisories)}});
  WritePromScalarFamily(
      os, "ptp_plan_cache_order_optimizations_total",
      "Tributary variable-order optimizations, at most one per entry.",
      "counter",
      {{PromLabels{}, static_cast<double>(cs.order_optimizations)}});
  return os.str();
}

std::string QueryServer::RenderMetricsJson() const {
  std::ostringstream os;
  os << "{\"fleet\":";
  telemetry_.WriteJson(os);
  Stats s = stats();
  const PlanCache::Stats cs = cache_.stats();
  os << StrFormat(
      ",\"server\":{\"submitted\":%llu,\"completed\":%llu,"
      "\"rejected\":%llu,\"shed\":%llu,\"cancelled\":%llu,"
      "\"deadline_exceeded\":%llu,\"suspended\":%llu,\"resumed\":%llu,"
      "\"admission_stalls\":%llu}",
      static_cast<unsigned long long>(s.submitted),
      static_cast<unsigned long long>(s.completed),
      static_cast<unsigned long long>(s.rejected),
      static_cast<unsigned long long>(s.shed),
      static_cast<unsigned long long>(s.cancelled),
      static_cast<unsigned long long>(s.deadline_exceeded),
      static_cast<unsigned long long>(s.suspended),
      static_cast<unsigned long long>(s.resumed),
      static_cast<unsigned long long>(s.admission_stalls));
  os << StrFormat(
      ",\"plan_cache\":{\"hits\":%llu,\"misses\":%llu,\"parses\":%llu,"
      "\"evictions\":%llu,\"blind_advisories\":%llu,"
      "\"order_optimizations\":%llu}}",
      static_cast<unsigned long long>(cs.hits),
      static_cast<unsigned long long>(cs.misses),
      static_cast<unsigned long long>(cs.parses),
      static_cast<unsigned long long>(cs.evictions),
      static_cast<unsigned long long>(cs.blind_advisories),
      static_cast<unsigned long long>(cs.order_optimizations));
  return os.str();
}

ServerSnapshot QueryServer::Snapshot() const {
  ServerSnapshot snap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snap.pool.executors = static_cast<int>(executors_.size());
    snap.pool.in_flight = in_flight_;
    snap.pool.reserved_bytes = reserved_bytes_;
    snap.pool.memory_pool_bytes = options_.memory_pool_bytes;
    snap.pool.small_queued = small_.size();
    snap.pool.large_queued = large_.size();
    snap.pool.submitted = stats_.submitted;
    snap.pool.completed = stats_.completed;
    // Queued (and suspended) queries are quiescent under mu_ — every
    // field was last written by a thread that has since released mu_.
    // Running queries are owned by an executor that mutates them without
    // the lock, so their rows stick to fields that freeze at
    // submit/dispatch.
    auto add_row = [&](const std::shared_ptr<PendingQuery>& p,
                       const char* state) {
      ServerSnapshot::QueryRow row;
      row.id = p->id;
      row.state = state;
      row.cost_class = p->small ? "small" : "large";
      if (row.state != "running" && p->started) {
        row.strategy = StrategyName(p->shuffle, p->join);
      }
      row.est_peak_bytes = p->plan.est_peak_bytes;
      row.dispatch_seq = p->dispatch_seq;
      row.suspend_count = p->suspend_count;
      row.waited_seconds = p->queue_timer.Seconds();
      snap.queries.push_back(std::move(row));
    };
    for (const auto* queue : {&small_, &large_}) {
      for (const auto& p : *queue) {
        add_row(p, p->checkpoint != nullptr ? "suspended" : "queued");
      }
    }
    for (const auto& p : running_queries_) add_row(p, "running");
  }
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (const auto& session : sessions_) {
      ServerSnapshot::SessionRow row;
      row.id = session->id();
      std::lock_guard<std::mutex> seq_lock(session->seq_mu_);
      row.submitted = static_cast<uint64_t>(session->next_seq_ - 1);
      snap.sessions.push_back(std::move(row));
    }
  }
  return snap;
}

}  // namespace ptp
