#include "plan/stage_driver.h"

#include <utility>

#include "common/logging.h"
#include "common/str_util.h"
#include "common/timer.h"
#include "exec/lifecycle.h"
#include "exec/recovery.h"
#include "fault/fault.h"
#include "obs/counters.h"
#include "obs/profile.h"
#include "obs/resource.h"
#include "obs/trace.h"
#include "runtime/parallel.h"

namespace ptp {
namespace plan_internal {
namespace {

// Converts a lifecycle stop (a cancel/deadline the recovery loop's poll
// surfaced) carried by `status` into a graceful FAIL: the query stops, it
// never retries, degrades, or aborts on it. Returns true when it did.
bool FailOnControlStatus(Ctx* ctx, const Status& status) {
  if (status.code() != StatusCode::kCancelled &&
      status.code() != StatusCode::kDeadlineExceeded) {
    return false;
  }
  ctx->Fail(status.message(), status.code());
  return true;
}

// Stage watchdog (RecoveryOptions::watchdog_straggle_factor): after the
// barrier, a worker body whose virtual delay factor (injected via the
// fault plan's `slow` kind) reached the threshold is declared hung and its
// success converted into a retryable kUnavailable, in worker index order —
// the recovery ladder then replays the attempt (a transient straggler
// recovers bit-identically via lineage replay), degrades, or FAILs the
// query gracefully (a persistent straggler). Driven entirely by the
// injected virtual clock, so the decision is deterministic at any thread
// count and a clean run (delay 1.0) never trips it.
void ApplyWatchdog(const StrategyOptions& opts, const std::string& label,
                   const std::vector<double>& worker_delay,
                   std::vector<Status>* worker_status) {
  const double factor = opts.recovery.watchdog_straggle_factor;
  if (factor <= 0) return;
  for (size_t wi = 0; wi < worker_status->size(); ++wi) {
    if (!(*worker_status)[wi].ok() || worker_delay[wi] < factor) continue;
    (*worker_status)[wi] = Status::Unavailable(
        StrFormat("watchdog: worker %zu straggled %.1fx in stage '%s'", wi,
                  worker_delay[wi], label.c_str()));
    if (CounterRegistry* reg = ActiveCounterRegistry()) {
      reg->Add("lifecycle.watchdog_trips", 1);
    }
    if (TraceSession* trace = ActiveTraceSession()) {
      trace->Instant("watchdog", (*worker_status)[wi].message(),
                     kCoordinatorTrack);
    }
    if (QueryLifecycle* lifecycle = ActiveQueryLifecycle()) {
      lifecycle->BookWatchdogTrip();
    }
  }
}

// Probes the active fault injector for this (site, worker, attempt) body.
// One nullptr branch when injection is off.
StageFault ProbeStageFault(int site, const std::string& label, int worker,
                           int attempt) {
  if (FaultInjector* injector = ActiveFaultInjector()) {
    return injector->OnStage(site, label, worker, attempt);
  }
  return StageFault{};
}

Status InjectedCrash(const char* when, int worker, const std::string& label) {
  return Status::Unavailable(StrFormat(
      "injected crash of worker %d %s stage '%s'", worker, when,
      label.c_str()));
}

}  // namespace

std::vector<std::string> SharedVars(const Schema& a, const Schema& b) {
  std::vector<std::string> shared;
  for (size_t i = 0; i < a.arity(); ++i) {
    if (b.IndexOf(a.name(i)) >= 0) shared.push_back(a.name(i));
  }
  return shared;
}

std::vector<int> ColumnIndices(const Schema& schema,
                               const std::vector<std::string>& vars) {
  std::vector<int> cols;
  for (const std::string& var : vars) {
    int c = schema.IndexOf(var);
    PTP_CHECK_GE(c, 0);
    cols.push_back(c);
  }
  return cols;
}

uint64_t DistBytes(const DistributedRelation& frags) {
  uint64_t bytes = 0;
  for (const Relation& frag : frags) {
    bytes += static_cast<uint64_t>(frag.NumTuples()) * frag.arity() *
             sizeof(Value);
  }
  return bytes;
}

Ctx::Ctx(const NormalizedQuery& query, const StrategyOptions& options)
    : q(&query), opts(&options), W(options.num_workers) {
  result.metrics.EnsureWorkers(static_cast<size_t>(W));
}

void Ctx::BookShuffle(const ShuffleMetrics& sm, double elapsed) {
  if (TraceSession* trace = ActiveTraceSession()) {
    // The shuffle already ran when it is booked, so emit a complete span
    // ending "now" on the coordinator track.
    trace->CompleteSpan(sm.label, kCoordinatorTrack, elapsed * 1e6);
  }
  metrics().shuffles.push_back(sm);
  if (sm.tuples_sent == 0) return;
  const double per_worker = elapsed / W;
  for (int w = 0; w < W; ++w) {
    metrics().worker_seconds[static_cast<size_t>(w)] += per_worker;
  }
  metrics().wall_seconds += elapsed;
}

void Ctx::BookStage(const std::string& label, double region_elapsed,
                    const std::vector<double>& worker_elapsed,
                    const std::vector<double>& sort_elapsed,
                    const std::vector<double>& join_elapsed,
                    size_t output_tuples, bool stage_failed, size_t retries,
                    bool degraded, const std::vector<MemStats>* worker_mem) {
  StageMetrics stage;
  stage.label = label;
  if (worker_mem != nullptr) {
    if (ResourceMeter* meter = ActiveResourceMeter()) {
      stage.peak_bytes =
          static_cast<size_t>(meter->BookStageMemory(label, *worker_mem));
    }
  }
  for (int w = 0; w < W; ++w) {
    const size_t wi = static_cast<size_t>(w);
    metrics().worker_seconds[wi] += worker_elapsed[wi];
    if (!sort_elapsed.empty()) {
      metrics().worker_sort_seconds[wi] += sort_elapsed[wi];
    }
    if (!join_elapsed.empty()) {
      metrics().worker_join_seconds[wi] += join_elapsed[wi];
    }
    stage.cpu_seconds += worker_elapsed[wi];
  }
  stage.wall_seconds = region_elapsed;
  stage.output_tuples = output_tuples;
  stage.failed = stage_failed;
  stage.retries = retries;
  stage.degraded = degraded;
  metrics().wall_seconds += region_elapsed;
  metrics().stages.push_back(stage);
  if (QueryProfile* profile = ActiveQueryProfile()) {
    // The per-worker timeline mirrors exactly what was booked into
    // QueryMetrics above, so the profiler and SkewFactor reconcile.
    StageProfile sp;
    sp.label = label;
    sp.wall_seconds = region_elapsed;
    sp.busy_seconds = worker_elapsed;
    sp.sort_seconds = sort_elapsed;
    sp.join_seconds = join_elapsed;
    sp.output_tuples = output_tuples;
    sp.retries = retries;
    sp.failed = stage_failed;
    sp.degraded = degraded;
    profile->RecordStage(std::move(sp));
  }
}

void Ctx::Fail(std::string reason, StatusCode code) {
  metrics().failed = true;
  metrics().fail_reason = std::move(reason);
  metrics().fail_code = code;
}

bool Ctx::FailOnControl(std::string_view where) {
  if (failed()) return true;
  ResourceMeter* meter = ActiveResourceMeter();
  if (meter != nullptr && meter->hard_breached()) {
    Fail(meter->breach_message(), StatusCode::kResourceExhausted);
    return true;
  }
  QueryLifecycle* lifecycle = ActiveQueryLifecycle();
  if (lifecycle == nullptr) return false;
  Status stop = lifecycle->Poll(where);
  if (stop.ok()) return false;
  Fail(stop.message(), stop.code());
  return true;
}

bool Ctx::ChargeAndPoll(const std::vector<const DistributedRelation*>& charged,
                        std::string_view where) {
  ResourceMeter* meter = ActiveResourceMeter();
  if (meter != nullptr && !charged.empty()) {
    uint64_t bytes = 0;
    for (const DistributedRelation* dist : charged) bytes += DistBytes(*dist);
    meter->Charge(MemCategory::kIntermediate, bytes);
  }
  return FailOnControl(where);
}

Result<StrategyResult> RunInFrame(
    std::string_view name, const QueryCheckpoint* resume,
    const std::function<Result<StrategyResult>()>& body) {
  FaultInjector* injector = ActiveFaultInjector();
  ResourceMeter* meter = ActiveResourceMeter();
  if (resume != nullptr) {
    // Reset() would renumber the remaining sites differently from an
    // uninterrupted run.
    if (injector != nullptr) injector->set_cursor(resume->fault_cursor);
    if (QueryLifecycle* lifecycle = ActiveQueryLifecycle()) {
      lifecycle->BookResume();
    }
  } else {
    if (injector != nullptr) injector->Reset();
    if (QueryProfile* profile = ActiveQueryProfile()) {
      profile->BeginStrategy(name);
    }
    if (meter != nullptr) meter->BeginQuery(name);
  }
  Span span(name, kCoordinatorTrack);
  Result<StrategyResult> result = body();
  // Closed after any degradation Absorb, so the figures cover the whole
  // run (an HC fallback books into the same section).
  if (meter != nullptr && result.ok() && result->checkpoint == nullptr) {
    uint64_t peak = 0, charged = 0;
    meter->FinishQuery(&peak, &charged);
    result->metrics.peak_bytes = static_cast<size_t>(peak);
    result->metrics.charged_bytes = static_cast<size_t>(charged);
  }
  return result;
}

void BookDegradation(Ctx* ctx, std::string what) {
  if (CounterRegistry* reg = ActiveCounterRegistry()) {
    reg->Add("retry.degraded", 1);
  }
  if (TraceSession* trace = ActiveTraceSession()) {
    trace->Instant("degraded", what, kCoordinatorTrack);
  }
  ctx->metrics().degradations.push_back(std::move(what));
}

Exchange ShuffleInto(
    std::string label,
    std::function<Result<ShuffleResult>(ShuffleAttempt)> shuffle,
    DistributedRelation* out, std::vector<std::vector<uint32_t>>* arrival,
    std::vector<size_t>* unfiltered_rows) {
  return {std::move(label),
          [shuffle = std::move(shuffle), out, arrival, unfiltered_rows](
              ShuffleAttempt a) -> Result<std::vector<ShuffleMetrics>> {
            PTP_ASSIGN_OR_RETURN(ShuffleResult r, shuffle(a));
            *out = std::move(r.data);
            if (arrival != nullptr) *arrival = std::move(r.arrival);
            if (unfiltered_rows != nullptr) {
              *unfiltered_rows = std::move(r.unfiltered_rows);
            }
            return std::vector<ShuffleMetrics>{std::move(r.metrics)};
          }};
}

Status RunExchangeStep(Ctx* ctx, const std::vector<Exchange>& exchanges,
                       const std::vector<const DistributedRelation*>& charged,
                       bool may_degrade) {
  for (const Exchange& exchange : exchanges) {
    std::vector<ShuffleMetrics> booked;
    Timer t;
    int retries = 0;
    Status status = RunWithRecovery(
        SiteKind::kExchange, exchange.label, ctx->opts->recovery,
        &ctx->metrics(), &retries, [&](int site, int attempt) -> Status {
          PTP_ASSIGN_OR_RETURN(booked, exchange.deliver({site, attempt}));
          return Status::OK();
        });
    if (!status.ok()) {
      if (FailOnControlStatus(ctx, status)) return Status::OK();
      if (!IsRetryableFailure(status) || may_degrade) return status;
      // A lost exchange with no cheaper plan to fall back to: FAIL the
      // query gracefully (a data point, not an abort).
      ctx->Fail(StrFormat("exchange '%s' failed after %d retries: %s",
                          exchange.label.c_str(),
                          ctx->opts->recovery.max_retries,
                          status.ToString().c_str()));
      return Status::OK();
    }
    // A coordinated pair splits the measured time evenly between its sides.
    const double elapsed = t.Seconds() / static_cast<double>(booked.size());
    for (ShuffleMetrics& sm : booked) {
      sm.retries = static_cast<size_t>(retries);
      ctx->BookShuffle(sm, elapsed);
    }
  }
  ctx->ChargeAndPoll(charged, exchanges.back().label);
  return Status::OK();
}

Status RunWorkerStage(Ctx* ctx, const WorkerStage& stage, const JoinBody& body,
                      StageOutput* out) {
  const StrategyOptions& opts = *ctx->opts;
  const size_t W = static_cast<size_t>(ctx->W);
  ResourceMeter* meter = ActiveResourceMeter();
  std::vector<WorkerOut> outs(W);
  std::vector<Status> status(W);
  std::vector<MemStats> mem(W);
  std::vector<double> delay(W, 1.0);
  // Accumulated over every attempt: wasted replays stay on the bill.
  std::vector<double> elapsed(W, 0.0);
  std::vector<double> sort_s(W, 0.0);
  std::vector<double> join_s(W, 0.0);
  double region = 0.0;

  JoinKind join = stage.join;
  std::string label = stage.label;
  auto attempt_fn = [&](int site, int attempt) -> Status {
    for (size_t w = 0; w < W; ++w) {
      // Per-attempt reset: only the attempt that succeeds is booked, so
      // recovered runs account exactly like clean ones.
      outs[w] = WorkerOut();
      status[w] = Status::OK();
      mem[w].Reset();
      delay[w] = 1.0;
    }
    Timer region_timer;
    PTP_RETURN_IF_ERROR(runtime::ParallelFor(ctx->W, [&](int worker) {
      const size_t w = static_cast<size_t>(worker);
      const StageFault fault = ProbeStageFault(site, label, worker, attempt);
      if (fault.crash_before) {
        status[w] = InjectedCrash("before", worker, label);
        return Status::OK();
      }
      Span worker_span(label, WorkerTrack(worker));
      Timer t;
      WorkerMemScope mem_scope(meter != nullptr ? &mem[w] : nullptr);
      status[w] = body(join, w, &outs[w]);
      sort_s[w] += outs[w].sort_seconds * fault.delay_factor;
      join_s[w] += outs[w].join_seconds * fault.delay_factor;
      elapsed[w] += t.Seconds() * fault.delay_factor;
      delay[w] = fault.delay_factor;
      if (fault.crash_during) {
        // Work done, output lost: the fragment dies with the worker.
        outs[w].rel = Relation();
        outs[w].pipeline = PipelineStats();
        status[w] = InjectedCrash("during", worker, label);
      } else if (fault.operator_error && status[w].ok()) {
        status[w] = Status::Unavailable(StrFormat(
            "injected transient operator error on worker %d in '%s'", worker,
            label.c_str()));
      }
      return Status::OK();
    }));
    region += region_timer.Seconds();
    ApplyWatchdog(opts, label, delay, &status);
    for (const Status& st : status) {
      if (!st.ok()) return st;
    }
    return Status::OK();
  };

  int retries = 0;
  auto run = [&] {
    return RunWithRecovery(SiteKind::kStage, label, opts.recovery,
                           &ctx->metrics(), &retries, attempt_fn);
  };
  Status st = run();
  if (!st.ok() && IsRetryableFailure(st) && join == JoinKind::kTributary &&
      opts.recovery.allow_degradation) {
    // The Tributary stage exhausted its retries: book the abandoned stage
    // (its wasted attempts stay on the bill) and degrade to the hash join
    // over the same immutable inputs. The fallback is a fresh fault site
    // with a new label, so only faults that also match it (e.g.
    // wildcard-everything persistent specs) can kill it too.
    ctx->BookStage(label, region, elapsed, sort_s, join_s,
                   /*output_tuples=*/0, /*stage_failed=*/false,
                   static_cast<size_t>(retries), /*degraded=*/true, &mem);
    BookDegradation(ctx, stage.degrade_scope + ": tributary join -> hash join");
    std::fill(elapsed.begin(), elapsed.end(), 0.0);
    std::fill(sort_s.begin(), sort_s.end(), 0.0);
    std::fill(join_s.begin(), join_s.end(), 0.0);
    region = 0.0;
    if (stage.on_degrade) stage.on_degrade();
    join = JoinKind::kHashJoin;
    label += " (degraded to HJ)";
    st = run();
  }
  // A cancel/deadline from the recovery loop's poll (original or degraded
  // attempt): stop now, gracefully, without booking the abandoned attempt.
  if (FailOnControlStatus(ctx, st)) return Status::OK();
  if (!st.ok() && !IsRetryableFailure(st) &&
      st.code() != StatusCode::kResourceExhausted) {
    return st;
  }

  bool failed = false;
  for (size_t w = 0; w < W && !failed; ++w) {
    out->pipeline.Merge(outs[w].pipeline);
    const Status& st = status[w];
    if (!st.ok()) {
      if (st.code() == StatusCode::kResourceExhausted) {
        ctx->Fail(st.message(), StatusCode::kResourceExhausted);
      } else if (IsRetryableFailure(st)) {
        // Retries exhausted with no fallback left: graceful FAIL.
        ctx->Fail(StrFormat("stage '%s' failed after %d retries: %s",
                            label.c_str(), opts.recovery.max_retries,
                            st.ToString().c_str()));
      } else {
        return st;
      }
      failed = true;
    }
    out->tuples += outs[w].rel.NumTuples();
    if (out->tuples > stage.output_cap) {
      ctx->Fail(stage.cap_reason, StatusCode::kResourceExhausted);
      failed = true;
    }
  }
  ctx->BookStage(label, region, elapsed, sort_s, join_s, out->tuples, failed,
                 static_cast<size_t>(retries), /*degraded=*/false, &mem);
  if (!failed) ctx->FailOnControl(label);
  out->rel.resize(W);
  for (size_t w = 0; w < W; ++w) out->rel[w] = std::move(outs[w].rel);
  return Status::OK();
}

}  // namespace plan_internal
}  // namespace ptp
