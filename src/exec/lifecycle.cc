#include "exec/lifecycle.h"

#include <sstream>

#include "common/str_util.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"

namespace ptp {
namespace {

// Event counters land in the registry only on paths that already diverge
// from a clean run (a cancelled/expired query fails; clean runs must stay
// counter-identical with or without the lifecycle armed).
void BookEvent(const char* counter, std::string_view name,
               std::string_view detail) {
  if (CounterRegistry* registry = ActiveCounterRegistry()) {
    registry->Add(counter, 1);
  }
  if (TraceSession* trace = ActiveTraceSession()) {
    trace->Instant(name, detail);
  }
}

}  // namespace

void QueryLifecycle::Cancel(std::string reason) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!cancel_requested_) {
    cancel_requested_ = true;
    cancel_reason_ = std::move(reason);
  }
  attention_.store(true, std::memory_order_release);
}

void QueryLifecycle::SetDeadline(double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  deadline_armed_ = true;
  deadline_seconds_ = seconds;
  deadline_timer_.Reset();
  attention_.store(true, std::memory_order_release);
}

bool QueryLifecycle::RequestSuspend() {
  std::lock_guard<std::mutex> lock(mu_);
  if (suspend_requested_) return false;
  suspend_requested_ = true;
  return true;
}

void QueryLifecycle::CancelAfterPolls(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  cancel_after_polls_ = n;
  if (n > 0) attention_.store(true, std::memory_order_release);
}

void QueryLifecycle::DeadlineAfterPolls(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  deadline_after_polls_ = n;
  if (n > 0) attention_.store(true, std::memory_order_release);
}

void QueryLifecycle::SuspendAtBarrier(uint64_t k) {
  std::lock_guard<std::mutex> lock(mu_);
  suspend_at_check_ = k;
}

Status QueryLifecycle::Poll(std::string_view where) {
  // Fast path: nothing armed. Only Cancel/SetDeadline/*AfterPolls flip
  // `attention_`, so an armed-but-clean run pays one relaxed increment
  // and one acquire load per poll — no lock (the 1 % overhead gate of
  // bench/micro_overhead --sink=lifecycle depends on this staying cheap).
  const uint64_t n = polls_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (!attention_.load(std::memory_order_acquire)) return Status::OK();

  std::string verdict_counter;
  Status verdict;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (cancel_after_polls_ > 0 && n >= cancel_after_polls_ &&
        !cancel_requested_) {
      cancel_requested_ = true;
      cancel_reason_ = StrFormat("cancelled at poll %llu",
                                 static_cast<unsigned long long>(n));
    }
    if (cancel_requested_) {
      const bool first = !stats_.cancelled;
      stats_.cancelled = true;
      verdict = Status::Cancelled(StrFormat("%s (at %.*s)",
                                            cancel_reason_.c_str(),
                                            static_cast<int>(where.size()),
                                            where.data()));
      if (first) verdict_counter = "lifecycle.cancelled";
    } else if ((deadline_after_polls_ > 0 && n >= deadline_after_polls_) ||
               (deadline_armed_ &&
                deadline_timer_.Seconds() >= deadline_seconds_)) {
      const bool first = !stats_.deadline_exceeded;
      stats_.deadline_exceeded = true;
      verdict = Status::DeadlineExceeded(
          StrFormat("deadline exceeded (at %.*s)",
                    static_cast<int>(where.size()), where.data()));
      if (first) verdict_counter = "lifecycle.deadline_exceeded";
    }
  }
  if (!verdict_counter.empty()) {
    BookEvent(verdict_counter.c_str(),
              verdict.code() == StatusCode::kCancelled ? "cancel"
                                                       : "deadline",
              verdict.message());
  }
  return verdict;
}

bool QueryLifecycle::ConsumeSuspend() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++suspend_checks_;
    const bool fire =
        suspend_requested_ ||
        (suspend_at_check_ > 0 && suspend_checks_ == suspend_at_check_);
    if (!fire) return false;
    suspend_requested_ = false;
    suspend_at_check_ = 0;  // one-shot
    ++stats_.suspends;
  }
  // Trace only: suspension must not perturb the query's counter registry
  // (suspended-and-resumed runs are compared counter-for-counter against
  // uninterrupted ones).
  if (TraceSession* trace = ActiveTraceSession()) {
    trace->Instant("suspend", "barrier checkpoint");
  }
  return true;
}

void QueryLifecycle::BookResume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.resumes;
  }
  if (TraceSession* trace = ActiveTraceSession()) {
    trace->Instant("resume", "barrier checkpoint");
  }
}

void QueryLifecycle::BookWatchdogTrip() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.watchdog_trips;
}

bool QueryLifecycle::cancel_requested() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cancel_requested_;
}

LifecycleStats QueryLifecycle::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  LifecycleStats s = stats_;
  s.polls = polls_.load(std::memory_order_relaxed);
  return s;
}

std::string LifecycleSectionText(const LifecycleStats& stats) {
  std::ostringstream os;
  os << "lifecycle:\n";
  os << "  polls: " << stats.polls << "\n";
  if (stats.suspends > 0 || stats.resumes > 0) {
    os << "  suspends: " << stats.suspends << "  resumes: " << stats.resumes
       << "\n";
  }
  if (stats.watchdog_trips > 0) {
    os << "  watchdog_trips: " << stats.watchdog_trips << "\n";
  }
  if (stats.cancelled) os << "  cancelled: true\n";
  if (stats.deadline_exceeded) os << "  deadline_exceeded: true\n";
  return os.str();
}

}  // namespace ptp
