#ifndef PTP_RUNTIME_THREAD_POOL_H_
#define PTP_RUNTIME_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"

namespace ptp {

class CounterRegistry;
class FaultInjector;
class QueryLifecycle;
class QueryProfile;
class ResourceMeter;
class TraceSession;

namespace runtime {

/// Hard cap on pool sizes, so observability sinks can size fixed per-thread
/// shard arrays once instead of resizing them under concurrent writers.
inline constexpr int kMaxThreads = 128;

/// Index of the calling pool worker thread in [0, num_threads), or -1 when
/// called from a thread that is not executing a pool task. During an inline
/// (single-threaded) ParallelFor the calling thread temporarily reports
/// index 0, so instrumented code sees a consistent "inside a parallel
/// region" view regardless of the thread count.
int CurrentThreadIndex();

/// The per-query sinks a thread publishes into: counter registry, trace
/// session, query profile, resource meter, fault injector and query
/// lifecycle. A nullptr field disables that sink, so every hot-path site
/// reads its field through one inline getter (ActiveCounterRegistry(), ...)
/// and pays a single nullptr branch when it is off.
///
/// The context is thread-local: a context installed on one coordinator
/// thread is invisible to other coordinator threads, which is what keeps
/// concurrently-served queries from cross-charging each other's sinks.
/// ParallelFor copies the caller's context into the batch, and every pool
/// thread that joins the batch installs it while it claims the batch's
/// tasks (restoring the pool thread's own context afterwards), so worker
/// bodies see the submitting query's sinks no matter which OS thread runs
/// them.
struct QueryContext {
  CounterRegistry* counters = nullptr;
  TraceSession* trace = nullptr;
  QueryProfile* profile = nullptr;
  ResourceMeter* meter = nullptr;
  FaultInjector* faults = nullptr;
  QueryLifecycle* lifecycle = nullptr;

  bool operator==(const QueryContext&) const = default;
};

namespace internal {
inline thread_local QueryContext current_query_context;
}  // namespace internal

/// The calling thread's installed context.
inline const QueryContext& CurrentQueryContext() {
  return internal::current_query_context;
}

/// Installs `context` on the calling thread for the scope's lifetime and
/// restores the previous context on destruction, on every exit path. The
/// install replaces the whole context; a caller that wants to keep an
/// outer sink copies CurrentQueryContext() and overrides one field, and
/// `ScopedQueryContext detached{QueryContext{}}` turns every sink off.
///
/// New code installs sinks only through this scope. Two field setters
/// remain, SetActiveCounterRegistry and SetActiveResourceMeter, which
/// exchange one field of the current context and return the previous
/// value: the benchmark driver benchmark/ptpbench.cc calls them, and it is
/// kept unchanged so its numbers stay comparable across versions.
class ScopedQueryContext {
 public:
  explicit ScopedQueryContext(const QueryContext& context)
      : saved_(std::exchange(internal::current_query_context, context)) {}
  ~ScopedQueryContext() { internal::current_query_context = saved_; }

  ScopedQueryContext(const ScopedQueryContext&) = delete;
  ScopedQueryContext& operator=(const ScopedQueryContext&) = delete;

 private:
  QueryContext saved_;
};

/// Fixed-size, work-stealing-free thread pool executing deterministic
/// fork-join batches.
///
/// The only scheduling primitive is ParallelFor(n, body): body(i) runs
/// exactly once for every i in [0, n), the caller blocks until all indices
/// finished, and every index runs regardless of failures elsewhere in the
/// batch (no early exit — see the determinism contract in
/// docs/RUNTIME.md). Indices are claimed from the batch's atomic counter,
/// so which *thread* runs an index is nondeterministic, but as long as
/// body(i) only writes to index-i state the observable outcome is
/// independent of the thread count.
///
/// Several batches may be open at once (one per concurrent caller). The
/// pool keeps them in a FIFO: a free pool thread joins the oldest open
/// batch, claims its indices until none are left, then moves on to the
/// next one. So threads that would idle while a batch's slowest tasks
/// finish serve a neighbour's batch instead. A pool thread still runs one
/// task at a time, which keeps per-thread sink shards valid.
///
/// Error aggregation is first-error-wins by *lowest index*, not by wall
/// clock: if body(3) and body(7) both fail, the batch reports index 3's
/// error no matter which one failed first in real time. Exceptions
/// propagate the same way (the lowest-index exception is rethrown in the
/// caller) and take precedence over a Status error at a higher index.
///
/// Nested batches are rejected: calling ParallelFor from inside a pool task
/// returns an Internal error without running anything. Rejecting nesting
/// keeps the no-deadlock proof trivial: no task waits on another batch, so
/// every open batch drains however the threads are shared.
class ThreadPool {
 public:
  /// Spawns `num_threads` worker threads (clamped to [1, kMaxThreads]).
  /// A pool of one thread spawns nothing and runs batches inline on the
  /// calling thread, in index order.
  explicit ThreadPool(int num_threads);
  /// Drains and joins. No batch may be in flight.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Runs body(i) for every i in [0, n); blocks until all complete.
  /// Returns OK, or the error of the lowest failing index. Rethrows the
  /// lowest-index exception, if any. Concurrent callers' batches share the
  /// pool oldest first; each caller waits only for its own batch.
  Status ParallelFor(int n, const std::function<Status(int)>& body);

 private:
  struct Batch {
    int n = 0;
    const std::function<Status(int)>* body = nullptr;
    std::atomic<int> next{0};
    std::atomic<int> done{0};
    std::vector<Status>* statuses = nullptr;
    std::vector<std::exception_ptr>* exceptions = nullptr;
    /// The submitting thread's context, installed by each pool thread
    /// while it claims this batch's tasks.
    QueryContext context;
  };

  void WorkerMain(int index);
  /// Claims and runs `batch`'s indices until none are left unclaimed.
  void RunBatch(Batch* batch);
  static Status Finish(const std::vector<Status>& statuses,
                       const std::vector<std::exception_ptr>& exceptions);

  const int num_threads_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  bool shutdown_ = false;
  /// Open batches, oldest first. Reference-counted because a pool thread
  /// may still touch a batch after its caller returned.
  std::deque<std::shared_ptr<Batch>> open_;
  std::vector<std::thread> threads_;
};

}  // namespace runtime
}  // namespace ptp

#endif  // PTP_RUNTIME_THREAD_POOL_H_
