#include "runtime/thread_pool.h"

#include <algorithm>

namespace ptp {
namespace runtime {
namespace {

thread_local int g_thread_index = -1;

/// Scoped assignment of the calling thread's pool index (used both by pool
/// worker threads for their whole lifetime and by the inline path for the
/// duration of one batch).
class ScopedThreadIndex {
 public:
  explicit ScopedThreadIndex(int index) : saved_(g_thread_index) {
    g_thread_index = index;
  }
  ~ScopedThreadIndex() { g_thread_index = saved_; }

 private:
  int saved_;
};

}  // namespace

int CurrentThreadIndex() { return g_thread_index; }

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::clamp(num_threads, 1, kMaxThreads)) {
  if (num_threads_ == 1) return;  // inline pool: no threads to spawn
  threads_.reserve(static_cast<size_t>(num_threads_));
  for (int i = 0; i < num_threads_; ++i) {
    threads_.emplace_back([this, i] { WorkerMain(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::WorkerMain(int index) {
  ScopedThreadIndex scoped(index);
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [&] { return shutdown_ || !open_.empty(); });
    if (shutdown_) return;
    std::shared_ptr<Batch> batch = open_.front();
    lock.unlock();
    {
      // Run under the submitting thread's context so worker bodies see the
      // same active sinks (trace/counters/meter/...) as the coordinator
      // that opened the batch.
      ScopedQueryContext context(batch->context);
      RunBatch(batch.get());
    }
    // Every index is claimed: retire the batch (unless another thread that
    // also found it exhausted already did) so threads move on to the next.
    lock.lock();
    if (!open_.empty() && open_.front() == batch) open_.pop_front();
  }
}

void ThreadPool::RunBatch(Batch* batch) {
  while (true) {
    const int i = batch->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= batch->n) break;
    const size_t idx = static_cast<size_t>(i);
    try {
      (*batch->statuses)[idx] = (*batch->body)(i);
    } catch (...) {
      (*batch->exceptions)[idx] = std::current_exception();
    }
    if (batch->done.fetch_add(1, std::memory_order_acq_rel) + 1 == batch->n) {
      std::lock_guard<std::mutex> lock(mu_);
      done_cv_.notify_all();
    }
  }
}

Status ThreadPool::Finish(const std::vector<Status>& statuses,
                          const std::vector<std::exception_ptr>& exceptions) {
  for (size_t i = 0; i < statuses.size(); ++i) {
    if (exceptions[i] != nullptr) std::rethrow_exception(exceptions[i]);
    if (!statuses[i].ok()) return statuses[i];
  }
  return Status::OK();
}

Status ThreadPool::ParallelFor(int n, const std::function<Status(int)>& body) {
  if (n <= 0) return Status::OK();
  if (g_thread_index >= 0) {
    return Status::Internal(
        "nested ParallelFor: the runtime supports exactly one level of "
        "parallelism (see docs/RUNTIME.md)");
  }

  std::vector<Status> statuses(static_cast<size_t>(n));
  std::vector<std::exception_ptr> exceptions(static_cast<size_t>(n));

  if (threads_.empty() || n == 1) {
    // Inline path: index order, still running every index (a failure at
    // index i must not change whether index i+1 runs — the parallel path
    // cannot early-exit either, and the two must stay bit-identical).
    ScopedThreadIndex scoped(0);
    for (int i = 0; i < n; ++i) {
      const size_t idx = static_cast<size_t>(i);
      try {
        statuses[idx] = body(i);
      } catch (...) {
        exceptions[idx] = std::current_exception();
      }
    }
    return Finish(statuses, exceptions);
  }

  auto batch = std::make_shared<Batch>();
  batch->n = n;
  batch->body = &body;
  batch->context = CurrentQueryContext();
  batch->statuses = &statuses;
  batch->exceptions = &exceptions;
  {
    std::lock_guard<std::mutex> lock(mu_);
    open_.push_back(batch);
  }
  work_cv_.notify_all();
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] {
      return batch->done.load(std::memory_order_acquire) == n;
    });
  }
  return Finish(statuses, exceptions);
}

}  // namespace runtime
}  // namespace ptp
