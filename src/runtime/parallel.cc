#include "runtime/parallel.h"

#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "common/logging.h"

namespace ptp {
namespace runtime {
namespace {

std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;  // guarded by g_pool_mu
int g_requested_threads = 0;         // 0 = auto; guarded by g_pool_mu

int ResolveAuto() {
  if (const char* env = std::getenv("PTP_THREADS")) {
    const int n = std::atoi(env);
    if (n >= 1) return n;
    if (env[0] != '\0') {
      PTP_LOG(Warning) << "ignoring invalid PTP_THREADS=\"" << env << "\"";
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace

void SetThreads(int n) {
  std::unique_ptr<ThreadPool> old;
  {
    std::lock_guard<std::mutex> lock(g_pool_mu);
    g_requested_threads = n;
    old = std::move(g_pool);  // joined outside the lock
  }
}

int Threads() { return GlobalPool().num_threads(); }

ThreadPool& GlobalPool() {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (g_pool == nullptr) {
    const int n =
        g_requested_threads >= 1 ? g_requested_threads : ResolveAuto();
    g_pool = std::make_unique<ThreadPool>(n);
  }
  return *g_pool;
}

Status ParallelFor(int n, const std::function<Status(int)>& body) {
  return GlobalPool().ParallelFor(n, body);
}

}  // namespace runtime
}  // namespace ptp
