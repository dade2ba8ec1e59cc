#ifndef PTP_RUNTIME_PARALLEL_H_
#define PTP_RUNTIME_PARALLEL_H_

#include <functional>

#include "common/status.h"
#include "runtime/thread_pool.h"

namespace ptp {
namespace runtime {

/// Sets the process-wide pool size used by the free ParallelFor. `n` <= 0
/// means "auto": the PTP_THREADS environment variable if set, otherwise
/// hardware_concurrency. Rebuilds the global pool (joining the old one);
/// must not be called while a parallel region is running. Benches surface
/// this as --threads=N (bench/bench_common.h).
void SetThreads(int n);

/// The resolved global pool size (resolves "auto" on first use).
int Threads();

/// The process-wide pool, created lazily at the configured size.
ThreadPool& GlobalPool();

/// Runs body(i) for every i in [0, n) on the global pool. See
/// ThreadPool::ParallelFor for the determinism and error contract. The W
/// logical workers of the simulated cluster are multiplexed onto
/// min(W, Threads()) OS threads; with Threads() == 1 the batch runs inline
/// in index order, bit-identical to the old sequential engine.
Status ParallelFor(int n, const std::function<Status(int)>& body);

}  // namespace runtime
}  // namespace ptp

#endif  // PTP_RUNTIME_PARALLEL_H_
