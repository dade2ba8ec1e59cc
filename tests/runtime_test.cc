// Unit tests for the deterministic runtime pool (src/runtime/): start/stop,
// first-error-wins aggregation, exception propagation, nested-region
// rejection, and the contract the engine relies on — identical outcomes at
// every thread count because every index runs and writes only its own state.
// Also the per-query context: ScopedQueryContext restores on every exit
// path, and ParallelFor carries the installing thread's context to the pool.
// Finally concurrent batches: a batch opened behind a stalled one still
// completes, and interleaved batches keep their own context and errors.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/lifecycle.h"
#include "fault/fault.h"
#include "gtest/gtest.h"
#include "obs/counters.h"
#include "obs/profile.h"
#include "obs/resource.h"
#include "obs/trace.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"

namespace ptp {
namespace runtime {
namespace {

TEST(ThreadPoolTest, StartStopRepeatedly) {
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.num_threads(), threads);
    std::vector<int> out(64, 0);
    Status s = pool.ParallelFor(64, [&](int i) {
      out[static_cast<size_t>(i)] = i * i;
      return Status::OK();
    });
    ASSERT_TRUE(s.ok()) << s.ToString();
    for (int i = 0; i < 64; ++i) EXPECT_EQ(out[static_cast<size_t>(i)], i * i);
  }  // ~ThreadPool joins; leaving scope repeatedly must not hang or leak.
}

TEST(ThreadPoolTest, ClampsThreadCount) {
  ThreadPool zero(0);
  EXPECT_EQ(zero.num_threads(), 1);
  ThreadPool huge(kMaxThreads + 100);
  EXPECT_EQ(huge.num_threads(), kMaxThreads);
}

TEST(ThreadPoolTest, EmptyRangeIsOk) {
  ThreadPool pool(4);
  EXPECT_TRUE(pool.ParallelFor(0, [](int) { return Status::OK(); }).ok());
}

TEST(ThreadPoolTest, CurrentThreadIndexScoping) {
  EXPECT_EQ(CurrentThreadIndex(), -1);
  ThreadPool pool(3);
  std::vector<int> seen(16, -2);
  Status s = pool.ParallelFor(16, [&](int i) {
    seen[static_cast<size_t>(i)] = CurrentThreadIndex();
    return Status::OK();
  });
  ASSERT_TRUE(s.ok());
  for (int idx : seen) {
    EXPECT_GE(idx, 0);
    EXPECT_LT(idx, 3);
  }
  EXPECT_EQ(CurrentThreadIndex(), -1);
}

TEST(ThreadPoolTest, FirstErrorByIndexWinsAndEveryIndexRuns) {
  for (int threads : {1, 8}) {
    ThreadPool pool(threads);
    std::atomic<int> ran{0};
    Status s = pool.ParallelFor(32, [&](int i) {
      ran.fetch_add(1);
      if (i == 7) return Status::Internal("error at 7");
      if (i == 21) return Status::InvalidArgument("error at 21");
      return Status::OK();
    });
    // No early exit: a failing index must not stop the others (the engine
    // counts on complete per-index state), and the lowest failing index
    // decides the returned status at every thread count.
    EXPECT_EQ(ran.load(), 32) << "threads=" << threads;
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kInternal);
    EXPECT_EQ(s.message(), "error at 7");
  }
}

TEST(ThreadPoolTest, ExceptionPropagates) {
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    EXPECT_THROW(
        {
          (void)pool.ParallelFor(8, [&](int i) -> Status {
            if (i == 3) throw std::runtime_error("boom");
            return Status::OK();
          });
        },
        std::runtime_error)
        << "threads=" << threads;
    // The pool must survive an exceptional batch.
    EXPECT_TRUE(pool.ParallelFor(4, [](int) { return Status::OK(); }).ok());
  }
}

TEST(ThreadPoolTest, NestedParallelForRejected) {
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    std::vector<Status> inner(4);
    Status s = pool.ParallelFor(4, [&](int i) {
      inner[static_cast<size_t>(i)] =
          ParallelFor(2, [](int) { return Status::OK(); });
      return Status::OK();
    });
    ASSERT_TRUE(s.ok()) << s.ToString();
    for (const Status& st : inner) {
      EXPECT_EQ(st.code(), StatusCode::kInternal) << "threads=" << threads;
    }
  }
}

TEST(ParallelApiTest, SetThreadsControlsGlobalPool) {
  SetThreads(3);
  EXPECT_EQ(Threads(), 3);
  EXPECT_EQ(GlobalPool().num_threads(), 3);
  SetThreads(1);
  EXPECT_EQ(Threads(), 1);
  SetThreads(0);  // back to auto for other tests
  EXPECT_GE(Threads(), 1);
}

TEST(ParallelApiTest, DeterministicAcrossThreadCounts) {
  // The engine's contract: a body that writes only index-i state produces
  // bit-identical results at --threads=1 and --threads=8.
  auto run = [](int threads) {
    SetThreads(threads);
    std::vector<uint64_t> out(257, 0);
    Status s = ParallelFor(257, [&](int i) {
      uint64_t h = static_cast<uint64_t>(i) * 0x9e3779b97f4a7c15ull + 1;
      for (int k = 0; k < 100; ++k) h ^= h << 13, h ^= h >> 7, h ^= h << 17;
      out[static_cast<size_t>(i)] = h;
      return Status::OK();
    });
    EXPECT_TRUE(s.ok()) << s.ToString();
    return out;
  };
  const std::vector<uint64_t> serial = run(1);
  const std::vector<uint64_t> parallel = run(8);
  SetThreads(0);
  EXPECT_EQ(serial, parallel);
}

// One of each sink, so a context can name six distinct live objects.
struct Sinks {
  CounterRegistry counters;
  TraceSession trace;
  QueryProfile profile;
  ResourceMeter meter;
  FaultInjector faults{FaultPlan{}};
  QueryLifecycle lifecycle;

  QueryContext Context() {
    return {&counters, &trace, &profile, &meter, &faults, &lifecycle};
  }
};

int InstallAndReturn(const QueryContext& context, bool early) {
  ScopedQueryContext scope(context);
  if (early) return 1;
  EXPECT_EQ(CurrentQueryContext(), context);
  return 2;
}

TEST(ScopedQueryContextTest, RestoresOnNormalExitEarlyReturnAndException) {
  Sinks outer_sinks, inner_sinks;
  const QueryContext outer = outer_sinks.Context();
  const QueryContext inner = inner_sinks.Context();
  ScopedQueryContext outer_scope(outer);

  EXPECT_EQ(InstallAndReturn(inner, /*early=*/false), 2);
  EXPECT_EQ(CurrentQueryContext(), outer);
  EXPECT_EQ(InstallAndReturn(inner, /*early=*/true), 1);
  EXPECT_EQ(CurrentQueryContext(), outer);
  EXPECT_THROW(
      {
        ScopedQueryContext scope(inner);
        throw std::runtime_error("body failed");
      },
      std::runtime_error);
  EXPECT_EQ(CurrentQueryContext(), outer);
}

TEST(ScopedQueryContextTest, NestedScopesRestoreInLifoOrder) {
  Sinks a, b;
  const QueryContext base = CurrentQueryContext();
  {
    ScopedQueryContext first(a.Context());
    {
      // Keep the outer sinks, override one field.
      QueryContext only_counters = CurrentQueryContext();
      only_counters.counters = &b.counters;
      ScopedQueryContext second(only_counters);
      EXPECT_EQ(ActiveCounterRegistry(), &b.counters);
      EXPECT_EQ(ActiveTraceSession(), &a.trace);
      {
        ScopedQueryContext third(b.Context());
        EXPECT_EQ(CurrentQueryContext(), b.Context());
      }
      EXPECT_EQ(CurrentQueryContext(), only_counters);
    }
    EXPECT_EQ(CurrentQueryContext(), a.Context());
  }
  EXPECT_EQ(CurrentQueryContext(), base);
}

TEST(ScopedQueryContextTest, ParallelForBodiesSeeTheInstallingThreadsContext) {
  Sinks sinks;
  const QueryContext installed = sinks.Context();
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    std::vector<QueryContext> seen(32);
    auto record = [&](int i) {
      seen[static_cast<size_t>(i)] = CurrentQueryContext();
      return Status::OK();
    };
    {
      ScopedQueryContext scope(installed);
      ASSERT_TRUE(pool.ParallelFor(32, record).ok());
      EXPECT_EQ(CurrentQueryContext(), installed);
    }
    for (const QueryContext& c : seen) EXPECT_EQ(c, installed) << threads;

    // The pool threads got their own (empty) context back after the batch:
    // a batch submitted with nothing installed sees nothing.
    std::fill(seen.begin(), seen.end(), installed);
    ASSERT_TRUE(pool.ParallelFor(32, record).ok());
    for (const QueryContext& c : seen) EXPECT_EQ(c, QueryContext{}) << threads;
  }
}

TEST(ScopedQueryContextTest, EmptyContextDetachesAllSixSinks) {
  Sinks sinks;
  ScopedQueryContext installed(sinks.Context());
  ASSERT_NE(ActiveCounterRegistry(), nullptr);
  {
    ScopedQueryContext detached{QueryContext{}};
    EXPECT_EQ(ActiveCounterRegistry(), nullptr);
    EXPECT_EQ(ActiveTraceSession(), nullptr);
    EXPECT_EQ(ActiveQueryProfile(), nullptr);
    EXPECT_EQ(ActiveResourceMeter(), nullptr);
    EXPECT_EQ(ActiveFaultInjector(), nullptr);
    EXPECT_EQ(ActiveQueryLifecycle(), nullptr);
  }
  EXPECT_EQ(CurrentQueryContext(), sinks.Context());
}

// A batch opened while an older batch's index 0 is stalled completes before
// the stall is released: the free pool threads finish the older batch's
// other indices and then serve the newer batch instead of waiting behind it.
TEST(ConcurrentBatchTest, LaterBatchCompletesWhileEarlierBatchStalls) {
  ThreadPool pool(4);
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::promise<void> stalled;
  Status first;
  std::thread first_caller([&] {
    first = pool.ParallelFor(8, [&](int i) {
      if (i != 0) return Status::OK();
      stalled.set_value();
      // Bounded, so a pool that serializes batches fails instead of hangs.
      if (released.wait_for(std::chrono::seconds(10)) !=
          std::future_status::ready) {
        return Status::DeadlineExceeded("index 0 was never released");
      }
      return Status::OK();
    });
  });
  stalled.get_future().wait();

  std::vector<int> out(16, 0);
  const Status second = pool.ParallelFor(16, [&](int i) {
    out[static_cast<size_t>(i)] = i + 1;
    return Status::OK();
  });
  release.set_value();
  first_caller.join();

  ASSERT_TRUE(second.ok()) << second.ToString();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(out[static_cast<size_t>(i)], i + 1);
  // The release came only after the second batch returned, so an OK first
  // batch proves the second one completed inside the stall.
  EXPECT_TRUE(first.ok()) << first.ToString();
}

// Two coordinator threads, each under its own context, run interleaved
// batches on one pool. Every body sees only its own coordinator's context,
// and every batch reports its own lowest-index error (rethrown, where the
// lowest failing index threw, ahead of a higher-index Status error).
TEST(ConcurrentBatchTest, InterleavedCoordinatorsKeepOwnContextAndErrors) {
  constexpr int kRounds = 24;
  constexpr int kTasks = 16;
  ThreadPool pool(4);
  Sinks sinks[2];
  std::atomic<int> foreign_context{0};
  std::atomic<int> wrong_outcome{0};
  auto coordinator = [&](int c) {
    const QueryContext own = sinks[c].Context();
    ScopedQueryContext scope(own);
    for (int round = 0; round < kRounds; ++round) {
      const int fail_at = (round + 5 * c) % (kTasks - 4);
      const bool throws = round % 3 == 2;
      const std::string tag =
          "coordinator " + std::to_string(c) + " index " +
          std::to_string(fail_at);
      try {
        const Status s = pool.ParallelFor(kTasks, [&](int i) -> Status {
          if (CurrentQueryContext() != own) foreign_context.fetch_add(1);
          // Uneven task lengths so the two coordinators' batches overlap.
          volatile uint64_t spin = 0;
          for (int k = 0; k < 2000 * (i % 4 + 1); ++k) spin = spin + k;
          if (throws && i == fail_at) throw std::runtime_error(tag);
          if (i == fail_at) return Status::Internal(tag);
          if (i == fail_at + 3) return Status::NotFound("higher index");
          return Status::OK();
        });
        if (throws || s.code() != StatusCode::kInternal || s.message() != tag) {
          wrong_outcome.fetch_add(1);
        }
      } catch (const std::runtime_error& e) {
        if (!throws || e.what() != tag) wrong_outcome.fetch_add(1);
      }
    }
  };
  std::thread a(coordinator, 0);
  std::thread b(coordinator, 1);
  a.join();
  b.join();
  EXPECT_EQ(foreign_context.load(), 0);
  EXPECT_EQ(wrong_outcome.load(), 0);
}

}  // namespace
}  // namespace runtime
}  // namespace ptp
