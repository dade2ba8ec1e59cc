// Micro-benchmarks for the observability layer (obs/trace.h, obs/counters.h).
//
// The design contract is that instrumentation compiled into hot paths costs
// one well-predicted branch while no session/registry is installed — compare
// BM_SpanDisabled / BM_CounterDisabled against BM_Baseline to verify, and
// the *Enabled variants to see the price of turning tracing on.

#include <benchmark/benchmark.h>

#include "obs/counters.h"
#include "obs/trace.h"

namespace ptp {
namespace {

void BM_Baseline(benchmark::State& state) {
  uint64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(++x);
  }
}
BENCHMARK(BM_Baseline);

void BM_SpanDisabled(benchmark::State& state) {
  runtime::ScopedQueryContext detached{runtime::QueryContext{}};
  for (auto _ : state) {
    Span span("bench.span", kCoordinatorTrack);
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_SpanDisabled);

void BM_SpanEnabled(benchmark::State& state) {
  TraceSession session;
  runtime::ScopedQueryContext sinks({.trace = &session});
  size_t iterations = 0;
  for (auto _ : state) {
    {
      Span span("bench.span", kCoordinatorTrack);
      benchmark::DoNotOptimize(&span);
    }
    // Keep the event buffer bounded so we measure appends, not reallocs of
    // a multi-gigabyte vector.
    if (++iterations % (1 << 16) == 0) session.Clear();
  }
}
BENCHMARK(BM_SpanEnabled);

void BM_CounterDisabled(benchmark::State& state) {
  runtime::ScopedQueryContext detached{runtime::QueryContext{}};
  for (auto _ : state) {
    // The idiom every instrumentation site uses.
    if (CounterRegistry* reg = ActiveCounterRegistry()) {
      reg->Add("bench.counter", 1);
    }
  }
}
BENCHMARK(BM_CounterDisabled);

void BM_CounterEnabledByName(benchmark::State& state) {
  CounterRegistry registry;
  runtime::ScopedQueryContext sinks({.counters = &registry});
  for (auto _ : state) {
    if (CounterRegistry* reg = ActiveCounterRegistry()) {
      reg->Add("bench.counter", 1);
    }
  }
}
BENCHMARK(BM_CounterEnabledByName);

void BM_CounterEnabledCachedCell(benchmark::State& state) {
  CounterRegistry registry;
  runtime::ScopedQueryContext sinks({.counters = &registry});
  // Hot loops should hoist the name lookup: Counter() returns a stable cell.
  uint64_t* cell = registry.Counter("bench.counter");
  for (auto _ : state) {
    benchmark::DoNotOptimize(++*cell);
  }
}
BENCHMARK(BM_CounterEnabledCachedCell);

}  // namespace
}  // namespace ptp
