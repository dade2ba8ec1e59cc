#ifndef PTP_OBS_TRACE_H_
#define PTP_OBS_TRACE_H_

#include <array>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/timer.h"
#include "runtime/thread_pool.h"

namespace ptp {

/// Track (Chrome trace "tid") numbering convention for the simulated
/// cluster: track 0 is the coordinator (shuffles, planning, logging);
/// logical worker w gets track w + 1 — regardless of which OS thread of the
/// runtime pool executed it, so the timeline always shows the cluster's
/// view, not the pool's. With --threads=1 spans on different tracks never
/// overlap (the serialized schedule); with more threads they genuinely do.
inline constexpr int kCoordinatorTrack = 0;
constexpr int WorkerTrack(int worker) { return worker + 1; }

/// One Chrome/Perfetto trace event. Phases follow the trace-event format:
/// B/E duration spans, X complete spans (with duration), C counters,
/// i instants, M metadata (track names), s/t/f flow arrows.
struct TraceEvent {
  enum class Phase : char {
    kBegin = 'B',
    kEnd = 'E',
    kComplete = 'X',
    kCounter = 'C',
    kInstant = 'i',
    kMetadata = 'M',
    kFlowStart = 's',
    kFlowStep = 't',
    kFlowEnd = 'f',
  };
  Phase phase;
  std::string name;
  double ts_us = 0;    // microseconds since session start
  int track = kCoordinatorTrack;
  double value = 0;    // kCounter: counter value; kComplete: duration (us)
  std::string detail;  // kInstant/kMetadata: free-form payload
  uint64_t flow_id = 0;  // kFlow*: events with one id form one flow
};

/// Records trace events and serializes them as Chrome trace-event JSON
/// (load the file in https://ui.perfetto.dev or chrome://tracing).
///
/// Recording is opt-in per process: instrumentation sites hold no session
/// of their own and consult ActiveTraceSession(), so the disabled fast path
/// is a single branch on a nullptr (see bench/micro_trace.cc).
///
/// Thread safety: each runtime pool thread records into its own event
/// buffer without locking; other threads append to the base buffer under a
/// mutex. Readers (events(), the JSON writers) flush the per-thread buffers
/// into the base buffer and sort by timestamp; flushing must not overlap a
/// running parallel region — in the engine reads happen on the coordinator
/// after ParallelFor returned.
class TraceSession {
 public:
  TraceSession();

  void BeginSpan(std::string_view name, int track);
  void EndSpan(std::string_view name, int track);
  /// A span known only after the fact: starts `duration_us` before now.
  void CompleteSpan(std::string_view name, int track, double duration_us);
  /// Samples a named counter (rendered as a stacked chart by the viewers).
  void Counter(std::string_view name, double value,
               int track = kCoordinatorTrack);
  /// Zero-duration marker with a free-form payload.
  void Instant(std::string_view name, std::string_view detail,
               int track = kCoordinatorTrack);
  /// Names a track in the viewer ("worker 3", "coordinator").
  void NameTrack(int track, std::string_view name);

  /// Flow-event arrows (Chrome phases s/t/f): events sharing one `id` form
  /// a directed flow the viewers draw as arrows between the slices that
  /// enclose them — the serving layer emits one flow per request to stitch
  /// its submit span to every execution span it later gets (docs/
  /// OBSERVABILITY.md, "Fleet telemetry"). Each flow event binds to the
  /// slice enclosing it on `track` at the emission timestamp, so emit them
  /// while the owning span is open. The end event carries the enclosing-
  /// slice binding point ("bp":"e") the viewers expect.
  /// `ts_rewind_us` backdates the event so it lands inside an enclosing
  /// after-the-fact CompleteSpan.
  void FlowStart(std::string_view name, uint64_t id, int track,
                 double ts_rewind_us = 0);
  void FlowStep(std::string_view name, uint64_t id, int track,
                double ts_rewind_us = 0);
  void FlowEnd(std::string_view name, uint64_t id, int track,
               double ts_rewind_us = 0);

  /// All recorded events, flushed from the per-thread buffers and ordered
  /// by timestamp.
  const std::vector<TraceEvent>& events() const;
  /// Microseconds since the session was constructed.
  double ElapsedMicros() const;
  /// Drops all recorded events (the clock keeps running).
  void Clear();

  void WriteJson(std::ostream& os) const;
  std::string ToJson() const;
  Status WriteJsonFile(const std::string& path) const;

 private:
  /// Appends to the calling thread's buffer. `ts_rewind_us` backdates the
  /// event (CompleteSpan's after-the-fact spans); `flow_id` tags flow
  /// events.
  void Push(TraceEvent::Phase phase, std::string_view name, int track,
            double value, std::string_view detail, double ts_rewind_us = 0,
            uint64_t flow_id = 0);
  void FlushLocked() const;

  Timer timer_;
  mutable std::mutex mu_;  // guards events_ and buffer flushing
  mutable std::vector<TraceEvent> events_;
  mutable std::array<std::vector<TraceEvent>, runtime::kMaxThreads> buffers_;
};

/// The calling thread's recording session (runtime::QueryContext::trace),
/// or nullptr when tracing is off. While a session is active, emitted
/// PTP_LOG lines are mirrored onto the coordinator track as instant events.
inline TraceSession* ActiveTraceSession() {
  return runtime::CurrentQueryContext().trace;
}

/// RAII span against the active session. When tracing is disabled the
/// constructor is one branch and the destructor another; no allocation, no
/// event. `name` must outlive the span (labels at call sites do).
class Span {
 public:
  Span(std::string_view name, int track)
      : Span(ActiveTraceSession(), name, track) {}
  Span(TraceSession* session, std::string_view name, int track)
      : session_(session), name_(name), track_(track) {
    if (session_ != nullptr) session_->BeginSpan(name_, track_);
  }
  ~Span() {
    if (session_ != nullptr) session_->EndSpan(name_, track_);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  TraceSession* session_;
  std::string_view name_;
  int track_;
};

/// Appends `s` to `out` with JSON string escaping (no surrounding quotes).
void AppendJsonEscaped(std::string* out, std::string_view s);
/// "quoted and escaped"
std::string JsonQuote(std::string_view s);

}  // namespace ptp

#endif  // PTP_OBS_TRACE_H_
