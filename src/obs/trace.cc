#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <ostream>
#include <sstream>

#include "common/logging.h"
#include "common/str_util.h"

namespace ptp {
namespace {

const char* LogEventName(internal_logging::Severity severity) {
  switch (severity) {
    case internal_logging::Severity::kInfo:
      return "log.info";
    case internal_logging::Severity::kWarning:
      return "log.warning";
    case internal_logging::Severity::kError:
      return "log.error";
    case internal_logging::Severity::kFatal:
      return "log.fatal";
  }
  return "log";
}

// Mirrors emitted log lines onto the logging thread's active trace session
// (a nullptr branch when that thread has none).
void TraceLogSink(internal_logging::Severity severity,
                  const std::string& message) {
  if (TraceSession* session = ActiveTraceSession()) {
    session->Instant(LogEventName(severity), message, kCoordinatorTrack);
  }
}

}  // namespace

TraceSession::TraceSession() {
  // Registered once, by the first session: the sink resolves the logging
  // thread's active session per line, so it never needs uninstalling.
  static std::once_flag log_mirror;
  std::call_once(log_mirror,
                 [] { internal_logging::SetLogSink(&TraceLogSink); });
}

double TraceSession::ElapsedMicros() const { return timer_.Seconds() * 1e6; }

void TraceSession::Push(TraceEvent::Phase phase, std::string_view name,
                        int track, double value, std::string_view detail,
                        double ts_rewind_us, uint64_t flow_id) {
  TraceEvent event;
  event.phase = phase;
  event.name.assign(name.data(), name.size());
  event.ts_us = std::max(0.0, ElapsedMicros() - std::max(0.0, ts_rewind_us));
  event.track = track;
  event.value = value;
  event.detail.assign(detail.data(), detail.size());
  event.flow_id = flow_id;
  const int slot = runtime::CurrentThreadIndex();
  if (slot >= 0 && slot < runtime::kMaxThreads) {
    // Pool worker: exclusive buffer, no lock.
    buffers_[static_cast<size_t>(slot)].push_back(std::move(event));
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(event));
}

void TraceSession::BeginSpan(std::string_view name, int track) {
  Push(TraceEvent::Phase::kBegin, name, track, 0, {});
}

void TraceSession::EndSpan(std::string_view name, int track) {
  Push(TraceEvent::Phase::kEnd, name, track, 0, {});
}

void TraceSession::CompleteSpan(std::string_view name, int track,
                                double duration_us) {
  // The timestamp is rewound so the span covers the work that just
  // finished.
  Push(TraceEvent::Phase::kComplete, name, track, duration_us, {},
       /*ts_rewind_us=*/duration_us);
}

void TraceSession::Counter(std::string_view name, double value, int track) {
  Push(TraceEvent::Phase::kCounter, name, track, value, {});
}

void TraceSession::Instant(std::string_view name, std::string_view detail,
                           int track) {
  Push(TraceEvent::Phase::kInstant, name, track, 0, detail);
}

void TraceSession::NameTrack(int track, std::string_view name) {
  Push(TraceEvent::Phase::kMetadata, "thread_name", track, 0, name);
}

void TraceSession::FlowStart(std::string_view name, uint64_t id, int track,
                             double ts_rewind_us) {
  Push(TraceEvent::Phase::kFlowStart, name, track, 0, {}, ts_rewind_us, id);
}

void TraceSession::FlowStep(std::string_view name, uint64_t id, int track,
                            double ts_rewind_us) {
  Push(TraceEvent::Phase::kFlowStep, name, track, 0, {}, ts_rewind_us, id);
}

void TraceSession::FlowEnd(std::string_view name, uint64_t id, int track,
                           double ts_rewind_us) {
  Push(TraceEvent::Phase::kFlowEnd, name, track, 0, {}, ts_rewind_us, id);
}

void TraceSession::FlushLocked() const {
  bool flushed = false;
  for (std::vector<TraceEvent>& buf : buffers_) {
    if (buf.empty()) continue;
    events_.insert(events_.end(), std::make_move_iterator(buf.begin()),
                   std::make_move_iterator(buf.end()));
    buf.clear();
    flushed = true;
  }
  if (!flushed) return;
  // Stable sort keeps the per-thread append order for equal timestamps, so
  // B/E pairs emitted back-to-back by one thread stay properly nested.
  std::stable_sort(events_.begin(), events_.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_us < b.ts_us;
                   });
}

const std::vector<TraceEvent>& TraceSession::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  FlushLocked();
  return events_;
}

void TraceSession::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  for (std::vector<TraceEvent>& buf : buffers_) buf.clear();
}

void AppendJsonEscaped(std::string* out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

std::string JsonQuote(std::string_view s) {
  std::string out = "\"";
  AppendJsonEscaped(&out, s);
  out += "\"";
  return out;
}

void TraceSession::WriteJson(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  FlushLocked();
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events_) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\":" << JsonQuote(e.name) << ",\"ph\":\""
       << static_cast<char>(e.phase) << "\",\"ts\":"
       << StrFormat("%.3f", e.ts_us) << ",\"pid\":0,\"tid\":" << e.track;
    switch (e.phase) {
      case TraceEvent::Phase::kComplete:
        os << ",\"dur\":" << StrFormat("%.3f", e.value);
        break;
      case TraceEvent::Phase::kCounter:
        os << ",\"args\":{\"value\":" << StrFormat("%.17g", e.value) << "}";
        break;
      case TraceEvent::Phase::kInstant:
        os << ",\"s\":\"t\",\"args\":{\"message\":" << JsonQuote(e.detail)
           << "}";
        break;
      case TraceEvent::Phase::kMetadata:
        os << ",\"args\":{\"name\":" << JsonQuote(e.detail) << "}";
        break;
      case TraceEvent::Phase::kFlowStart:
      case TraceEvent::Phase::kFlowStep:
      case TraceEvent::Phase::kFlowEnd:
        // Flow events need a category and an id; the end event binds to
        // the enclosing slice ("bp":"e") so the arrow lands inside it.
        os << ",\"cat\":\"flow\",\"id\":"
           << StrFormat("\"0x%llx\"",
                        static_cast<unsigned long long>(e.flow_id));
        if (e.phase == TraceEvent::Phase::kFlowEnd) os << ",\"bp\":\"e\"";
        break;
      default:
        break;
    }
    os << "}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

std::string TraceSession::ToJson() const {
  std::ostringstream os;
  WriteJson(os);
  return os.str();
}

Status TraceSession::WriteJsonFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return Status::InvalidArgument("cannot open trace file: " + path);
  }
  WriteJson(out);
  out.flush();
  if (!out) {
    return Status::Internal("failed writing trace file: " + path);
  }
  return Status::OK();
}

}  // namespace ptp
