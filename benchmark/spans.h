// In-memory span log for the traced pass. Spans are recorded from the
// benchmark's own code around calls into the server and the engine's layer
// functions, kept in memory while the run measures, and written once at the
// end as Chrome trace-event JSON (open in https://ui.perfetto.dev).
#ifndef PTPBENCH_SPANS_H_
#define PTPBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace ptpbench {

using Clock = std::chrono::steady_clock;

inline double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  /// Records one finished span and returns its id (ids start at 1; parent 0
  /// means a root span). `request` ties together every span of one served
  /// request, or of one replayed plan. Thread-safe.
  uint64_t Add(const std::string& name, int track, Clock::time_point start,
               Clock::time_point end, const std::string& request,
               uint64_t parent) {
    const uint64_t id = Open(name, track, start, request, parent);
    Close(id, end);
    return id;
  }

  /// Opens a span whose end is not known yet, so that children can name it
  /// as their parent; Close() sets its end.
  uint64_t Open(const std::string& name, int track, Clock::time_point start,
                const std::string& request, uint64_t parent) {
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t id = spans_.size() + 1;
    spans_.push_back({name, track, Micros(start), 0, request, id, parent});
    return id;
  }
  void Close(uint64_t id, Clock::time_point end) {
    std::lock_guard<std::mutex> lock(mu_);
    Span& s = spans_[id - 1];
    s.dur_us = Micros(end) - s.start_us;
  }

  void NameTrack(int track, const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    track_names_[track] = name;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  /// Writes {"traceEvents": [...]}: one thread-name record per track, then
  /// one complete ("X") event per span whose args carry the request id, the
  /// span id and the parent span id.
  bool WriteChromeJson(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    if (!out.good()) return false;
    out << std::fixed << std::setprecision(3);  // microseconds to the ns
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const auto& [track, name] : track_names_) {
      out << (first ? "" : ",")
          << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":" << track
          << ",\"args\":{\"name\":" << ptp::JsonQuote(name) << "}}";
      first = false;
    }
    for (const Span& s : spans_) {
      out << (first ? "" : ",") << "\n{\"ph\":\"X\",\"name\":"
          << ptp::JsonQuote(s.name) << ",\"pid\":1,\"tid\":" << s.track
          << ",\"ts\":" << s.start_us << ",\"dur\":" << s.dur_us
          << ",\"args\":{\"request\":" << ptp::JsonQuote(s.request)
          << ",\"span\":" << s.id << ",\"parent\":" << s.parent << "}}";
      first = false;
    }
    out << "\n]}\n";
    return out.good();
  }

 private:
  struct Span {
    std::string name;
    int track;
    double start_us;
    double dur_us;
    std::string request;
    uint64_t id;
    uint64_t parent;
  };

  double Micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<int, std::string> track_names_;
};

}  // namespace ptpbench

#endif  // PTPBENCH_SPANS_H_
