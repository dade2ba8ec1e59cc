#ifndef PTP_COMMON_LOGGING_H_
#define PTP_COMMON_LOGGING_H_

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>

namespace ptp {
namespace internal_logging {

/// Severity levels for PTP_LOG. kFatal aborts the process after logging.
enum class Severity { kInfo = 0, kWarning = 1, kError = 2, kFatal = 3 };

/// Parses "info" / "warning" / "error" / "fatal" (any case) or "0".."3".
/// Returns false (leaving *out untouched) on anything else.
bool ParseSeverity(std::string_view name, Severity* out);

/// Stream-style log sink; writes one line to stderr on destruction.
class LogMessage {
 public:
  LogMessage(Severity severity, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  Severity severity_;
  std::ostringstream stream_;
};

/// Minimum severity that is actually emitted; default kWarning so library
/// code stays quiet in tests and benches, overridable with the
/// PTP_LOG_LEVEL environment variable (read once, at first use). Returns
/// previous value.
Severity SetMinLogSeverity(Severity severity);
Severity MinLogSeverity();

/// Observer for emitted log lines (lines below MinLogSeverity never reach
/// it). The first TraceSession registers one so log lines show up as
/// instant events on the active session's timeline; nullptr uninstalls.
/// Returns the previous sink.
using LogSink = void (*)(Severity severity, const std::string& message);
LogSink SetLogSink(LogSink sink);

}  // namespace internal_logging

#define PTP_LOG(severity)                                   \
  ::ptp::internal_logging::LogMessage(                      \
      ::ptp::internal_logging::Severity::k##severity, __FILE__, __LINE__)

/// Invariant check, enabled in all build modes (cheap conditions only).
#define PTP_CHECK(cond)                                           \
  if (!(cond))                                                    \
  PTP_LOG(Fatal) << "Check failed: " #cond " "

#define PTP_CHECK_EQ(a, b) PTP_CHECK((a) == (b)) << "(" << (a) << " vs " << (b) << ") "
#define PTP_CHECK_NE(a, b) PTP_CHECK((a) != (b)) << "(" << (a) << " vs " << (b) << ") "
#define PTP_CHECK_LT(a, b) PTP_CHECK((a) < (b)) << "(" << (a) << " vs " << (b) << ") "
#define PTP_CHECK_LE(a, b) PTP_CHECK((a) <= (b)) << "(" << (a) << " vs " << (b) << ") "
#define PTP_CHECK_GT(a, b) PTP_CHECK((a) > (b)) << "(" << (a) << " vs " << (b) << ") "
#define PTP_CHECK_GE(a, b) PTP_CHECK((a) >= (b)) << "(" << (a) << " vs " << (b) << ") "

/// Debug-only check; compiles away in NDEBUG builds.
#ifdef NDEBUG
#define PTP_DCHECK(cond) \
  if (false) PTP_LOG(Fatal)
#else
#define PTP_DCHECK(cond) PTP_CHECK(cond)
#endif

}  // namespace ptp

#endif  // PTP_COMMON_LOGGING_H_
