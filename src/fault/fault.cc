#include "fault/fault.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/rng.h"
#include "obs/counters.h"
#include "obs/trace.h"

namespace ptp {
namespace {

/// Counter suffix per kind: "fault.crash", "fault.drop", ...
const char* FaultCounterName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrashBefore:
      return "fault.crash";
    case FaultKind::kCrashDuring:
      return "fault.crashmid";
    case FaultKind::kOperatorError:
      return "fault.err";
    case FaultKind::kStragglerDelay:
      return "fault.slow";
    case FaultKind::kShuffleDrop:
      return "fault.drop";
    case FaultKind::kShuffleDup:
      return "fault.dup";
  }
  return "fault.unknown";
}

bool IsStageKind(FaultKind kind) {
  return kind == FaultKind::kCrashBefore || kind == FaultKind::kCrashDuring ||
         kind == FaultKind::kOperatorError ||
         kind == FaultKind::kStragglerDelay;
}

struct Cursor {
  std::string_view text;
  size_t pos = 0;

  bool done() const { return pos >= text.size(); }
  char peek() const { return text[pos]; }
  std::string_view TakeUntil(std::string_view stops) {
    size_t start = pos;
    while (!done() && stops.find(text[pos]) == std::string_view::npos) ++pos;
    return text.substr(start, pos - start);
  }
};

Status ParseInt(std::string_view key, std::string_view value, int* out) {
  if (value.empty()) {
    return Status::InvalidArgument("faults: empty value for '" +
                                   std::string(key) + "'");
  }
  int parsed = 0;
  for (char c : value) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("faults: bad integer '" +
                                     std::string(value) + "' for '" +
                                     std::string(key) + "'");
    }
    parsed = parsed * 10 + (c - '0');
  }
  *out = parsed;
  return Status::OK();
}

Status ParseDouble(std::string_view key, std::string_view value,
                   double* out) {
  char* end = nullptr;
  std::string buf(value);
  double parsed = std::strtod(buf.c_str(), &end);
  if (value.empty() || end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("faults: bad number '" + buf + "' for '" +
                                   std::string(key) + "'");
  }
  *out = parsed;
  return Status::OK();
}

/// Parses one `kind[@k=v,...]` event. `rand` events are expanded into
/// `plan->specs` directly; everything else appends a single spec.
Status ParseEvent(std::string_view event, FaultPlan* plan) {
  size_t at = event.find('@');
  std::string_view kind_tok =
      at == std::string_view::npos ? event : event.substr(0, at);

  bool is_rand = false;
  FaultSpec spec;
  if (kind_tok == "crash") {
    spec.kind = FaultKind::kCrashBefore;
  } else if (kind_tok == "crashmid") {
    spec.kind = FaultKind::kCrashDuring;
  } else if (kind_tok == "err") {
    spec.kind = FaultKind::kOperatorError;
  } else if (kind_tok == "slow") {
    spec.kind = FaultKind::kStragglerDelay;
  } else if (kind_tok == "drop") {
    spec.kind = FaultKind::kShuffleDrop;
  } else if (kind_tok == "dup") {
    spec.kind = FaultKind::kShuffleDup;
  } else if (kind_tok == "rand") {
    is_rand = true;
  } else {
    return Status::InvalidArgument("faults: unknown kind '" +
                                   std::string(kind_tok) + "'");
  }

  int rand_n = 1;
  uint64_t rand_seed = 0;
  int rand_workers = 16;

  if (at != std::string_view::npos) {
    Cursor cur{event.substr(at + 1)};
    while (true) {
      std::string_view key = cur.TakeUntil("=");
      if (cur.done()) {
        return Status::InvalidArgument("faults: missing '=' after '" +
                                       std::string(key) + "'");
      }
      ++cur.pos;  // '='
      // Labels may contain spaces and commas ("HCS R(x, y)"), so a
      // stage=/label= value runs to the end of the event and must come
      // last; every other value stops at the next ','.
      const bool is_label = !is_rand && (key == "stage" || key == "label");
      std::string_view value = cur.TakeUntil(is_label ? ";" : ",");
      if (is_rand) {
        if (key == "n") {
          PTP_RETURN_IF_ERROR(ParseInt(key, value, &rand_n));
        } else if (key == "seed") {
          int s = 0;
          PTP_RETURN_IF_ERROR(ParseInt(key, value, &s));
          rand_seed = static_cast<uint64_t>(s);
        } else if (key == "workers") {
          PTP_RETURN_IF_ERROR(ParseInt(key, value, &rand_workers));
        } else {
          return Status::InvalidArgument("faults: unknown rand key '" +
                                         std::string(key) + "'");
        }
      } else if (key == "stage" || key == "label") {
        spec.label = std::string(value);
      } else if (key == "site" || key == "x") {
        PTP_RETURN_IF_ERROR(ParseInt(key, value, &spec.site));
      } else if (key == "worker" || key == "w") {
        PTP_RETURN_IF_ERROR(ParseInt(key, value, &spec.worker));
      } else if (key == "attempt" || key == "a") {
        if (value == "*") {
          spec.attempt = FaultSpec::kEveryAttempt;
        } else {
          PTP_RETURN_IF_ERROR(ParseInt(key, value, &spec.attempt));
        }
      } else if (key == "factor" || key == "f") {
        PTP_RETURN_IF_ERROR(ParseDouble(key, value, &spec.factor));
      } else if (key == "p") {
        PTP_RETURN_IF_ERROR(ParseInt(key, value, &spec.producer));
      } else if (key == "c") {
        PTP_RETURN_IF_ERROR(ParseInt(key, value, &spec.consumer));
      } else {
        return Status::InvalidArgument("faults: unknown key '" +
                                       std::string(key) + "'");
      }
      if (cur.done()) break;
      ++cur.pos;  // ','
    }
  }

  if (is_rand) {
    FaultPlan expanded = FaultPlan::Random(rand_seed, rand_n, rand_workers);
    for (auto& s : expanded.specs) plan->specs.push_back(std::move(s));
  } else {
    plan->specs.push_back(std::move(spec));
  }
  return Status::OK();
}

}  // namespace

const char* FaultKindToString(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrashBefore:
      return "crash";
    case FaultKind::kCrashDuring:
      return "crashmid";
    case FaultKind::kOperatorError:
      return "err";
    case FaultKind::kStragglerDelay:
      return "slow";
    case FaultKind::kShuffleDrop:
      return "drop";
    case FaultKind::kShuffleDup:
      return "dup";
  }
  return "unknown";
}

std::string FaultSpec::ToString() const {
  std::string out = FaultKindToString(kind);
  std::string kvs;
  auto kv = [&kvs](std::string_view key, const std::string& value) {
    if (!kvs.empty()) kvs += ',';
    kvs += key;
    kvs += '=';
    kvs += value;
  };
  if (site >= 0) kv(IsStageKind(kind) ? "site" : "x", std::to_string(site));
  if (worker >= 0) kv("worker", std::to_string(worker));
  if (producer >= 0) kv("p", std::to_string(producer));
  if (consumer >= 0) kv("c", std::to_string(consumer));
  if (attempt == kEveryAttempt) {
    kv("attempt", "*");
  } else if (attempt != 0) {
    kv("attempt", std::to_string(attempt));
  }
  if (kind == FaultKind::kStragglerDelay) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", factor);
    kv("factor", buf);
  }
  // Last, because a label value runs to the end of the event when parsed.
  if (!label.empty()) kv(IsStageKind(kind) ? "stage" : "label", label);
  if (!kvs.empty()) {
    out += '@';
    out += kvs;
  }
  return out;
}

Result<FaultPlan> FaultPlan::Parse(std::string_view text) {
  FaultPlan plan;
  Cursor cur{text};
  while (!cur.done()) {
    std::string_view event = cur.TakeUntil(";");
    if (!cur.done()) ++cur.pos;  // ';'
    // Trim surrounding spaces so "crash; drop" reads naturally.
    while (!event.empty() && event.front() == ' ') event.remove_prefix(1);
    while (!event.empty() && event.back() == ' ') event.remove_suffix(1);
    if (event.empty()) continue;
    PTP_RETURN_IF_ERROR(ParseEvent(event, &plan));
  }
  return plan;
}

FaultPlan FaultPlan::Random(uint64_t seed, int num_faults, int num_workers) {
  Rng rng(seed * 0x5851f42d4c957f2dULL + 0x14057b7ef767814fULL);
  FaultPlan plan;
  plan.specs.reserve(static_cast<size_t>(num_faults > 0 ? num_faults : 0));
  for (int i = 0; i < num_faults; ++i) {
    FaultSpec spec;
    // Recoverable kinds only (attempt 0, one retry fixes them): a random
    // schedule must never change query results, per the determinism
    // contract. Persistent/degrading schedules are written explicitly.
    switch (rng.Uniform(5)) {
      case 0:
        spec.kind = FaultKind::kCrashBefore;
        break;
      case 1:
        spec.kind = FaultKind::kCrashDuring;
        break;
      case 2:
        spec.kind = FaultKind::kOperatorError;
        break;
      case 3:
        spec.kind = FaultKind::kShuffleDrop;
        break;
      default:
        spec.kind = FaultKind::kShuffleDup;
        break;
    }
    // Target one of the first few sites of the query; unmatched ordinals
    // (a query with fewer sites) are documented no-ops.
    spec.site = static_cast<int>(rng.Uniform(4));
    if (IsStageKind(spec.kind)) {
      spec.worker = static_cast<int>(
          rng.Uniform(static_cast<uint64_t>(num_workers > 0 ? num_workers
                                                            : 1)));
    } else {
      spec.producer = static_cast<int>(
          rng.Uniform(static_cast<uint64_t>(num_workers > 0 ? num_workers
                                                            : 1)));
      // Any consumer of that producer (wildcard keeps the schedule valid
      // for exchanges whose consumer count differs from num_workers).
      spec.consumer = -1;
    }
    plan.specs.push_back(std::move(spec));
  }
  return plan;
}

std::string FaultPlan::ToString() const {
  std::string out;
  for (const FaultSpec& spec : specs) {
    if (!out.empty()) out += ';';
    out += spec.ToString();
  }
  return out;
}

int FaultInjector::RegisterStage(std::string_view label) {
  (void)label;
  return next_stage_.fetch_add(1, std::memory_order_relaxed);
}

int FaultInjector::RegisterExchange(std::string_view label) {
  (void)label;
  return next_exchange_.fetch_add(1, std::memory_order_relaxed);
}

void FaultInjector::Reset() {
  next_stage_.store(0, std::memory_order_relaxed);
  next_exchange_.store(0, std::memory_order_relaxed);
}

FaultInjector::SiteCursor FaultInjector::cursor() const {
  SiteCursor c;
  c.stage = next_stage_.load(std::memory_order_relaxed);
  c.exchange = next_exchange_.load(std::memory_order_relaxed);
  return c;
}

void FaultInjector::set_cursor(SiteCursor cursor) {
  next_stage_.store(cursor.stage, std::memory_order_relaxed);
  next_exchange_.store(cursor.exchange, std::memory_order_relaxed);
}

StageFault FaultInjector::OnStage(int site, std::string_view label,
                                  int worker, int attempt) {
  StageFault fault;
  for (const FaultSpec& spec : plan_.specs) {
    if (!IsStageKind(spec.kind)) continue;
    if (spec.site >= 0 && spec.site != site) continue;
    if (!spec.label.empty() && spec.label != label) continue;
    if (spec.worker >= 0 && spec.worker != worker) continue;
    if (spec.attempt != FaultSpec::kEveryAttempt && spec.attempt != attempt) {
      continue;
    }
    switch (spec.kind) {
      case FaultKind::kCrashBefore:
        fault.crash_before = true;
        break;
      case FaultKind::kCrashDuring:
        fault.crash_during = true;
        break;
      case FaultKind::kOperatorError:
        fault.operator_error = true;
        break;
      case FaultKind::kStragglerDelay:
        fault.delay_factor *= spec.factor;
        break;
      default:
        break;
    }
    Book(spec, label, worker, attempt);
  }
  return fault;
}

FaultInjector::ChannelFault FaultInjector::OnChannel(int site,
                                                     std::string_view label,
                                                     int producer,
                                                     int consumer,
                                                     int attempt) {
  ChannelFault fault = ChannelFault::kNone;
  for (const FaultSpec& spec : plan_.specs) {
    if (spec.kind != FaultKind::kShuffleDrop &&
        spec.kind != FaultKind::kShuffleDup) {
      continue;
    }
    if (spec.site >= 0 && spec.site != site) continue;
    if (!spec.label.empty() && spec.label != label) continue;
    if (spec.producer >= 0 && spec.producer != producer) continue;
    if (spec.consumer >= 0 && spec.consumer != consumer) continue;
    if (spec.attempt != FaultSpec::kEveryAttempt && spec.attempt != attempt) {
      continue;
    }
    // Drop wins over duplicate: a dropped channel is never delivered.
    if (spec.kind == FaultKind::kShuffleDrop) {
      fault = ChannelFault::kDrop;
    } else if (fault == ChannelFault::kNone) {
      fault = ChannelFault::kDuplicate;
    }
    Book(spec, label, producer, attempt);
  }
  return fault;
}

void FaultInjector::Book(const FaultSpec& spec, std::string_view label,
                         int worker, int attempt) {
  injected_.fetch_add(1, std::memory_order_relaxed);
  if (CounterRegistry* reg = ActiveCounterRegistry()) {
    reg->Add("fault.injected", 1);
    reg->Add(FaultCounterName(spec.kind), 1);
  }
  if (TraceSession* trace = ActiveTraceSession()) {
    std::string detail = spec.ToString();
    detail += " at '";
    detail += label;
    detail += "' attempt ";
    detail += std::to_string(attempt);
    int track = IsStageKind(spec.kind) && worker >= 0 ? WorkerTrack(worker)
                                                      : kCoordinatorTrack;
    trace->Instant("fault", detail, track);
  }
}

}  // namespace ptp
