#include "obs/resource.h"

#include <atomic>
#include <utility>

#include "common/logging.h"
#include "common/str_util.h"
#include "obs/counters.h"
#include "obs/trace.h"

namespace ptp {
namespace {

// Per-thread redirect installed by WorkerMemScope. Worker bodies charge
// here without locking; the coordinator folds the stats afterwards.
thread_local MemStats* t_worker_stats = nullptr;

constexpr const char* kCategoryNames[kNumMemCategories] = {
    "hash_table_bytes", "sort_scratch_bytes", "trie_bytes",
    "shuffle_buffer_bytes", "intermediate_bytes"};

}  // namespace

const char* MemCategoryName(MemCategory cat) {
  return kCategoryNames[static_cast<size_t>(cat)];
}

ResourceMeter* SetActiveResourceMeter(ResourceMeter* meter) {
  return std::exchange(runtime::internal::current_query_context.meter, meter);
}

WorkerMemScope::WorkerMemScope(MemStats* stats)
    : previous_(nullptr), installed_(stats != nullptr) {
  if (installed_) {
    previous_ = t_worker_stats;
    t_worker_stats = stats;
  }
}

WorkerMemScope::~WorkerMemScope() {
  if (installed_) t_worker_stats = previous_;
}

void MemCharge(MemCategory cat, uint64_t bytes) {
  if (MemStats* stats = t_worker_stats) {
    stats->Charge(cat, bytes);
    return;
  }
  if (ResourceMeter* meter = ActiveResourceMeter()) meter->Charge(cat, bytes);
}

void MemRelease(uint64_t bytes) {
  if (MemStats* stats = t_worker_stats) {
    stats->Release(bytes);
    return;
  }
  if (ResourceMeter* meter = ActiveResourceMeter()) meter->Release(bytes);
}

void ResourceMeter::BeginQuery(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  QueryMemory q;
  q.name = std::string(name);
  q.budget_bytes = budget_bytes_;
  q.hard_budget = hard_;
  queries_.push_back(std::move(q));
  warned_this_query_ = false;
  if (TraceSession* trace = ActiveTraceSession()) {
    trace->Counter("mem.live_bytes", 0, kCoordinatorTrack);
  }
}

void ResourceMeter::ChargeLocked(MemCategory cat, uint64_t bytes) {
  if (queries_.empty()) return;
  QueryMemory& q = queries_.back();
  q.charged[static_cast<size_t>(cat)] += bytes;
  q.live_bytes += bytes;
  if (q.live_bytes > q.peak_bytes) q.peak_bytes = q.live_bytes;
  if (CounterRegistry* reg = ActiveCounterRegistry()) {
    reg->Add(std::string("mem.") + MemCategoryName(cat), bytes);
  }
  if (TraceSession* trace = ActiveTraceSession()) {
    trace->Counter("mem.live_bytes", static_cast<double>(q.live_bytes),
                   kCoordinatorTrack);
  }
  CheckBudgetLocked();
}

void ResourceMeter::CheckBudgetLocked() {
  if (budget_bytes_ == 0 || queries_.empty()) return;
  QueryMemory& q = queries_.back();
  if (q.live_bytes <= budget_bytes_) return;
  RecordOverageLocked(q, q.live_bytes, /*where=*/{});
}

void ResourceMeter::RecordOverageLocked(QueryMemory& q, uint64_t live_bytes,
                                        std::string_view where) {
  const uint64_t overage = live_bytes - budget_bytes_;
  if (overage > q.max_overage_bytes) q.max_overage_bytes = overage;
  if (hard_ && !q.hard_breached) {
    q.hard_breached = true;
    q.breach_message = StrFormat(
        "memory budget exceeded%s%s: %llu B live > %llu B hard budget",
        where.empty() ? "" : " in ", std::string(where).c_str(),
        static_cast<unsigned long long>(live_bytes),
        static_cast<unsigned long long>(budget_bytes_));
    if (CounterRegistry* reg = ActiveCounterRegistry()) {
      reg->Add("mem.hard_budget_breaches", 1);
    }
  }
  if (!warned_this_query_) {
    warned_this_query_ = true;
    if (CounterRegistry* reg = ActiveCounterRegistry()) {
      reg->Add("mem.budget_overruns", 1);
    }
    PTP_LOG(Warning) << "query '" << q.name << "' exceeded --mem-budget"
                     << (where.empty() ? "" : " in ") << where << ": "
                     << live_bytes << " B live > " << budget_bytes_
                     << (hard_ ? " B budget (hard limit; query fails)"
                               : " B budget (soft limit; run continues)");
  }
}

void ResourceMeter::Charge(MemCategory cat, uint64_t bytes) {
  if (bytes == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  ChargeLocked(cat, bytes);
}

void ResourceMeter::Release(uint64_t bytes) {
  if (bytes == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (queries_.empty()) return;
  QueryMemory& q = queries_.back();
  q.live_bytes = q.live_bytes >= bytes ? q.live_bytes - bytes : 0;
  if (TraceSession* trace = ActiveTraceSession()) {
    trace->Counter("mem.live_bytes", static_cast<double>(q.live_bytes),
                   kCoordinatorTrack);
  }
}

uint64_t ResourceMeter::BookStageMemory(std::string_view label,
                                        const std::vector<MemStats>& workers) {
  std::lock_guard<std::mutex> lock(mu_);
  if (queries_.empty()) return 0;
  QueryMemory& q = queries_.back();

  StageMemory stage;
  stage.label = std::string(label);
  stage.worker_peak_bytes.reserve(workers.size());
  // Fold in worker-index order: the logical-cluster view, independent of
  // which OS threads ran the bodies.
  for (size_t w = 0; w < workers.size(); ++w) {
    const MemStats& stats = workers[w];
    stage.worker_peak_bytes.push_back(stats.peak);
    stage.peak_bytes += stats.peak;
    for (size_t c = 0; c < kNumMemCategories; ++c) {
      stage.charged[c] += stats.charged[c];
      q.charged[c] += stats.charged[c];
    }
  }
  if (CounterRegistry* reg = ActiveCounterRegistry()) {
    for (size_t c = 0; c < kNumMemCategories; ++c) {
      if (stage.charged[c] != 0) {
        reg->Add(std::string("mem.") + kCategoryNames[c], stage.charged[c]);
      }
    }
  }
  if (TraceSession* trace = ActiveTraceSession()) {
    for (size_t w = 0; w < workers.size(); ++w) {
      trace->Counter("mem.worker_peak_bytes",
                     static_cast<double>(workers[w].peak),
                     WorkerTrack(static_cast<int>(w)));
    }
  }

  // The stage's workers hold their peaks while the coordinator's live
  // fragments stay resident, so the query high-water is their sum.
  const uint64_t high_water = q.live_bytes + stage.peak_bytes;
  if (high_water > q.peak_bytes) q.peak_bytes = high_water;
  if (budget_bytes_ != 0 && high_water > budget_bytes_) {
    RecordOverageLocked(q, high_water, stage.label);
  }

  const uint64_t stage_peak = stage.peak_bytes;
  q.stages.push_back(std::move(stage));
  return stage_peak;
}

void ResourceMeter::FinishQuery(uint64_t* peak_bytes, uint64_t* charged_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  if (queries_.empty()) {
    if (peak_bytes != nullptr) *peak_bytes = 0;
    if (charged_bytes != nullptr) *charged_bytes = 0;
    return;
  }
  const QueryMemory& q = queries_.back();
  if (peak_bytes != nullptr) *peak_bytes = q.peak_bytes;
  if (charged_bytes != nullptr) *charged_bytes = q.TotalCharged();
}

std::vector<QueryMemory> ResourceMeter::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queries_;
}

const QueryMemory* ResourceMeter::FindQuery(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = queries_.size(); i-- > 0;) {
    if (queries_[i].name == name) return &queries_[i];
  }
  return nullptr;
}

bool ResourceMeter::hard_breached() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !queries_.empty() && queries_.back().hard_breached;
}

std::string ResourceMeter::breach_message() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queries_.empty() ? std::string() : queries_.back().breach_message;
}

void ResourceMeter::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  queries_.clear();
  warned_this_query_ = false;
}

std::string MemorySectionText(const QueryMemory& mem) {
  std::string out;
  out += StrFormat("memory: peak %llu B, charged %llu B\n",
                   static_cast<unsigned long long>(mem.peak_bytes),
                   static_cast<unsigned long long>(mem.TotalCharged()));
  for (size_t c = 0; c < kNumMemCategories; ++c) {
    if (mem.charged[c] == 0) continue;
    out += StrFormat("  %-21s %llu B\n",
                     MemCategoryName(static_cast<MemCategory>(c)),
                     static_cast<unsigned long long>(mem.charged[c]));
  }
  for (const StageMemory& stage : mem.stages) {
    out += StrFormat("  stage %-15s peak %llu B across %zu worker(s)\n",
                     stage.label.c_str(),
                     static_cast<unsigned long long>(stage.peak_bytes),
                     stage.worker_peak_bytes.size());
  }
  if (mem.budget_bytes != 0) {
    if (mem.hard_breached) {
      out += StrFormat("  budget %llu B BREACHED by %llu B (hard limit)\n",
                       static_cast<unsigned long long>(mem.budget_bytes),
                       static_cast<unsigned long long>(mem.max_overage_bytes));
    } else if (mem.max_overage_bytes != 0) {
      out += StrFormat("  budget %llu B EXCEEDED by %llu B (soft limit)\n",
                       static_cast<unsigned long long>(mem.budget_bytes),
                       static_cast<unsigned long long>(mem.max_overage_bytes));
    } else {
      out += StrFormat("  budget %llu B ok\n",
                       static_cast<unsigned long long>(mem.budget_bytes));
    }
  }
  return out;
}

}  // namespace ptp
