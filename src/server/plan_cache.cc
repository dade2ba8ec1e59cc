#include "server/plan_cache.h"

#include <algorithm>
#include <utility>

#include "query/normalize_text.h"
#include "query/parser.h"
#include "tj/order_optimizer.h"

namespace ptp {

PreparedPlan::PreparedPlan(NormalizedQuery normalized, int workers)
    : normalized_(std::move(normalized)),
      blind_(BlindAdvice(normalized_, workers)) {}

uint64_t EstimatePeakBytes(const NormalizedQuery& query,
                           const StrategyAdvice& advice) {
  // Same row-width convention as the meter's charge sites: tuples * arity *
  // sizeof(Value).
  uint64_t input_bytes = 0;
  size_t max_arity = 1;
  for (const NormalizedAtom& atom : query.atoms) {
    input_bytes += static_cast<uint64_t>(atom.relation.NumTuples()) *
                   atom.relation.arity() * sizeof(Value);
    max_arity = std::max(max_arity, atom.variables.size());
  }
  const size_t out_arity = std::max(max_arity, query.Variables().size());
  double family = advice.est_rs_tuples;
  switch (advice.shuffle) {
    case ShuffleKind::kRegular:
      family = advice.est_rs_tuples;
      break;
    case ShuffleKind::kBroadcast:
      family = advice.est_br_tuples;
      break;
    case ShuffleKind::kHypercube:
      family = advice.est_hc_tuples;
      break;
  }
  const double working = std::max(0.0, family) +
                         std::max(0.0, advice.est_max_intermediate);
  return input_bytes +
         static_cast<uint64_t>(working * static_cast<double>(out_arity) *
                               sizeof(Value));
}

void PlanCache::TouchLocked(size_t index) {
  if (index + 1 >= entries_.size()) return;  // already most recent
  std::rotate(entries_.begin() + static_cast<ptrdiff_t>(index),
              entries_.begin() + static_cast<ptrdiff_t>(index) + 1,
              entries_.end());
}

Result<PlanCache::Entry> PlanCache::Prepare(std::string_view text,
                                            int workers, Catalog* catalog,
                                            const FeedbackStore* feedback,
                                            bool* was_hit) {
  if (was_hit != nullptr) *was_hit = false;
  if (catalog == nullptr) {
    return Status::InvalidArgument("plan cache needs a catalog");
  }
  const std::string key = NormalizeQueryText(text);
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].key == key && entries_[i].workers == workers &&
        entries_[i].catalog == catalog) {
      ++stats_.hits;
      if (was_hit != nullptr) *was_hit = true;
      TouchLocked(i);
      return entries_.back();
    }
  }
  ++stats_.misses;

  Entry e;
  e.key = key;
  e.workers = workers;
  e.catalog = catalog;
  PTP_ASSIGN_OR_RETURN(ConjunctiveQuery query,
                       ParseDatalog(text, &catalog->dictionary()));
  PTP_RETURN_IF_ERROR(query.Validate(*catalog));
  PTP_ASSIGN_OR_RETURN(NormalizedQuery normalized,
                       Normalize(query, *catalog));
  e.prepared =
      std::make_shared<const PreparedPlan>(std::move(normalized), workers);
  ++stats_.blind_advisories;
  const QueryFeedback* qf =
      feedback != nullptr ? feedback->Find(key, workers) : nullptr;
  e.advice = ApplyFeedback(e.prepared->blind(), qf);
  e.est_peak_bytes = EstimatePeakBytes(e.prepared->normalized(), e.advice);
  ++stats_.parses;
  entries_.push_back(e);
  while (entries_.size() > max_entries_) {
    // Front is least recently used. The evicted query costs one re-parse
    // (and re-plan) when it comes back — never wrong results.
    entries_.erase(entries_.begin());
    ++stats_.evictions;
  }
  return e;
}

void PlanCache::Refresh(std::string_view key, int workers,
                        const Catalog* catalog,
                        const StrategyAdvice& advice,
                        uint64_t measured_peak_bytes,
                        double measured_exec_seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < entries_.size(); ++i) {
    Entry& e = entries_[i];
    if (e.key == key && e.workers == workers && e.catalog == catalog) {
      e.advice = advice;
      if (measured_peak_bytes > 0) {
        e.est_peak_bytes = measured_peak_bytes;
        e.measured = true;
      }
      if (measured_exec_seconds > 0) {
        e.est_exec_seconds = measured_exec_seconds;
      }
      ++e.executions;
      ++stats_.refreshes;
      TouchLocked(i);
      return;
    }
  }
}

bool PlanCache::Lookup(std::string_view key, int workers,
                       const Catalog* catalog, Entry* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Entry& e : entries_) {
    if (e.key == key && e.workers == workers && e.catalog == catalog) {
      if (out != nullptr) *out = e;
      return true;
    }
  }
  return false;
}

const std::vector<std::string>& PlanCache::VarOrder(
    const PreparedPlan& plan) {
  std::call_once(plan.var_order_once_, [&] {
    plan.var_order_ = OptimizeVariableOrder(plan.normalized_).order;
    ++order_optimizations_;
  });
  return plan.var_order_;
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.order_optimizations = order_optimizations_.load();
  return s;
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace ptp
