#include "obs/counters.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <ostream>
#include <sstream>

#include "common/str_util.h"
#include "obs/trace.h"

namespace ptp {

void Histogram::Record(uint64_t value) {
  ++buckets_[static_cast<size_t>(std::bit_width(value))];
  ++count_;
  sum_ += value;
  if (value < min_) min_ = value;
  if (value > max_) max_ = value;
}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) return;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  if (other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
}

double Histogram::Mean() const {
  if (count_ == 0) return 0.0;
  return static_cast<double>(sum_) / static_cast<double>(count_);
}

double Histogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double pos = q * static_cast<double>(count_ - 1);
  double estimate = 0.0;
  uint64_t cum = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    const uint64_t n = buckets_[i];
    if (n == 0) continue;
    if (pos < static_cast<double>(cum + n)) {
      if (i > 0) {
        const double lo = std::ldexp(1.0, static_cast<int>(i) - 1);
        const double hi = std::ldexp(1.0, static_cast<int>(i));
        const double offset = pos - static_cast<double>(cum);
        estimate = lo + (hi - lo) * (offset / static_cast<double>(n));
      }
      break;
    }
    cum += n;
  }
  return std::min(static_cast<double>(max_),
                  std::max(static_cast<double>(min()), estimate));
}

std::string Histogram::ToString() const {
  return StrFormat("count=%zu sum=%llu min=%llu max=%llu mean=%.1f", count_,
                   static_cast<unsigned long long>(sum()),
                   static_cast<unsigned long long>(min()),
                   static_cast<unsigned long long>(max()), Mean());
}

uint64_t* CounterRegistry::Counter(std::string_view name) {
  const int slot = runtime::CurrentThreadIndex();
  if (slot >= 0 && slot < runtime::kMaxThreads) {
    auto& counters = shards_[static_cast<size_t>(slot)].counters;
    auto it = counters.find(name);
    if (it == counters.end()) {
      it = counters.emplace(std::string(name), 0).first;
    }
    return &it->second;
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), 0).first;
  }
  return &it->second;
}

void CounterRegistry::Add(std::string_view name, uint64_t delta) {
  *Counter(name) += delta;
}

uint64_t CounterRegistry::Value(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  MergeShardsLocked();
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

Histogram* CounterRegistry::Hist(std::string_view name) {
  const int slot = runtime::CurrentThreadIndex();
  if (slot >= 0 && slot < runtime::kMaxThreads) {
    auto& hists = shards_[static_cast<size_t>(slot)].hists;
    auto it = hists.find(name);
    if (it == hists.end()) {
      it = hists.emplace(std::string(name), Histogram()).first;
    }
    return &it->second;
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = hists_.find(name);
  if (it == hists_.end()) {
    it = hists_.emplace(std::string(name), Histogram()).first;
  }
  return &it->second;
}

void CounterRegistry::MergeShardsLocked() const {
  for (Shard& shard : shards_) {
    for (auto& [name, value] : shard.counters) {
      if (value != 0) {
        counters_[name] += value;
        value = 0;
      }
    }
    for (auto& [name, hist] : shard.hists) {
      if (hist.count() != 0) {
        hists_[name].Merge(hist);
        hist.Reset();
      }
    }
  }
}

std::vector<std::pair<std::string, uint64_t>>
CounterRegistry::CounterSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MergeShardsLocked();
  return {counters_.begin(), counters_.end()};
}

std::vector<std::pair<std::string, uint64_t>>
CounterRegistry::CountersWithPrefix(std::string_view prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  MergeShardsLocked();
  std::vector<std::pair<std::string, uint64_t>> out;
  for (auto it = counters_.lower_bound(prefix); it != counters_.end(); ++it) {
    if (!StartsWith(it->first, prefix)) break;
    out.push_back(*it);
  }
  return out;
}

std::string CounterRegistry::ToString() const {
  std::lock_guard<std::mutex> lock(mu_);
  MergeShardsLocked();
  std::ostringstream os;
  for (const auto& [name, value] : counters_) {
    os << name << " = " << value << "\n";
  }
  for (const auto& [name, hist] : hists_) {
    os << name << ": " << hist.ToString() << "\n";
  }
  return os.str();
}

void CounterRegistry::WriteJson(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  MergeShardsLocked();
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    if (!first) os << ",";
    first = false;
    os << JsonQuote(name) << ":" << value;
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, hist] : hists_) {
    if (!first) os << ",";
    first = false;
    os << JsonQuote(name) << ":{\"count\":" << hist.count()
       << ",\"sum\":" << hist.sum() << ",\"min\":" << hist.min()
       << ",\"max\":" << hist.max()
       << ",\"mean\":" << StrFormat("%.6g", hist.Mean()) << "}";
  }
  os << "}}";
}

void CounterRegistry::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  hists_.clear();
  for (Shard& shard : shards_) {
    shard.counters.clear();
    shard.hists.clear();
  }
}

CounterRegistry* SetActiveCounterRegistry(CounterRegistry* registry) {
  return std::exchange(runtime::internal::current_query_context.counters,
                       registry);
}

}  // namespace ptp
