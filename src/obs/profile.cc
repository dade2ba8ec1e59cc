#include "obs/profile.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "obs/trace.h"
#include "runtime/thread_pool.h"

namespace ptp {
namespace {

/// max/avg over per-consumer loads, mirroring exec SkewFactor exactly
/// (single-worker and all-zero vectors are balanced by definition) so the
/// profiler's measured skew reconciles bit-for-bit with
/// ShuffleMetrics::consumer_skew.
double LoadSkew(const std::vector<uint64_t>& loads) {
  if (loads.size() <= 1) return 1.0;
  uint64_t total = 0;
  for (uint64_t l : loads) total += l;
  if (total == 0) return 1.0;
  const uint64_t max = *std::max_element(loads.begin(), loads.end());
  const double avg =
      static_cast<double>(total) / static_cast<double>(loads.size());
  return static_cast<double>(max) / avg;
}

}  // namespace

MisraGries::MisraGries(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  entries_.reserve(capacity_ + 1);
}

void MisraGries::Add(uint64_t key, uint64_t weight) {
  if (weight == 0) return;
  total_ += weight;
  for (Entry& e : entries_) {
    if (e.key == key) {
      e.count += weight;
      return;
    }
  }
  entries_.push_back({key, weight});
  if (entries_.size() > capacity_) Shrink();
}

void MisraGries::Merge(const MisraGries& other) {
  total_ += other.total_;
  error_bound_ += other.error_bound_;
  for (const Entry& oe : other.entries_) {
    bool found = false;
    for (Entry& e : entries_) {
      if (e.key == oe.key) {
        e.count += oe.count;
        found = true;
        break;
      }
    }
    if (!found) entries_.push_back(oe);
  }
  if (entries_.size() > capacity_) Shrink();
}

void MisraGries::Shrink() {
  while (entries_.size() > capacity_) {
    uint64_t min = entries_[0].count;
    for (const Entry& e : entries_) min = std::min(min, e.count);
    error_bound_ += min;
    size_t kept = 0;
    for (const Entry& e : entries_) {
      if (e.count > min) entries_[kept++] = {e.key, e.count - min};
    }
    entries_.resize(kept);
  }
}

MisraGries MisraGries::FromCounts(std::vector<Entry> counts,
                                  uint64_t extra_total,
                                  uint64_t carried_error, size_t capacity) {
  MisraGries sketch(capacity);
  sketch.total_ = extra_total;
  sketch.error_bound_ = carried_error;
  for (const Entry& e : counts) sketch.total_ += e.count;
  if (counts.size() > sketch.capacity_) {
    // Partition the `capacity` heaviest entries to the front (ties broken
    // by key so the kept set is deterministic), then bound every excluded
    // key by the heaviest count left behind.
    auto heavier = [](const Entry& a, const Entry& b) {
      if (a.count != b.count) return a.count > b.count;
      return a.key < b.key;
    };
    std::nth_element(counts.begin(),
                     counts.begin() + static_cast<ptrdiff_t>(sketch.capacity_),
                     counts.end(), heavier);
    uint64_t max_excluded = 0;
    for (size_t i = sketch.capacity_; i < counts.size(); ++i) {
      max_excluded = std::max(max_excluded, counts[i].count);
    }
    sketch.error_bound_ += max_excluded;
    counts.resize(sketch.capacity_);
  }
  sketch.entries_ = std::move(counts);
  return sketch;
}

HotKeyShard::HotKeyShard(size_t expected_keys) {
  size_t n = kMinSlots;
  while (n < kMaxSlots && n < 2 * expected_keys) n *= 2;
  slots_.resize(n);
  mask_ = n - 1;
}

uint64_t HotKeyShard::evicted_bound() const {
  uint64_t bound = 0;
  for (const Slot& s : slots_) bound = std::max<uint64_t>(bound, s.decr);
  return bound;
}

size_t HotKeyShard::distinct() const {
  size_t live = 0;
  for (const Slot& s : slots_) live += s.count > 0 ? 1 : 0;
  return live;
}

std::vector<MisraGries::Entry> HotKeyShard::Entries() const {
  std::vector<MisraGries::Entry> entries;
  for (const Slot& s : slots_) {
    if (s.count > 0) entries.push_back({s.key, s.count});
  }
  return entries;
}

std::vector<MisraGries::Entry> MisraGries::TopK(size_t k) const {
  std::vector<Entry> entries = entries_;
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.key < b.key;
            });
  if (entries.size() > k) entries.resize(k);
  return entries;
}

uint64_t MisraGries::LowerBound(uint64_t key) const {
  for (const Entry& e : entries_) {
    if (e.key == key) return e.count;
  }
  return 0;
}

void ChannelMatrix::Init(size_t num_producers, size_t num_consumers,
                         size_t tuple_arity) {
  producers = num_producers;
  consumers = num_consumers;
  arity = tuple_arity;
  tuples.assign(producers * consumers, 0);
}

uint64_t ChannelMatrix::Total() const {
  uint64_t total = 0;
  for (uint64_t t : tuples) total += t;
  return total;
}

std::vector<uint64_t> ChannelMatrix::RowTotals() const {
  std::vector<uint64_t> rows(producers, 0);
  for (size_t p = 0; p < producers; ++p) {
    for (size_t c = 0; c < consumers; ++c) rows[p] += At(p, c);
  }
  return rows;
}

std::vector<uint64_t> ChannelMatrix::ColTotals() const {
  std::vector<uint64_t> cols(consumers, 0);
  for (size_t p = 0; p < producers; ++p) {
    for (size_t c = 0; c < consumers; ++c) cols[c] += At(p, c);
  }
  return cols;
}

SkewDecomposition DecomposeSkew(const ShuffleProfile& shuffle) {
  SkewDecomposition d;
  const std::vector<uint64_t> received = shuffle.matrix.ColTotals();
  d.measured_skew = LoadSkew(received);
  if (received.size() <= 1) return d;
  uint64_t total = 0;
  uint64_t max = 0;
  for (uint64_t l : received) {
    total += l;
    max = std::max(max, l);
  }
  if (total == 0) return d;
  const double avg =
      static_cast<double>(total) / static_cast<double>(received.size());
  const double max_load = static_cast<double>(max);

  if (shuffle.key_kind != SketchKeyKind::kNone) {
    const std::vector<MisraGries::Entry> top = shuffle.keys.TopK(1);
    if (!top.empty()) {
      d.has_top_key = true;
      d.top_key = top[0].key;
      d.top_key_count = top[0].count;
    }
  }
  // The heaviest key pins its whole frequency onto one worker, so the best
  // any hash function could do is max(avg, top1); anything above that floor
  // is collisions / placement. Clamp the floor to the observed max so both
  // components stay non-negative; the sketch estimate is a lower bound, so
  // an undercount only shifts blame toward the hash component.
  const double top1 =
      d.has_top_key ? static_cast<double>(d.top_key_count) : 0.0;
  const double data_floor = std::min(std::max(avg, top1), max_load);
  d.data_component = (data_floor - avg) / avg;
  d.hash_component = (max_load - data_floor) / avg;
  return d;
}

void QueryProfile::BeginStrategy(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  strategies_.emplace_back();
  strategies_.back().name = std::string(name);
  cumulative_busy_.clear();
}

StrategyProfile* QueryProfile::CurrentLocked() {
  if (strategies_.empty()) {
    // Hooks fired outside any plan run (e.g. a profiled standalone shuffle,
    // as the placement oracle sweep's): collect them under an explicit
    // catch-all section.
    strategies_.emplace_back();
    strategies_.back().name = "(unattributed)";
  }
  return &strategies_.back();
}

void QueryProfile::RecordShuffle(ShuffleProfile shuffle) {
  std::lock_guard<std::mutex> lock(mu_);
  CurrentLocked()->shuffles.push_back(std::move(shuffle));
}

void QueryProfile::RecordStage(StageProfile stage) {
  TraceSession* trace = ActiveTraceSession();
  std::lock_guard<std::mutex> lock(mu_);
  if (cumulative_busy_.size() < stage.busy_seconds.size()) {
    cumulative_busy_.resize(stage.busy_seconds.size(), 0.0);
  }
  double busy_total = 0;
  for (size_t w = 0; w < stage.busy_seconds.size(); ++w) {
    cumulative_busy_[w] += stage.busy_seconds[w];
    busy_total += stage.busy_seconds[w];
    if (trace != nullptr) {
      trace->Counter("profile.busy_seconds", cumulative_busy_[w],
                     WorkerTrack(static_cast<int>(w)));
    }
  }
  if (trace != nullptr && stage.wall_seconds > 0 &&
      !stage.busy_seconds.empty()) {
    // Average worker utilization of the barrier: busy time as a fraction of
    // workers x wall envelope.
    const double util =
        100.0 * busy_total /
        (stage.wall_seconds * static_cast<double>(stage.busy_seconds.size()));
    trace->Counter("profile.stage_utilization_pct", util, kCoordinatorTrack);
  }
  CurrentLocked()->stages.push_back(std::move(stage));
}

void QueryProfile::RecordBackoff(std::string_view label, int attempt,
                                 double backoff_seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  CurrentLocked()->retry_epochs.push_back(
      {std::string(label), attempt, backoff_seconds});
}

std::vector<StrategyProfile> QueryProfile::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return strategies_;
}

const StrategyProfile* QueryProfile::FindStrategy(
    std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = strategies_.rbegin(); it != strategies_.rend(); ++it) {
    if (it->name == name) return &*it;
  }
  return nullptr;
}

void QueryProfile::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  strategies_.clear();
  cumulative_busy_.clear();
}

}  // namespace ptp
