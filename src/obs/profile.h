#ifndef PTP_OBS_PROFILE_H_
#define PTP_OBS_PROFILE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/thread_pool.h"

namespace ptp {

/// Misra–Gries heavy-hitter sketch over uint64 keys (weighted variant).
/// Keeps at most `capacity` counters; inserting into a full sketch subtracts
/// the minimum counter from every entry (erasing zeros) until it fits, and
/// accumulates the subtracted amount into error_bound(). Guarantees, with
/// n = total() and k = capacity():
///   * estimate <= true count <= estimate + error_bound()
///   * error_bound() <= n / (k + 1)
///   * any key whose true count exceeds error_bound() is present.
/// Merging adds the other sketch's counters (and error bound) and shrinks;
/// the result depends on merge order, so callers that need thread-count-
/// independent sketches must feed the stream in a fixed logical order (the
/// shuffle profiler counts its row samples in producer index order — see
/// docs/OBSERVABILITY.md).
class MisraGries {
 public:
  static constexpr size_t kDefaultCapacity = 64;

  explicit MisraGries(size_t capacity = kDefaultCapacity);

  struct Entry {
    uint64_t key = 0;
    uint64_t count = 0;  // lower-bound estimate of the true frequency
  };

  /// Books `weight` occurrences of `key`.
  void Add(uint64_t key, uint64_t weight = 1);
  /// Folds `other` into this sketch (deterministic given the fold order).
  void Merge(const MisraGries& other);

  /// Bulk-builds the sketch from per-key aggregated counts (each key at
  /// most once): keeps the `capacity` heaviest keys and books the heaviest
  /// excluded count — plus any `carried_error` the producing shards accrued
  /// when they evicted keys (HotKeyShard) — as the error bound.
  /// `extra_total` is weight the shards saw but already evicted from
  /// `counts`, so total() still reports the full stream. With exact counts
  /// (carried_error == extra_total == 0) this is the tightest summary any
  /// Misra–Gries pass over the stream could reach; with lossy shards the
  /// estimate/error-bound sandwich above still holds, though error_bound()
  /// is then bounded by the shards' eviction quality rather than
  /// n / (k + 1). O(n) (selection, not sort); `counts` is consumed as
  /// scratch.
  static MisraGries FromCounts(std::vector<Entry> counts,
                               uint64_t extra_total = 0,
                               uint64_t carried_error = 0,
                               size_t capacity = kDefaultCapacity);
  /// Up to `k` heaviest surviving entries, ordered by (count desc, key asc)
  /// so the listing is unambiguous and reproducible.
  std::vector<Entry> TopK(size_t k) const;
  /// Lower-bound estimate for `key`; 0 when the key was evicted (or never
  /// seen).
  uint64_t LowerBound(uint64_t key) const;

  uint64_t total() const { return total_; }
  uint64_t error_bound() const { return error_bound_; }
  size_t capacity() const { return capacity_; }
  size_t size() const { return entries_.size(); }

 private:
  /// Subtracts the minimum counter from all entries until size <= capacity.
  void Shrink();

  size_t capacity_;
  uint64_t total_ = 0;
  uint64_t error_bound_ = 0;
  /// Flat unordered store: with the default capacity of 64 a linear scan
  /// over one cache-resident vector beats any node-based container, and
  /// Add/Shrink never allocate after the constructor's reserve. The key set
  /// and counts are container-order independent (Shrink subtracts a global
  /// min); every exported view (TopK, the JSON entries) is explicitly
  /// sorted, so iteration order never leaks.
  std::vector<Entry> entries_;
};

/// Most tuples any one shuffle sketches. Bigger exchanges are sampled down
/// to this budget with a deterministic systematic 1-in-S row sample (S the
/// smallest power of two that fits, the same S for every producer), each
/// sampled tuple added with weight S. Row indices don't depend on the
/// thread count, so the sampled sketch is as reproducible as the exact one;
/// sketch cost per shuffle stays bounded no matter how large the exchange
/// grows.
inline constexpr size_t kHotKeySampleBudget = size_t{1} << 17;

/// Fixed-footprint key counter for the shuffle profiler. An exact table
/// sized to the exchange would make every profiled count a DRAM miss; this
/// shard keeps one Misra–Gries counter per slot of a small cache-resident
/// table (a "MJRTY array"): Add touches exactly one 16-byte slot — a hit
/// increments, an empty slot is claimed, and a collision decrements the
/// resident counter Misra–Gries-style, booking the decrement into the
/// slot's undercount tally (at zero the slot frees up for the next
/// claimant). There is no probe chain, no rehash and no eviction pass, so
/// the per-tuple cost is one load and one store at a fixed address.
/// Surviving counts are lower bounds on the shard's true frequencies, each
/// off by at most evicted_bound(); like the sketch itself, any key can
/// undercount but never overcount. The shuffle profiler builds one shard
/// per exchange on the coordinator, feeding it the scatter's row samples
/// in producer index order before compressing it into the recorded sketch
/// (MisraGries::FromCounts), which keeps the profile bit-identical at
/// every thread count.
class HotKeyShard {
 public:
  static constexpr size_t kMinSlots = 64;    // 1 KiB
  static constexpr size_t kMaxSlots = 4096;  // 64 KiB

  /// Sizes the table to the stream: the smallest power of two at least
  /// twice `expected_keys`, clamped to [kMinSlots, kMaxSlots]. Small
  /// fragments get small tables (cheap to zero and to fold), large ones
  /// stay cache-resident.
  explicit HotKeyShard(size_t expected_keys = kMaxSlots);

  /// Books `weight` occurrences of `key`, slotted by `hash` — pass the
  /// routing hash the scatter already computed (any well-mixed function of
  /// the key works, but every shard folded into one sketch must use the
  /// same one). Inline and O(1) worst case: this sits on the profiled
  /// per-tuple path.
  void Add(uint64_t key, uint64_t hash, uint64_t weight = 1) {
    total_ += weight;
    Slot& s = slots_[static_cast<size_t>(hash) & mask_];
    const uint32_t w = static_cast<uint32_t>(weight);
    if (s.count == 0) {
      s.key = key;
      s.count = w;
      return;
    }
    if (s.key == key) {
      s.count += w;
      return;
    }
    const uint32_t m = s.count < w ? s.count : w;
    s.count -= m;
    s.decr += m;
    if (s.count == 0 && w > m) {
      s.key = key;
      s.count = w - m;
    }
  }

  /// Weight of everything Add() saw, cancelled in collisions or not.
  uint64_t total() const { return total_; }
  /// Per-key undercount bound of the surviving entries: the largest
  /// decrement tally of any slot (a key only ever loses weight to the
  /// collisions of its own slot).
  uint64_t evicted_bound() const;
  /// Number of live slots.
  size_t distinct() const;
  size_t slots() const { return slots_.size(); }
  /// Surviving (key, lower-bound count) entries, in slot order (a
  /// deterministic function of the Add sequence).
  std::vector<MisraGries::Entry> Entries() const;

 private:
  /// Packed to 16 bytes so hit, claim and collision all touch one cache
  /// line. 32-bit counters bound per-slot weight at 4G tuples — beyond any
  /// exchange the simulator's intermediate budget admits.
  struct Slot {
    uint64_t key = 0;
    uint32_t count = 0;  // 0 marks a free slot
    uint32_t decr = 0;
  };

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  uint64_t total_ = 0;
};

/// Full (producer, consumer) communication matrix of one shuffle: tuples
/// moved per channel. Bytes are derived (tuples x arity x 8, matching the
/// shuffle.bytes_sent counter). Row totals are per-producer emission, column
/// totals per-consumer receipt; conservation (every emitted tuple received
/// exactly once after dedup) makes Total() == ShuffleMetrics::tuples_sent.
struct ChannelMatrix {
  size_t producers = 0;
  size_t consumers = 0;
  size_t arity = 0;
  std::vector<uint64_t> tuples;  // row-major: [p * consumers + c]

  void Init(size_t num_producers, size_t num_consumers, size_t tuple_arity);
  uint64_t& At(size_t p, size_t c) { return tuples[p * consumers + c]; }
  uint64_t At(size_t p, size_t c) const { return tuples[p * consumers + c]; }
  uint64_t Total() const;
  uint64_t TotalBytes() const { return Total() * arity * 8; }
  std::vector<uint64_t> RowTotals() const;
  std::vector<uint64_t> ColTotals() const;
};

/// What the heavy-hitter sketch keys of a ShuffleProfile identify.
enum class SketchKeyKind {
  kNone,   // no per-key routing (broadcast, HyperCube, right side of the
           // skew-aware shuffle)
  kValue,  // raw column value (single-column shuffle key)
  kHash,   // combined salted hash of a multi-column key
};

/// Profile of one successful shuffle exchange (failed delivery attempts are
/// not recorded, mirroring the metrics/counter accounting).
struct ShuffleProfile {
  std::string label;
  ChannelMatrix matrix;
  SketchKeyKind key_kind = SketchKeyKind::kNone;
  MisraGries keys;
  /// 1 when every tuple fed the key sketch; S > 1 when the exchange
  /// exceeded kHotKeySampleBudget and keys were counted from a systematic
  /// 1-in-S row sample with weight S (counts are extrapolations). The
  /// communication matrix is never sampled.
  uint64_t sample_stride = 1;
};

/// Per-worker busy/sort/join virtual-time timeline of one stage barrier.
/// The vectors are indexed by logical worker; a retried stage accumulates
/// the wasted attempts (same numbers BookStage adds to QueryMetrics).
struct StageProfile {
  std::string label;
  double wall_seconds = 0;
  std::vector<double> busy_seconds;
  std::vector<double> sort_seconds;
  std::vector<double> join_seconds;
  size_t output_tuples = 0;
  size_t retries = 0;
  bool failed = false;
  bool degraded = false;
};

/// One recovery retry: the virtual exponential-backoff delay booked before
/// re-running `label` (attempt >= 1). Deterministic — the backoff is
/// computed, not slept.
struct RetryEpoch {
  std::string label;
  int attempt = 0;
  double backoff_seconds = 0;
};

/// Everything profiled while one plan ran (one section per RunStrategy or
/// RunSemijoinPlan call; a resumed run continues its section, and plan
/// degradations stay inside the section of the plan that degraded).
struct StrategyProfile {
  std::string name;
  std::vector<ShuffleProfile> shuffles;
  std::vector<StageProfile> stages;
  std::vector<RetryEpoch> retry_epochs;
};

/// Decomposition of a shuffle's consumer imbalance into a data-skew part
/// (attributable to the heaviest key: even a perfect hash cannot split one
/// key's tuples across workers) and a hash-skew part (the rest: collisions /
/// placement). With received loads L, avg = mean(L), max = max(L) and
/// top1 = the sketch's largest lower-bound estimate:
///   data_floor     = min(max(avg, top1), max)
///   data_component = (data_floor - avg) / avg
///   hash_component = (max - data_floor) / avg
/// so data_component + hash_component == measured_skew - 1 exactly, and
/// measured_skew reproduces ShuffleMetrics::consumer_skew bit-for-bit (same
/// max/avg arithmetic over the same loads). Without a sketch (key_kind
/// kNone) the whole imbalance is reported as hash/placement skew.
struct SkewDecomposition {
  double measured_skew = 1.0;
  double data_component = 0;
  double hash_component = 0;
  uint64_t top_key = 0;
  uint64_t top_key_count = 0;
  bool has_top_key = false;
};

SkewDecomposition DecomposeSkew(const ShuffleProfile& shuffle);

/// Opt-in query profiler sink. Mirrors TraceSession / CounterRegistry /
/// FaultInjector: instrumentation sites consult ActiveQueryProfile() and the
/// disabled path is a single nullptr branch (no allocation, no locking).
///
/// All Record* hooks run on the coordinator between barriers (shuffle
/// commit, stage booking, retry bookkeeping), so the mutex is uncontended;
/// the scatter loops only buffer key samples into preallocated per-producer
/// slices, and the counting/folding happens coordinator-side in producer
/// index order — which is what makes the recorded profile bit-identical at
/// every --threads setting (see docs/OBSERVABILITY.md).
class QueryProfile {
 public:
  /// Opens a new section; subsequent Record* calls land in it. Called by
  /// the plan's run frame with the strategy name (or "SEMIJOIN").
  void BeginStrategy(std::string_view name);
  void RecordShuffle(ShuffleProfile shuffle);
  /// Records a stage timeline and, when a trace session is active, exports
  /// the per-worker cumulative busy time as Perfetto counter tracks
  /// ("profile.busy_seconds" on worker w's track) plus a coordinator-track
  /// utilization sample for the stage barrier.
  void RecordStage(StageProfile stage);
  void RecordBackoff(std::string_view label, int attempt,
                     double backoff_seconds);

  /// Copy of all recorded sections. Reads must not overlap a running
  /// parallel region (in the engine they never do: hooks and readers are
  /// coordinator-side).
  std::vector<StrategyProfile> Snapshot() const;
  /// The last section recorded under `name`, or nullptr. The pointer stays
  /// valid until the next BeginStrategy/Clear.
  const StrategyProfile* FindStrategy(std::string_view name) const;
  void Clear();

 private:
  StrategyProfile* CurrentLocked();

  mutable std::mutex mu_;
  std::vector<StrategyProfile> strategies_;
  /// Per-worker busy seconds accumulated across the current section's
  /// stages, for the Perfetto counter export.
  std::vector<double> cumulative_busy_;
};

/// The collecting profile, or nullptr when profiling is off.
inline QueryProfile* ActiveQueryProfile() {
  return runtime::CurrentQueryContext().profile;
}

}  // namespace ptp

#endif  // PTP_OBS_PROFILE_H_
