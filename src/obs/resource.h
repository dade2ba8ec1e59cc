#ifndef PTP_OBS_RESOURCE_H_
#define PTP_OBS_RESOURCE_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/thread_pool.h"

namespace ptp {

/// What kind of materialization a memory charge pays for. Categories follow
/// the engine's materialization points (Sec. 3-4 of the paper: hash tables
/// and sorted runs per worker, row buffers per exchange, fragments between
/// rounds); docs/OBSERVABILITY.md lists the charge sites per category.
enum class MemCategory : uint8_t {
  kHashTable = 0,    // JoinHashTable directories/entries + build arenas
  kSortScratch = 1,  // radix-sort scatter buffer (storage/sort.cc)
  kTrie = 2,         // Tributary-join sorted arrays / B+-tree rows
  kShuffleBuffer = 3,  // per-(producer,consumer) shuffle channel payloads
  kIntermediate = 4,   // merged intermediate fragments between rounds
};
inline constexpr size_t kNumMemCategories = 5;

/// Lowercase dotted-path suffix for the category ("hash_table_bytes", ...);
/// the full counter name is "mem." + MemCategoryName(cat).
const char* MemCategoryName(MemCategory cat);

/// Byte-accounting accumulator for one logical worker within one stage
/// attempt. Plain integers, no locking: each instance is written by exactly
/// one thread (the worker body that installed it via WorkerMemScope), and
/// the coordinator folds instances only after ParallelFor returned.
///
/// `charged[cat]` is cumulative (monotonic within an attempt); `live` is
/// charges minus releases; `peak` is the high-water mark of `live`. All
/// three are pure functions of the charge/release sequence, which per
/// worker is a pure function of the data — so the folded totals are
/// bit-identical at every thread count.
struct MemStats {
  uint64_t charged[kNumMemCategories] = {};
  uint64_t live = 0;
  uint64_t peak = 0;

  void Charge(MemCategory cat, uint64_t bytes) {
    charged[static_cast<size_t>(cat)] += bytes;
    live += bytes;
    if (live > peak) peak = live;
  }
  void Release(uint64_t bytes) { live = live >= bytes ? live - bytes : 0; }
  void Reset() { *this = MemStats(); }
  uint64_t TotalCharged() const {
    uint64_t total = 0;
    for (uint64_t c : charged) total += c;
    return total;
  }
};

/// Per-stage memory summary recorded by ResourceMeter::BookStageMemory.
struct StageMemory {
  std::string label;
  /// Sum of the per-worker peaks: the stage's simultaneous-residency bound
  /// (workers run concurrently, so their peaks add).
  uint64_t peak_bytes = 0;
  /// Peak bytes per logical worker, indexed by worker id (not OS thread).
  std::vector<uint64_t> worker_peak_bytes;
  uint64_t charged[kNumMemCategories] = {};
};

/// Memory account of one metered query/strategy run (one BeginQuery ..
/// FinishQuery window).
struct QueryMemory {
  std::string name;
  /// Cumulative bytes charged per category (coordinator + all workers).
  uint64_t charged[kNumMemCategories] = {};
  /// Coordinator-side live bytes at FinishQuery (0 when everything the run
  /// charged was released; shuffle buffers and carried fragments are).
  uint64_t live_bytes = 0;
  /// Query-wide high-water mark: max over time of coordinator live bytes
  /// plus the in-flight stage's folded worker peak.
  uint64_t peak_bytes = 0;
  /// Budget this run was metered against (0 = unlimited).
  uint64_t budget_bytes = 0;
  /// Largest observed excess of live bytes over the budget (0 = never over).
  uint64_t max_overage_bytes = 0;
  /// True when the budget was enforced as a hard limit (serving layer);
  /// false for the soft --mem-budget= advisory mode.
  bool hard_budget = false;
  /// True when a hard budget was exceeded; the run is expected to fail with
  /// kResourceExhausted. Never set in soft mode.
  bool hard_breached = false;
  /// Human-readable account of the first hard breach ("" when none).
  std::string breach_message;
  std::vector<StageMemory> stages;

  uint64_t TotalCharged() const {
    uint64_t total = 0;
    for (uint64_t c : charged) total += c;
    return total;
  }
};

/// Opt-in per-query memory meter. Mirrors the trace/counters/profile
/// pattern: instrumentation sites consult ActiveResourceMeter() (plus a
/// thread-local worker redirect), so the disabled path is two predictable
/// branches and zero allocations (tests/resource_test.cc enforces the
/// no-alloc contract; bench/micro_overhead.cc --sink=resource gates the
/// armed overhead).
///
/// Determinism: coordinator-side charges happen on the coordinator thread
/// in program order; worker-side charges accumulate into per-logical-worker
/// MemStats that the coordinator folds in worker-index order after the
/// parallel region. Nothing depends on OS-thread interleaving, so every
/// figure is bit-identical across --threads settings, and — because
/// strategies.cc resets worker stats at the top of each attempt and books
/// only the attempt that succeeded — across recovered-vs-clean runs too.
///
/// Thread safety: BeginQuery/Charge/Release/BookStageMemory/FinishQuery are
/// serialized under a mutex, but by design they are only called from the
/// coordinator; worker threads touch only their own MemStats.
class ResourceMeter {
 public:
  /// `budget_bytes` arms the per-query budget hook: when live bytes exceed
  /// it the meter logs once per query, bumps "mem.budget_overruns", and
  /// records the overage for EXPLAIN. 0 disables the check.
  ///
  /// `hard` escalates the budget from advisory to enforced: a breach
  /// additionally bumps "mem.hard_budget_breaches", latches
  /// hard_breached()/breach_message(), and the strategy layer turns that
  /// into a graceful kResourceExhausted FAIL at the next stage boundary
  /// (the serving layer's admission-control contract, docs/SERVING.md).
  explicit ResourceMeter(uint64_t budget_bytes = 0, bool hard = false)
      : budget_bytes_(budget_bytes), hard_(hard && budget_bytes != 0) {}

  ResourceMeter(const ResourceMeter&) = delete;
  ResourceMeter& operator=(const ResourceMeter&) = delete;

  /// Opens a new query section (strategy runs use the strategy name).
  /// Coordinator live bytes restart at zero.
  void BeginQuery(std::string_view name);

  /// Coordinator-side charge/release (shuffle buffers, carried fragments).
  /// Publishes the category's "mem.*" counter delta and samples the
  /// "mem.live_bytes" Perfetto counter on the coordinator track.
  void Charge(MemCategory cat, uint64_t bytes);
  void Release(uint64_t bytes);

  /// Folds one parallel stage's per-worker MemStats (in index order) into
  /// the current query: per-category charges, a StageMemory record, and the
  /// query peak (coordinator live + sum of worker peaks). Samples each
  /// worker's peak on its Perfetto worker track. Returns the stage peak.
  uint64_t BookStageMemory(std::string_view label,
                           const std::vector<MemStats>& workers);

  /// Closes the current query section, filling `*peak_bytes` /
  /// `*charged_bytes` (either may be null) with the section totals.
  void FinishQuery(uint64_t* peak_bytes = nullptr,
                   uint64_t* charged_bytes = nullptr);

  /// All finished or in-flight query sections, in BeginQuery order.
  std::vector<QueryMemory> Snapshot() const;
  /// The most recent section named `name` (nullptr when absent). The
  /// pointer stays valid until the next BeginQuery/Clear.
  const QueryMemory* FindQuery(std::string_view name) const;

  uint64_t budget_bytes() const { return budget_bytes_; }
  bool hard_budget() const { return hard_; }

  /// True when the current (most recent) query section breached a hard
  /// budget. Latched until the next BeginQuery/Clear.
  bool hard_breached() const;
  /// Account of the first hard breach in the current section ("" if none).
  std::string breach_message() const;

  void Clear();

 private:
  void ChargeLocked(MemCategory cat, uint64_t bytes);
  void CheckBudgetLocked();
  void RecordOverageLocked(QueryMemory& q, uint64_t live_bytes,
                           std::string_view where);

  const uint64_t budget_bytes_;
  const bool hard_ = false;
  mutable std::mutex mu_;
  std::vector<QueryMemory> queries_;
  bool warned_this_query_ = false;
};

/// Replaces the calling thread's accounting target (nullptr disables
/// accounting) and returns the previous meter. Install sinks with
/// runtime::ScopedQueryContext; this exchange stays for benchmark/ptpbench.cc.
ResourceMeter* SetActiveResourceMeter(ResourceMeter* meter);
/// The accounting meter, or nullptr when metering is off.
inline ResourceMeter* ActiveResourceMeter() {
  return runtime::CurrentQueryContext().meter;
}

/// Redirects this thread's MemCharge/MemRelease calls into `stats` for the
/// scope's lifetime — installed at the top of each worker body so worker
/// charges accumulate per logical worker instead of funnelling through the
/// meter's mutex. Passing nullptr installs nothing (the idiom when the
/// meter is inactive: `WorkerMemScope scope(meter ? &stats[w] : nullptr);`).
class WorkerMemScope {
 public:
  explicit WorkerMemScope(MemStats* stats);
  ~WorkerMemScope();

  WorkerMemScope(const WorkerMemScope&) = delete;
  WorkerMemScope& operator=(const WorkerMemScope&) = delete;

 private:
  MemStats* previous_;
  bool installed_;
};

/// Charges `bytes` against the calling thread's WorkerMemScope stats if one
/// is installed, else against the active meter, else does nothing. The
/// disabled path is a thread-local load plus an atomic load — no locks, no
/// allocation.
void MemCharge(MemCategory cat, uint64_t bytes);
/// Releases `bytes` of live accounting (categories track cumulative charges
/// only, so releases are category-free).
void MemRelease(uint64_t bytes);

/// RAII pairing of MemCharge/MemRelease, so error paths release exactly
/// what they charged. Movable (moved-from scopes release nothing); release
/// must happen on the charging thread, which every call site satisfies.
class ScopedMemCharge {
 public:
  ScopedMemCharge() = default;
  ScopedMemCharge(MemCategory cat, uint64_t bytes) : bytes_(bytes) {
    MemCharge(cat, bytes);
  }
  ScopedMemCharge(ScopedMemCharge&& other) noexcept : bytes_(other.bytes_) {
    other.bytes_ = 0;
  }
  ScopedMemCharge& operator=(ScopedMemCharge&& other) noexcept {
    if (this != &other) {
      ReleaseNow();
      bytes_ = other.bytes_;
      other.bytes_ = 0;
    }
    return *this;
  }
  ~ScopedMemCharge() { ReleaseNow(); }

  ScopedMemCharge(const ScopedMemCharge&) = delete;
  ScopedMemCharge& operator=(const ScopedMemCharge&) = delete;

  void ReleaseNow() {
    if (bytes_ != 0) {
      MemRelease(bytes_);
      bytes_ = 0;
    }
  }
  uint64_t bytes() const { return bytes_; }

 private:
  uint64_t bytes_ = 0;
};

/// The "memory:" section of EXPLAIN ANALYZE: peak/charged per category and
/// per stage, plus budget status. Byte figures are printed exactly (no
/// rounding), so the text is golden-testable and bit-identical across
/// thread counts.
std::string MemorySectionText(const QueryMemory& mem);

}  // namespace ptp

#endif  // PTP_OBS_RESOURCE_H_
