#ifndef PTP_EXEC_SHUFFLE_H_
#define PTP_EXEC_SHUFFLE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "exec/bloom.h"
#include "exec/cluster.h"
#include "exec/metrics.h"
#include "hypercube/config.h"

namespace ptp {

/// Output of one shuffle: the repartitioned relation plus its network /
/// skew accounting.
struct ShuffleResult {
  DistributedRelation data;
  ShuffleMetrics metrics;
  /// Virtual arrival map, populated only when a bloom filter was pushed
  /// into the scatter (both vectors empty otherwise — the unfiltered path
  /// pays nothing): arrival[w][r] is row r's index in the fragment worker
  /// w WOULD have received with the filter off (strictly increasing per
  /// worker), and unfiltered_rows[w] is that unfiltered fragment's size.
  /// The symmetric hash join replays these as arrival rounds, so a
  /// filtered run emits join results in the exact order of the unfiltered
  /// run — a dropped tuple provably emits nothing (the filter has no
  /// false negatives), only its arrival slot matters. In a real cluster
  /// this is a per-channel gap bitmap, metadata dwarfed by the payload
  /// bytes it saves; the simulation does not bill it as network volume.
  std::vector<std::vector<uint32_t>> arrival;
  std::vector<size_t> unfiltered_rows;
};

/// Delivery coordinates of a shuffle call: which registered exchange site
/// this is (for fault matching, see fault/fault.h) and which delivery epoch
/// (0 on the first try, incremented by the recovery loop on each replay).
/// Default-constructed = unregistered site, epoch 0 — matches only
/// wildcard-site fault specs.
struct ShuffleAttempt {
  int exchange = -1;
  int attempt = 0;
};

/// Regular shuffle: hash-partitions `in` on `key_cols` (combined hash when
/// multiple columns) across `num_workers` workers. This is shuffle (1) of
/// Sec. 3: it forces binary joins except when all joins share one key.
///
/// Every shuffle counts, then places: producers count their rows per
/// destination, prefix sums give each producer a slice of each destination
/// fragment (in producer order), and each row is copied once, straight into
/// its slice. A (producer, consumer) channel is an (offset, length) view of
/// the consumer's fragment, delivered with a (producer, epoch) sequence tag;
/// consumers deduplicate repeated tags, and a conservation invariant (tuples
/// emitted == tuples delivered after dedup, over the channel lengths)
/// returns Status::Internal on any lost channel — the detector the recovery
/// loop retries on. The invariant is checked on every exchange; a fault
/// injector decides which channels are dropped or duplicated.
///
/// When `bloom` is non-null (sideways information passing, docs/KERNELS.md),
/// producers probe each tuple's combined key hash against the build-side
/// filter and drop definite non-matches while counting —
/// filtered tuples are never copied, shipped, or delivered. The filter must
/// have been built with the same `salt` over the matching join-key columns
/// (BuildShuffleBloomFilter). Conservation becomes
///   input == tuples_sent + bloom_filtered
/// per exchange; the drop decision is a pure function of tuple bytes and
/// filter contents, so replays after injected faults filter identically.
Result<ShuffleResult> HashShuffle(const DistributedRelation& in,
                                  const std::vector<int>& key_cols,
                                  int num_workers, uint64_t salt,
                                  std::string label,
                                  ShuffleAttempt attempt = {},
                                  const BloomFilter* bloom = nullptr);

/// Broadcast shuffle: every worker receives a full copy of `in` (shuffle (3)
/// of Sec. 3 — used for all but the largest relation). Each fragment is
/// copied once into each of the `num_workers` destinations.
Result<ShuffleResult> BroadcastShuffle(const DistributedRelation& in,
                                       int num_workers, std::string label,
                                       ShuffleAttempt attempt = {});

/// HyperCube shuffle (Sec. 2.1): routes each tuple to the cells obtained by
/// hashing its bound dimensions and replicating along unbound ones, then maps
/// cells to workers with `worker_of_cell`. Cells co-located on one worker
/// receive a single copy (this is why cell placement matters, App. B).
Result<ShuffleResult> HypercubeShuffle(
    const DistributedRelation& in, const std::vector<std::string>& atom_vars,
    const HypercubeConfig& config, const std::vector<int>& worker_of_cell,
    int num_workers, std::string label, ShuffleAttempt attempt = {});

/// Identity "shuffle" that keeps the relation in place and reports zero
/// network traffic (the partitioned big table of a broadcast plan). Nothing
/// crosses the simulated network, so this is not a fault-injection site.
/// Pass an rvalue (`std::move(frags)`) and the fragments move through
/// without a copy.
ShuffleResult KeepInPlace(DistributedRelation in, std::string label);

/// Output of a skew-aware binary-join shuffle (both sides repartitioned in
/// one coordinated step).
struct SkewAwareShuffleResult {
  DistributedRelation left;
  DistributedRelation right;
  ShuffleMetrics left_metrics;
  ShuffleMetrics right_metrics;
  /// Number of join-key values classified as heavy hitters.
  size_t heavy_keys = 0;
  /// Right side's virtual arrival map (see ShuffleResult::arrival), in the
  /// unfiltered skew-aware delivery order — heavy-key broadcast replicas
  /// of dropped tuples count as arrival slots on every worker. Empty when
  /// `right_bloom` was null.
  std::vector<std::vector<uint32_t>> right_arrival;
  std::vector<size_t> right_unfiltered_rows;
};

/// Heavy-hitter-aware repartitioning for a binary join (the technique the
/// paper's footnote 2 alludes to). Join keys whose frequency on the left
/// side exceeds `threshold` x the average per-worker load are "heavy":
/// the left side's heavy tuples are spread round-robin over all workers
/// (no single worker drowns) while the right side's matching tuples are
/// broadcast, so every pair still meets exactly once. Light keys hash as
/// usual. Equivalent join result, bounded consumer skew. The two sides are
/// two distinct exchanges for fault purposes.
///
/// `right_bloom`, when non-null, filters the RIGHT (probe) side only, before
/// its heavy/light routing decision. Heavy keys are by definition frequent
/// on the left side, hence present in the left-built filter — a heavy right
/// tuple can only be dropped when its key never occurs on the left at all,
/// which is exactly the doomed case. The left side ships unfiltered (it is
/// the filter's build side).
Result<SkewAwareShuffleResult> SkewAwareJoinShuffle(
    const DistributedRelation& left, const std::vector<int>& left_cols,
    const DistributedRelation& right, const std::vector<int>& right_cols,
    int num_workers, uint64_t salt, double threshold, std::string label,
    ShuffleAttempt left_attempt = {}, ShuffleAttempt right_attempt = {},
    const BloomFilter* right_bloom = nullptr);

/// One-cell-per-worker mapping for a config with NumCells() <= num_workers.
std::vector<int> IdentityCellMap(const HypercubeConfig& config);

}  // namespace ptp

#endif  // PTP_EXEC_SHUFFLE_H_
