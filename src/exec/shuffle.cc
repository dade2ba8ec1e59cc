#include "exec/shuffle.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"
#include "common/str_util.h"
#include "exec/join_hash_table.h"
#include "exec/lifecycle.h"
#include "fault/fault.h"
#include "obs/counters.h"
#include "obs/profile.h"
#include "obs/resource.h"
#include "obs/trace.h"
#include "runtime/parallel.h"

namespace ptp {
namespace {

/// Accessor for the (producer, consumer) channel buffers of an exchange.
/// Scatter exchanges point into their producers' destination buffers;
/// broadcast points every consumer of producer p at p's full fragment.
using ChannelFn =
    std::function<const std::vector<Value>*(size_t p, size_t w)>;

DistributedRelation MakeEmpty(const DistributedRelation& in,
                              int num_workers) {
  DistributedRelation out;
  out.reserve(static_cast<size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w) {
    out.emplace_back(in[0].name(), in[0].schema());
  }
  return out;
}

/// One delivered channel buffer. `tag` is the (producer, epoch) sequence
/// number: a retransmitted or duplicated delivery reuses the tag of the
/// original, which is what lets the consumer discard duplicates without
/// inspecting payloads.
struct Delivery {
  uint32_t producer = 0;
  uint32_t epoch = 0;
  const std::vector<Value>* payload = nullptr;
};

/// Phase 2 of every shuffle: deliver the per-(producer, consumer) channel
/// buffers and concatenate them, per destination worker, in producer index
/// order — the exact tuple order a sequential scatter over (producer, row)
/// produces, so the shuffled fragments are bit-identical at every thread
/// count.
///
/// When a fault injector is active (or always, in debug builds) delivery
/// runs checked: injected channel faults drop or duplicate individual
/// deliveries, consumers deduplicate by sequence tag, and the conservation
/// invariant (values emitted == values delivered post-dedup) converts any
/// lost channel into Status::Internal instead of silently wrong results.
/// Fault probes happen serially on the coordinator, so the injected
/// schedule is independent of the pool's thread count.
Status DeliverAndMerge(size_t num_producers, const ChannelFn& channel,
                       const ShuffleAttempt& attempt,
                       DistributedRelation* out, ShuffleMetrics* metrics) {
  // Mid-exchange lifecycle poll: the scatter filled the channel buffers
  // but nothing has been delivered yet — the one coordinator decision
  // point inside an exchange. A cancel/deadline here surfaces through the
  // exchange recovery loop as a graceful FAIL.
  if (QueryLifecycle* lifecycle = ActiveQueryLifecycle()) {
    PTP_RETURN_IF_ERROR(lifecycle->Poll(metrics->label));
  }
  const size_t num_workers = out->size();
  FaultInjector* injector = ActiveFaultInjector();
  bool checked = injector != nullptr;
#ifndef NDEBUG
  checked = true;
#endif
  if (!checked) {
    return runtime::ParallelFor(
        static_cast<int>(num_workers), [&](int w) {
          const size_t wi = static_cast<size_t>(w);
          std::vector<Value>& dest = (*out)[wi].mutable_data();
          size_t total = dest.size();
          for (size_t p = 0; p < num_producers; ++p) {
            total += channel(p, wi)->size();
          }
          dest.reserve(total);
          for (size_t p = 0; p < num_producers; ++p) {
            const std::vector<Value>* buf = channel(p, wi);
            dest.insert(dest.end(), buf->begin(), buf->end());
          }
          return Status::OK();
        });
  }

  // Build each consumer's inbox on the coordinator. Probe order (producer-
  // major) is the serial delivery order, so every fault spec fires the same
  // way regardless of thread count.
  const uint32_t epoch = static_cast<uint32_t>(attempt.attempt);
  std::vector<std::vector<Delivery>> inbox(num_workers);
  size_t emitted_values = 0;
  for (size_t p = 0; p < num_producers; ++p) {
    for (size_t w = 0; w < num_workers; ++w) {
      const std::vector<Value>* buf = channel(p, w);
      emitted_values += buf->size();
      FaultInjector::ChannelFault fault = FaultInjector::ChannelFault::kNone;
      if (injector != nullptr) {
        fault = injector->OnChannel(attempt.exchange, metrics->label,
                                    static_cast<int>(p),
                                    static_cast<int>(w), attempt.attempt);
      }
      const Delivery delivery{static_cast<uint32_t>(p), epoch, buf};
      switch (fault) {
        case FaultInjector::ChannelFault::kDrop:
          break;  // the channel is never delivered
        case FaultInjector::ChannelFault::kDuplicate:
          inbox[w].push_back(delivery);
          inbox[w].push_back(delivery);  // retransmission, same tag
          break;
        case FaultInjector::ChannelFault::kNone:
          inbox[w].push_back(delivery);
          break;
      }
    }
  }

  std::vector<size_t> delivered_values(num_workers, 0);
  std::vector<size_t> deduped(num_workers, 0);
  Status status = runtime::ParallelFor(
      static_cast<int>(num_workers), [&](int w) {
        const size_t wi = static_cast<size_t>(w);
        std::vector<Value>& dest = (*out)[wi].mutable_data();
        // A tag is (producer, epoch); within one delivery epoch the
        // producer index identifies it.
        std::vector<uint8_t> seen(num_producers, 0);
        size_t total = dest.size();
        for (const Delivery& d : inbox[wi]) total += d.payload->size();
        dest.reserve(total);
        for (const Delivery& d : inbox[wi]) {
          if (seen[d.producer]) {
            ++deduped[wi];
            continue;
          }
          seen[d.producer] = 1;
          dest.insert(dest.end(), d.payload->begin(), d.payload->end());
          delivered_values[wi] += d.payload->size();
        }
        return Status::OK();
      });
  PTP_RETURN_IF_ERROR(status);

  size_t delivered = 0;
  for (size_t w = 0; w < num_workers; ++w) {
    delivered += delivered_values[w];
    metrics->dups_deduped += deduped[w];
  }
  if (delivered != emitted_values) {
    return Status::Internal(StrFormat(
        "shuffle conservation violated at '%s' (exchange %d, attempt %d): "
        "producers emitted %zu values, consumers received %zu",
        metrics->label.c_str(), attempt.exchange, attempt.attempt,
        emitted_values, delivered));
  }
  return Status::OK();
}

/// The commit tail every exchange shares: charge the channel payload bytes,
/// deliver and merge, publish the metrics, and record the profile.
/// `produced[p]` is the rows producer p wrote into its channels, broadcast
/// replicas included. The charge is released on return (on every path, so
/// a failed delivery attempt releases what its scatter charged) unless
/// `keep_charge` takes it over.
///
/// `entry` carries the exchange's key sketch (nullopt for a matrix-only
/// profile, so an unprofiled exchange allocates no sketch); the tail adds
/// the label and the channel matrix. It is recorded only after delivery
/// succeeded, so failed attempts leave no profile entry (mirroring the
/// counter accounting) and a recovered run profiles identically to a clean
/// one. Channel sizes are read coordinator-side between barriers, so the
/// recorded matrix is bit-identical at every thread count.
Status CommitExchange(size_t num_producers, size_t arity,
                      const ChannelFn& channel,
                      const std::vector<size_t>& produced,
                      const ShuffleAttempt& attempt,
                      std::optional<ShuffleProfile> entry,
                      ShuffleResult* result,
                      ScopedMemCharge* keep_charge = nullptr) {
  // Channel payload bytes (Σ produced × arity × 8): the same figure the
  // profiler's ChannelMatrix::TotalBytes() and the shuffle.bytes_sent
  // counter report, so the three accounts reconcile exactly.
  size_t rows_sent = 0;
  for (size_t rows : produced) rows_sent += rows;
  ScopedMemCharge channel_mem(MemCategory::kShuffleBuffer,
                              rows_sent * arity * sizeof(Value));
  PTP_RETURN_IF_ERROR(DeliverAndMerge(num_producers, channel, attempt,
                                      &result->data, &result->metrics));
  ShuffleMetrics* metrics = &result->metrics;
  metrics->producer_skew = SkewFactor(produced);
  metrics->consumer_skew = SkewFactor(FragmentSizes(result->data));
  metrics->tuples_sent = rows_sent;
  // Publish per-shuffle aggregates to the active observability sinks (one
  // nullptr branch each when disabled; never inside the per-tuple loops).
  // Bytes the bloom filter kept off the wire: the dropped tuples would have
  // shipped at this exchange's arity. bytes_sent below already reflects the
  // post-filter volume, so bytes_sent + bloom_bytes_saved is the unfiltered
  // figure — the reconciliation the conformance tests assert.
  metrics->bloom_bytes_saved =
      metrics->bloom_filtered * arity * sizeof(Value);
  if (CounterRegistry* reg = ActiveCounterRegistry()) {
    reg->Add("shuffle.count", 1);
    reg->Add("shuffle.tuples_sent", metrics->tuples_sent);
    reg->Add("shuffle.bytes_sent",
             metrics->tuples_sent * arity * sizeof(Value));
    if (metrics->dups_deduped > 0) {
      reg->Add("shuffle.dups_deduped", metrics->dups_deduped);
    }
    if (metrics->bloom_tested > 0) {
      reg->Add("bloom.tuples_tested", metrics->bloom_tested);
      reg->Add("bloom.tuples_filtered", metrics->bloom_filtered);
      reg->Add("bloom.probe_negatives", metrics->bloom_filtered);
      reg->Add("bloom.bytes_saved", metrics->bloom_bytes_saved);
    }
    Histogram* channels = reg->Hist("shuffle.channel_tuples");
    for (const Relation& frag : result->data) {
      channels->Record(frag.NumTuples());
    }
  }
  if (TraceSession* trace = ActiveTraceSession()) {
    trace->Counter("shuffle.tuples_sent",
                   static_cast<double>(metrics->tuples_sent));
    trace->Counter("shuffle.bytes_sent",
                   static_cast<double>(metrics->tuples_sent * arity *
                                       sizeof(Value)));
    trace->Instant("shuffle", metrics->label, kCoordinatorTrack);
  }
  if (QueryProfile* profile = ActiveQueryProfile()) {
    const size_t num_consumers = result->data.size();
    if (!entry) entry.emplace();
    entry->label = metrics->label;
    entry->matrix.Init(num_producers, num_consumers, arity);
    if (arity > 0) {
      for (size_t p = 0; p < num_producers; ++p) {
        for (size_t w = 0; w < num_consumers; ++w) {
          entry->matrix.At(p, w) = channel(p, w)->size() / arity;
        }
      }
    }
    profile->RecordShuffle(std::move(*entry));
  }
  if (keep_charge != nullptr) *keep_charge = std::move(channel_mem);
  return Status::OK();
}

/// Where a scatter exchange's profiled key sketch comes from.
struct SketchSource {
  /// kNone records the channel matrix only. kValue sketches sampled rows
  /// by their raw `value_col`; kHash by the route's key hash.
  SketchKeyKind kind = SketchKeyKind::kNone;
  int value_col = -1;
  /// Exact per-key-hash counts to record instead of row samples.
  const FlatCounter* exact = nullptr;
};

/// One producer's scatter output. The inner loop counts in locals and
/// stores the totals once per producer, so producers never write a shared
/// cache line per row.
struct ProducerOutput {
  /// A flat row buffer per destination worker: rows are appended value by
  /// value, so the loop performs no per-tuple allocation (only amortized
  /// geometric growth of the W buffers).
  std::vector<std::vector<Value>> dest;
  size_t produced = 0;  // rows written, broadcast replicas included
  size_t routed = 0;    // input rows that passed the filter
  size_t filtered = 0;  // input rows the filter dropped
  /// Arrival-map raw material, kept only when a filter is pushed: per
  /// destination, the channel's unfiltered row count and the survivors'
  /// unfiltered channel indices.
  std::vector<uint32_t> would;
  std::vector<std::vector<uint32_t>> kept_pos;
};

/// The scatter core behind every shuffle but broadcast: send each row of
/// `in` to a set of workers. `make_route(p)` returns producer p's route,
/// called as `route(row, &dests)`: it appends the row's destination workers
/// (distinct) to the cleared scratch `dests` and returns the row's key hash,
/// which the bloom filter and a kHash sketch read. A route keeps any
/// per-producer state (a round-robin cursor, scratch cells) in its own
/// closure.
///
/// With `bloom` non-null (sideways information passing, docs/KERNELS.md),
/// a row whose key hash the build-side filter has definitely not seen can
/// never join: it is dropped before it is copied into a channel buffer.
/// Each would-be destination still counts an arrival slot, broadcast
/// replicas included, so consumers can replay the unfiltered arrival order
/// (ShuffleResult::arrival). The drop decision is a pure function of the
/// row bytes and the filter, so a recovery replay filters bit-identically.
template <typename MakeRoute>
Result<ShuffleResult> ScatterExchange(const DistributedRelation& in,
                                      int num_workers, std::string label,
                                      const ShuffleAttempt& attempt,
                                      const BloomFilter* bloom,
                                      const MakeRoute& make_route,
                                      const SketchSource& sketch,
                                      ScopedMemCharge* keep_charge = nullptr) {
  const size_t num_producers = in.size();
  const size_t W = static_cast<size_t>(num_workers);
  const size_t arity = in[0].arity();
  ShuffleResult result;
  result.metrics.label = std::move(label);
  result.data = MakeEmpty(in, num_workers);

  // Profiling taps: the scatter loop only writes {key, hash} samples into
  // a preallocated flat buffer (one 16-byte store into the producer's
  // precomputed slice, no table probe or allocator call competing with the
  // scatter's destination buffers); the HotKeyShard is built and folded on
  // the coordinator, where its small table stays cache-hot. Exchanges
  // beyond the sample budget are sketched from a systematic 1-in-stride
  // row sample (stride chosen from total input size, so it is identical at
  // every thread count), each sampled tuple weighted by the stride.
  QueryProfile* profile = ActiveQueryProfile();
  const bool sampled = profile != nullptr &&
                       sketch.kind != SketchKeyKind::kNone &&
                       sketch.exact == nullptr;
  uint64_t stride = 1;
  int stride_shift = 0;
  struct KeySample {
    uint64_t key;
    uint64_t hash;
  };
  std::vector<size_t> sample_offsets;
  std::unique_ptr<KeySample[]> key_samples;
  if (sampled) {
    size_t total_rows = 0;
    for (const Relation& frag : in) total_rows += frag.NumTuples();
    while (total_rows / stride > kHotKeySampleBudget) {
      stride *= 2;
      ++stride_shift;
    }
    sample_offsets.assign(num_producers + 1, 0);
    for (size_t pi = 0; pi < num_producers; ++pi) {
      const size_t n = in[pi].NumTuples();
      // Rows 0, stride, 2*stride, ... are sampled: ceil(n / stride) slots,
      // every one of which the scatter writes exactly once.
      sample_offsets[pi + 1] = sample_offsets[pi] + (n + stride - 1) / stride;
    }
    key_samples.reset(new KeySample[sample_offsets.back()]);
  }

  std::vector<ProducerOutput> outs(num_producers);
  for (ProducerOutput& o : outs) {
    o.dest.resize(W);
    if (bloom != nullptr) {
      o.would.assign(W, 0);
      o.kept_pos.resize(W);
    }
  }
  Status status = runtime::ParallelFor(
      static_cast<int>(num_producers), [&](int p) {
        const size_t pi = static_cast<size_t>(p);
        const Relation& frag = in[pi];
        ProducerOutput& o = outs[pi];
        auto route = make_route(pi);
        std::vector<size_t> dests;
        size_t produced = 0;
        size_t routed = 0;
        size_t filtered = 0;
        const size_t n = frag.NumTuples();
        for (size_t row = 0; row < n; ++row) {
          const Value* t = frag.Row(row);
          dests.clear();
          const uint64_t h = route(t, &dests);
          if (sampled && (row & (stride - 1)) == 0) {
            // Sampled BEFORE the bloom test: the recorded key sketch
            // describes the producer-side key stream, so the profile's
            // hot-key attribution is identical with the filter on or off.
            key_samples[sample_offsets[pi] + (row >> stride_shift)] = {
                sketch.kind == SketchKeyKind::kValue
                    ? static_cast<uint64_t>(t[sketch.value_col])
                    : h,
                h};
          }
          if (bloom != nullptr) {
            const bool keep = bloom->MayContain(h);
            for (size_t w : dests) {
              const uint32_t slot = o.would[w]++;
              if (keep) o.kept_pos[w].push_back(slot);
            }
            if (!keep) {
              ++filtered;
              continue;
            }
            ++routed;
          }
          for (size_t w : dests) {
            std::vector<Value>& d = o.dest[w];
            d.insert(d.end(), t, t + arity);
          }
          produced += dests.size();
        }
        o.produced = produced;
        o.routed = routed;
        o.filtered = filtered;
        return Status::OK();
      });
  PTP_RETURN_IF_ERROR(status);

  std::vector<size_t> produced(num_producers);
  size_t input_rows = 0;
  size_t routed = 0;
  size_t dropped = 0;
  for (size_t p = 0; p < num_producers; ++p) {
    produced[p] = outs[p].produced;
    input_rows += in[p].NumTuples();
    routed += outs[p].routed;
    dropped += outs[p].filtered;
  }
  if (bloom != nullptr) {
    // Extended conservation at the scatter, over rows before replication:
    // every input row is either routed (its copies later checked by
    // DeliverAndMerge's emitted == delivered invariant) or accounted as
    // bloom-filtered.
    result.metrics.bloom_tested = input_rows;
    result.metrics.bloom_filtered = dropped;
    if (routed + dropped != input_rows) {
      return Status::Internal(StrFormat(
          "bloom conservation violated at '%s' (exchange %d, attempt %d): "
          "%zu input tuples, %zu routed + %zu filtered",
          result.metrics.label.c_str(), attempt.exchange, attempt.attempt,
          input_rows, routed, dropped));
    }
  }

  std::optional<ShuffleProfile> entry;
  if (profile != nullptr && sketch.kind != SketchKeyKind::kNone) {
    entry.emplace();
    entry->key_kind = sketch.kind;
    if (sketch.exact != nullptr) {
      std::vector<MisraGries::Entry> exact;
      exact.reserve(sketch.exact->size());
      for (size_t e = 0; e < sketch.exact->size(); ++e) {
        exact.push_back({sketch.exact->keys()[e], sketch.exact->counts()[e]});
      }
      entry->keys = MisraGries::FromCounts(std::move(exact));
    } else {
      // Fed in producer index order, so the order-sensitive truncation is
      // identical at every thread count. The shard's collision-decrement
      // slack and cancelled weight carry into the sketch's error bound and
      // total.
      const size_t num_samples = sample_offsets.back();
      HotKeyShard shard(num_samples);
      for (size_t s = 0; s < num_samples; ++s) {
        shard.Add(key_samples[s].key, key_samples[s].hash, stride);
      }
      std::vector<MisraGries::Entry> counts = shard.Entries();
      uint64_t surviving_total = 0;
      for (const MisraGries::Entry& e : counts) surviving_total += e.count;
      entry->keys = MisraGries::FromCounts(std::move(counts),
                                           shard.total() - surviving_total,
                                           shard.evicted_bound());
      entry->sample_stride = stride;
    }
  }

  PTP_RETURN_IF_ERROR(CommitExchange(
      num_producers, arity,
      [&outs](size_t p, size_t w) { return &outs[p].dest[w]; }, produced,
      attempt, std::move(entry), &result, keep_charge));

  if (bloom != nullptr) {
    // Assemble the virtual arrival map in the merge's producer-major
    // order: survivor r of channel (p, w) lands at (unfiltered rows of
    // earlier producers' channels to w) + its unfiltered channel index.
    result.arrival.resize(W);
    result.unfiltered_rows.assign(W, 0);
    for (size_t w = 0; w < W; ++w) {
      size_t offset = 0;
      for (size_t p = 0; p < num_producers; ++p) {
        for (uint32_t slot : outs[p].kept_pos[w]) {
          result.arrival[w].push_back(static_cast<uint32_t>(offset) + slot);
        }
        offset += outs[p].would[w];
      }
      result.unfiltered_rows[w] = offset;
      PTP_CHECK_EQ(result.arrival[w].size(), result.data[w].NumTuples());
    }
  }
  return result;
}

/// The exchanges' combined salted key hash (BuildShuffleBloomFilter hashes
/// build-side keys the same way).
uint64_t KeyHash(const Value* t, const std::vector<int>& cols, uint64_t salt) {
  uint64_t h = 0;
  for (int col : cols) h = HashCombine(h, HashWithSalt(t[col], salt));
  return h;
}

}  // namespace

Result<ShuffleResult> HashShuffle(const DistributedRelation& in,
                                  const std::vector<int>& key_cols,
                                  int num_workers, uint64_t salt,
                                  std::string label, ShuffleAttempt attempt,
                                  const BloomFilter* bloom) {
  if (in.empty()) {
    return Status::InvalidArgument("HashShuffle: input has no fragments");
  }
  if (key_cols.empty()) {
    return Status::InvalidArgument("HashShuffle: no key columns");
  }
  const size_t W = static_cast<size_t>(num_workers);
  // A single-column key is sketched by raw value; a composite key by its
  // combined salted hash.
  return ScatterExchange(
      in, num_workers, std::move(label), attempt, bloom,
      [&](size_t) {
        return [&](const Value* t, std::vector<size_t>* dests) {
          const uint64_t h = KeyHash(t, key_cols, salt);
          dests->push_back(h % W);
          return h;
        };
      },
      {key_cols.size() == 1 ? SketchKeyKind::kValue : SketchKeyKind::kHash,
       key_cols[0]});
}

Result<ShuffleResult> BroadcastShuffle(const DistributedRelation& in,
                                       int num_workers, std::string label,
                                       ShuffleAttempt attempt) {
  if (in.empty()) {
    return Status::InvalidArgument("BroadcastShuffle: input has no fragments");
  }
  ShuffleResult result;
  result.metrics.label = std::move(label);
  result.data = MakeEmpty(in, num_workers);
  // Zero-copy: producer p's channel to every consumer is p's full
  // (read-only) fragment, so every destination receives every fragment in
  // fragment order. The charged bytes are the logical channel payloads,
  // each consumer's inbox copy (what a real cluster would buffer). No
  // per-key routing, so the profile records the matrix alone.
  std::vector<size_t> produced(in.size(), 0);
  for (size_t p = 0; p < in.size(); ++p) {
    produced[p] = in[p].NumTuples() * static_cast<size_t>(num_workers);
  }
  PTP_RETURN_IF_ERROR(CommitExchange(
      in.size(), in[0].arity(),
      [&in](size_t p, size_t) { return &in[p].data(); }, produced, attempt,
      std::nullopt, &result));
  return result;
}

Result<ShuffleResult> HypercubeShuffle(
    const DistributedRelation& in, const std::vector<std::string>& atom_vars,
    const HypercubeConfig& config, const std::vector<int>& worker_of_cell,
    int num_workers, std::string label, ShuffleAttempt attempt) {
  if (in.empty()) {
    return Status::InvalidArgument("HypercubeShuffle: input has no fragments");
  }
  if (worker_of_cell.size() != static_cast<size_t>(config.NumCells())) {
    return Status::InvalidArgument(StrFormat(
        "HypercubeShuffle: cell map has %zu entries for %d cells",
        worker_of_cell.size(), config.NumCells()));
  }
  const HypercubeRouter router(config, atom_vars);
  // HyperCube routes by cell coordinates, not a single key: no key hash, no
  // key sketch. Replication shows up as channel-matrix row totals larger
  // than the fragment sizes.
  return ScatterExchange(
      in, num_workers, std::move(label), attempt, nullptr,
      [&](size_t) {
        return [&, cells = std::vector<int>()](
                   const Value* t, std::vector<size_t>* dests) mutable {
          cells.clear();
          router.Route(t, &cells);
          // Cells mapped to the same worker get one physical copy.
          for (int cell : cells) {
            dests->push_back(static_cast<size_t>(
                worker_of_cell[static_cast<size_t>(cell)]));
          }
          std::sort(dests->begin(), dests->end());
          dests->erase(std::unique(dests->begin(), dests->end()),
                       dests->end());
          return uint64_t{0};
        };
      },
      SketchSource());
}

ShuffleResult KeepInPlace(const DistributedRelation& in, std::string label) {
  ShuffleResult result;
  result.data = in;
  result.metrics.label = std::move(label);
  result.metrics.tuples_sent = 0;
  result.metrics.producer_skew = 1.0;
  result.metrics.consumer_skew = SkewFactor(FragmentSizes(in));
  return result;
}

Result<SkewAwareShuffleResult> SkewAwareJoinShuffle(
    const DistributedRelation& left, const std::vector<int>& left_cols,
    const DistributedRelation& right, const std::vector<int>& right_cols,
    int num_workers, uint64_t salt, double threshold, std::string label,
    ShuffleAttempt left_attempt, ShuffleAttempt right_attempt,
    const BloomFilter* right_bloom) {
  if (left.empty() || right.empty()) {
    return Status::InvalidArgument(
        "SkewAwareJoinShuffle: input has no fragments");
  }
  if (left_cols.empty() || left_cols.size() != right_cols.size()) {
    return Status::InvalidArgument(
        "SkewAwareJoinShuffle: mismatched key columns");
  }
  const size_t W = static_cast<size_t>(num_workers);

  // Pass 1: global key frequencies on the left side (in a real cluster this
  // is a sampled sketch; exact counts keep the simulation deterministic).
  // Per-fragment flat counters merge into one in (fragment, first-seen)
  // order; addition commutes, so the totals are independent of merge order
  // and thread count.
  std::vector<FlatCounter> frag_freq(left.size());
  size_t left_total = 0;
  Status status = runtime::ParallelFor(
      static_cast<int>(left.size()), [&](int p) {
        const size_t pi = static_cast<size_t>(p);
        const Relation& frag = left[pi];
        frag_freq[pi].Reserve(frag.NumTuples());
        for (size_t row = 0; row < frag.NumTuples(); ++row) {
          frag_freq[pi].Add(KeyHash(frag.Row(row), left_cols, salt), 1);
        }
        return Status::OK();
      });
  PTP_RETURN_IF_ERROR(status);
  FlatCounter freq;
  for (size_t p = 0; p < left.size(); ++p) {
    left_total += left[p].NumTuples();
    const FlatCounter& fc = frag_freq[p];
    for (size_t e = 0; e < fc.size(); ++e) {
      freq.Add(fc.keys()[e], fc.counts()[e]);
    }
  }
  const double heavy_cutoff =
      threshold * std::max(1.0, static_cast<double>(left_total) /
                                    static_cast<double>(num_workers));
  // A key is heavy when its global left-side frequency exceeds the cutoff;
  // keys absent from `freq` (right-side-only) count as zero, i.e. light.
  auto is_heavy = [&freq, heavy_cutoff](uint64_t key) {
    return static_cast<double>(freq.Count(key)) > heavy_cutoff;
  };
  SkewAwareShuffleResult result;
  for (size_t e = 0; e < freq.size(); ++e) {
    if (static_cast<double>(freq.counts()[e]) > heavy_cutoff) {
      ++result.heavy_keys;
    }
  }

  // Pass 2: left side — heavy keys round-robin, light keys hashed. The
  // round-robin cursor of the sequential scatter advances in (producer,
  // row) order, so producer p's cursor starts at the number of heavy
  // tuples in producers 0..p-1: precompute those prefix offsets and each
  // producer routes independently, bit-identically to the serial scan.
  std::vector<size_t> rr_offset(left.size() + 1, 0);
  for (size_t p = 0; p < left.size(); ++p) {
    rr_offset[p + 1] = rr_offset[p];
    const FlatCounter& fc = frag_freq[p];
    for (size_t e = 0; e < fc.size(); ++e) {
      if (is_heavy(fc.keys()[e])) rr_offset[p + 1] += fc.counts()[e];
    }
  }
  // The left side's channel charge stays held until the right side has
  // committed: both sides' buffers are live together. Its profile sketch
  // reuses pass 1's exact global counts (merged in producer order), keyed
  // by the combined salted hashes pass 1 counted.
  ScopedMemCharge left_mem;
  PTP_ASSIGN_OR_RETURN(
      ShuffleResult left_out,
      ScatterExchange(
          left, num_workers, label + " (left, skew-aware)", left_attempt,
          nullptr,
          [&](size_t p) {
            return [&, rr = rr_offset[p]](const Value* t,
                                          std::vector<size_t>* dests) mutable {
              const uint64_t h = KeyHash(t, left_cols, salt);
              dests->push_back(is_heavy(h) ? rr++ % W : h % W);
              return h;
            };
          },
          SketchSource{SketchKeyKind::kHash, -1, &freq}, &left_mem));

  // Pass 3: right side — heavy keys broadcast, light keys hashed. The bloom
  // test runs BEFORE the heavy/light routing decision: heavy keys are by
  // construction frequent on the left (the filter's build side), so they
  // always pass the filter — a heavy right tuple is dropped only when its
  // key never occurs on the left at all, which is exactly the doomed case.
  // Heavy/light classification comes from the LEFT side's frequencies,
  // untouched by the right-side filter, so the arrival map reproduces the
  // unfiltered routing exactly. The right side mixes per-key hashing with
  // heavy-key broadcast, so a key sketch would double-count replicated
  // tuples; the profile records the matrix only.
  PTP_ASSIGN_OR_RETURN(
      ShuffleResult right_out,
      ScatterExchange(
          right, num_workers, label + " (right, skew-aware)", right_attempt,
          right_bloom,
          [&](size_t) {
            return [&](const Value* t, std::vector<size_t>* dests) {
              const uint64_t h = KeyHash(t, right_cols, salt);
              if (is_heavy(h)) {
                for (size_t w = 0; w < W; ++w) dests->push_back(w);
              } else {
                dests->push_back(h % W);
              }
              return h;
            };
          },
          SketchSource()));
  result.left = std::move(left_out.data);
  result.left_metrics = std::move(left_out.metrics);
  result.right = std::move(right_out.data);
  result.right_metrics = std::move(right_out.metrics);
  result.right_arrival = std::move(right_out.arrival);
  result.right_unfiltered_rows = std::move(right_out.unfiltered_rows);
  return result;
}

std::vector<int> IdentityCellMap(const HypercubeConfig& config) {
  std::vector<int> map(static_cast<size_t>(config.NumCells()));
  for (size_t i = 0; i < map.size(); ++i) map[i] = static_cast<int>(i);
  return map;
}

}  // namespace ptp
