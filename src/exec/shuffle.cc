#include "exec/shuffle.h"

#include <algorithm>
#include <cstring>
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

/// Rows in the (producer, consumer) channel of an exchange. A channel is an
/// (offset, length) view of its destination fragment: producer p's rows sit
/// in fragment w right after those of producers 0..p-1. Delivery, the
/// conservation check and the profile's channel matrix read only lengths.
using ChannelRowsFn = std::function<size_t(size_t p, size_t w)>;

DistributedRelation MakeEmpty(const DistributedRelation& in,
                              int num_workers) {
  DistributedRelation out;
  out.reserve(static_cast<size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w) {
    out.emplace_back(in[0].name(), in[0].schema());
  }
  return out;
}

/// Delivery bookkeeping of every shuffle, run on the coordinator over the
/// channel lengths before any row is placed. Each channel is delivered with
/// a (producer, epoch) sequence tag: a retransmitted or duplicated delivery
/// reuses the tag of the original, so a consumer discards duplicates
/// without inspecting payloads. The conservation invariant (values emitted
/// == values delivered after dedup) turns any lost channel into
/// Status::Internal instead of silently wrong results; it costs O(P x W)
/// and runs on every exchange. An active fault injector decides, per
/// channel, whether it is dropped or duplicated. Channels are probed in
/// producer-major order, empty ones included, so the injected schedule is
/// independent of the pool's thread count.
Status DeliverChannels(size_t num_producers, size_t num_workers, size_t arity,
                       const ChannelRowsFn& channel_rows,
                       const ShuffleAttempt& attempt,
                       ShuffleMetrics* metrics) {
  // Mid-exchange lifecycle poll: the rows are routed and counted but
  // nothing has been delivered or placed yet — the one coordinator decision
  // point inside an exchange. A cancel/deadline here skips the row copy and
  // surfaces through the exchange recovery loop as a graceful FAIL.
  if (QueryLifecycle* lifecycle = ActiveQueryLifecycle()) {
    PTP_RETURN_IF_ERROR(lifecycle->Poll(metrics->label));
  }
  FaultInjector* injector = ActiveFaultInjector();
  size_t emitted = 0;
  size_t delivered = 0;
  for (size_t p = 0; p < num_producers; ++p) {
    for (size_t w = 0; w < num_workers; ++w) {
      const size_t values = channel_rows(p, w) * arity;
      emitted += values;
      FaultInjector::ChannelFault fault = FaultInjector::ChannelFault::kNone;
      if (injector != nullptr) {
        fault = injector->OnChannel(attempt.exchange, metrics->label,
                                    static_cast<int>(p),
                                    static_cast<int>(w), attempt.attempt);
      }
      switch (fault) {
        case FaultInjector::ChannelFault::kDrop:
          break;  // the channel is never delivered
        case FaultInjector::ChannelFault::kDuplicate:
          // The retransmission carries the original's (producer, epoch)
          // tag, which consumer w already holds: it is discarded.
          ++metrics->dups_deduped;
          [[fallthrough]];
        case FaultInjector::ChannelFault::kNone:
          delivered += values;
          break;
      }
    }
  }
  if (delivered != emitted) {
    return Status::Internal(StrFormat(
        "shuffle conservation violated at '%s' (exchange %d, attempt %d): "
        "producers emitted %zu values, consumers received %zu",
        metrics->label.c_str(), attempt.exchange, attempt.attempt, emitted,
        delivered));
  }
  return Status::OK();
}

/// The commit tail every exchange shares: charge the channel payload bytes,
/// deliver the channels, `place` the rows into `result->data`, publish the
/// metrics, and record the profile. `produced[p]` is the rows producer p
/// sent, broadcast replicas included. The charge is released on return (on
/// every path, so a failed delivery attempt releases what it charged)
/// unless `keep_charge` takes it over.
///
/// `entry` carries the exchange's key sketch (nullopt for a matrix-only
/// profile, so an unprofiled exchange allocates no sketch); the tail adds
/// the label and the channel matrix. It is recorded only after delivery
/// succeeded, so failed attempts leave no profile entry (mirroring the
/// counter accounting) and a recovered run profiles identically to a clean
/// one. Channel lengths are read coordinator-side between barriers, so the
/// recorded matrix is bit-identical at every thread count.
Status CommitExchange(size_t num_producers, size_t arity,
                      const ChannelRowsFn& channel_rows,
                      const std::vector<size_t>& produced,
                      const ShuffleAttempt& attempt,
                      const std::function<Status()>& place,
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
  const size_t num_consumers = result->data.size();
  PTP_RETURN_IF_ERROR(DeliverChannels(num_producers, num_consumers, arity,
                                      channel_rows, attempt,
                                      &result->metrics));
  PTP_RETURN_IF_ERROR(place());
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
    if (!entry) entry.emplace();
    entry->label = metrics->label;
    entry->matrix.Init(num_producers, num_consumers, arity);
    for (size_t p = 0; p < num_producers; ++p) {
      for (size_t w = 0; w < num_consumers; ++w) {
        entry->matrix.At(p, w) = channel_rows(p, w);
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

/// One row's destination workers, as a route writes them: distinct
/// workers in a W-slot scratch that the producer allocates once.
struct Destinations {
  uint32_t* worker = nullptr;
  size_t n = 0;
  void Add(size_t w) { worker[n++] = static_cast<uint32_t>(w); }
};

/// Encoding of pass 1's per-producer destination record, one entry per row
/// copy in row order. A row with no copies (bloom-dropped) is one kNoCopy;
/// every copy of a row but its last carries kMoreCopies, so pass 2 knows
/// when to step to the next row. Workers are below 2^31 (an int count).
constexpr uint32_t kMoreCopies = 0x80000000u;
constexpr uint32_t kNoCopy = 0xFFFFFFFFu;

/// One producer's scatter output. Pass 1 counts in locals and stores the
/// results once per producer, so producers never write a shared cache line
/// per row.
struct ProducerOutput {
  /// Pass 1's destinations (encoded as above): pass 2 copies by them
  /// without re-routing or re-hashing.
  std::vector<uint32_t> dests;
  /// rows[w]: the length of channel (this producer, w).
  std::vector<size_t> rows;
  size_t produced = 0;  // rows sent, broadcast replicas included
  size_t routed = 0;    // input rows that passed the filter
  size_t filtered = 0;  // input rows the filter dropped
  /// Arrival-map raw material, kept only when a filter is pushed: per
  /// destination, the channel's unfiltered row count and the survivors'
  /// unfiltered channel indices.
  std::vector<uint32_t> would;
  std::vector<std::vector<uint32_t>> kept_pos;
};

/// A producer's slice of one destination fragment during pass 2: the next
/// value to write and the slice's end.
struct Slice {
  Value* next = nullptr;
  const Value* end = nullptr;
};

/// Pass 2 of a scatter for one producer: copies each row of `frag` into the
/// slices of the destinations pass 1 recorded in `dests`. `kWidth` fixes
/// the row copy at compile time; 0 copies `arity` values through memcpy.
/// Returns the first destination that gets more copies than pass 1 counted
/// for it, having written nothing past its slice's end, or nullopt when
/// every copy fit.
template <size_t kWidth>
std::optional<size_t> PlaceRows(const Relation& frag, size_t arity,
                                const std::vector<uint32_t>& dests,
                                Slice* slices) {
  const Value* src = frag.data().data();
  for (const uint32_t d : dests) {
    if (d == kNoCopy) {
      src += arity;
      continue;
    }
    const size_t w = d & ~kMoreCopies;
    Slice& slice = slices[w];
    if (slice.next == slice.end) return w;
    if constexpr (kWidth == 0) {
      std::memcpy(slice.next, src, arity * sizeof(Value));
      slice.next += arity;
    } else {
      for (size_t k = 0; k < kWidth; ++k) slice.next[k] = src[k];
      slice.next += kWidth;
    }
    if ((d & kMoreCopies) == 0) src += arity;
  }
  return std::nullopt;
}

/// The scatter core behind every shuffle but broadcast: send each row of
/// `in` to a set of workers. `make_route(p)` returns producer p's route,
/// called as `route(row, &dests)`: it adds the row's distinct destination
/// workers to the cleared `dests` and returns the row's key hash, which the
/// bloom filter and a kHash sketch read. A route keeps any per-producer
/// state (a round-robin cursor, scratch cells) in its own closure.
///
/// The exchange counts, then places. Pass 1 routes every row, applies the
/// bloom drop, takes the profile samples, counts rows per (producer,
/// destination) and records each copy's destination. Prefix sums give
/// producer p the slice of destination w that follows the rows of
/// producers 0..p-1 — the producer-major order of a sequential scatter
/// over (producer, row), so fragments are bit-identical at every thread
/// count. After delivery, each destination is sized once and pass 2 copies
/// every row straight into its slices: one copy per row, no channel
/// buffers.
///
/// With `bloom` non-null (sideways information passing, docs/KERNELS.md),
/// a row whose key hash the build-side filter has definitely not seen can
/// never join: it is dropped in pass 1 and never copied. Each would-be
/// destination still counts an arrival slot, broadcast replicas included,
/// so consumers can replay the unfiltered arrival order
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
  // precomputed slice, no table probe or allocator call in the routing
  // loop); the HotKeyShard is built and folded on the coordinator, where
  // its small table stays cache-hot. Exchanges beyond the sample budget are
  // sketched from a systematic 1-in-stride row sample (stride chosen from
  // total input size, so it is identical at every thread count), each
  // sampled tuple weighted by the stride.
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

  // Pass 1: route, filter, sample and count.
  std::vector<ProducerOutput> outs(num_producers);
  Status status = runtime::ParallelFor(
      static_cast<int>(num_producers), [&](int p) {
        const size_t pi = static_cast<size_t>(p);
        const Relation& frag = in[pi];
        ProducerOutput& o = outs[pi];
        auto route = make_route(pi);
        std::unique_ptr<uint32_t[]> scratch(new uint32_t[W]);
        Destinations d{scratch.get()};
        std::vector<size_t> rows(W, 0);
        std::vector<uint32_t> would;
        std::vector<std::vector<uint32_t>> kept_pos;
        if (bloom != nullptr) {
          would.assign(W, 0);
          kept_pos.resize(W);
        }
        const size_t n = frag.NumTuples();
        std::vector<uint32_t> dests;
        dests.reserve(n);
        size_t produced = 0;
        size_t routed = 0;
        size_t filtered = 0;
        for (size_t row = 0; row < n; ++row) {
          const Value* t = frag.Row(row);
          d.n = 0;
          const uint64_t h = route(t, &d);
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
            for (size_t i = 0; i < d.n; ++i) {
              const uint32_t slot = would[d.worker[i]]++;
              if (keep) kept_pos[d.worker[i]].push_back(slot);
            }
            if (keep) {
              ++routed;
            } else {
              ++filtered;
              d.n = 0;
            }
          }
          if (d.n == 0) {
            dests.push_back(kNoCopy);
            continue;
          }
          for (size_t i = 0; i < d.n; ++i) {
            ++rows[d.worker[i]];
            dests.push_back(d.worker[i] | (i + 1 < d.n ? kMoreCopies : 0));
          }
          produced += d.n;
        }
        o.dests = std::move(dests);
        o.rows = std::move(rows);
        o.would = std::move(would);
        o.kept_pos = std::move(kept_pos);
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
    // DeliverChannels' emitted == delivered invariant) or accounted as
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

  // Prefix sums: slice_start[p * W + w] is the first row of producer p's
  // slice of destination w; dest_rows[w] ends up as w's fragment size.
  std::vector<size_t> slice_start(num_producers * W);
  std::vector<size_t> dest_rows(W, 0);
  for (size_t p = 0; p < num_producers; ++p) {
    for (size_t w = 0; w < W; ++w) {
      slice_start[p * W + w] = dest_rows[w];
      dest_rows[w] += outs[p].rows[w];
    }
  }
  // Pass 2: size each destination once, then every producer copies its
  // rows straight into its slices. Each producer's cursor for worker w must
  // end exactly where its slice ends: a pass 1 / pass 2 disagreement is an
  // Internal error, not silently misplaced rows or a write past a slice.
  auto place = [&]() -> Status {
    // Sizing zero-fills the fragments, so it is spread over the pool.
    PTP_RETURN_IF_ERROR(runtime::ParallelFor(num_workers, [&](int w) {
      const size_t wi = static_cast<size_t>(w);
      result.data[wi].mutable_data().resize(dest_rows[wi] * arity);
      return Status::OK();
    }));
    return runtime::ParallelFor(static_cast<int>(num_producers), [&](int p) {
      const size_t pi = static_cast<size_t>(p);
      const ProducerOutput& o = outs[pi];
      std::vector<Slice> slices(W);
      for (size_t w = 0; w < W; ++w) {
        Value* fragment = result.data[w].mutable_data().data();
        slices[w].next = fragment + slice_start[pi * W + w] * arity;
        slices[w].end = slices[w].next + o.rows[w] * arity;
      }
      std::optional<size_t> overflowed;
      switch (arity) {
        case 1:
          overflowed = PlaceRows<1>(in[pi], arity, o.dests, slices.data());
          break;
        case 2:
          overflowed = PlaceRows<2>(in[pi], arity, o.dests, slices.data());
          break;
        case 3:
          overflowed = PlaceRows<3>(in[pi], arity, o.dests, slices.data());
          break;
        case 4:
          overflowed = PlaceRows<4>(in[pi], arity, o.dests, slices.data());
          break;
        default:
          overflowed = PlaceRows<0>(in[pi], arity, o.dests, slices.data());
      }
      auto violated = [&](size_t w, const char* what) {
        return Status::Internal(StrFormat(
            "shuffle placement violated at '%s' (exchange %d, attempt %d): "
            "producer %zu's copies %s its slice of worker %zu (%zu rows "
            "counted)",
            result.metrics.label.c_str(), attempt.exchange, attempt.attempt,
            pi, what, w, o.rows[w]));
      };
      if (overflowed) return violated(*overflowed, "overflow");
      for (size_t w = 0; w < W; ++w) {
        if (slices[w].next != slices[w].end) return violated(w, "underfill");
      }
      return Status::OK();
    });
  };
  PTP_RETURN_IF_ERROR(CommitExchange(
      num_producers, arity,
      [&outs](size_t p, size_t w) { return outs[p].rows[w]; }, produced,
      attempt, place, std::move(entry), &result, keep_charge));

  if (bloom != nullptr) {
    // Assemble the virtual arrival map in the placement's producer-major
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
        return [&](const Value* t, Destinations* dests) {
          const uint64_t h = KeyHash(t, key_cols, salt);
          dests->Add(h % W);
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
  // Producer p's channel to every consumer is p's full fragment, so every
  // destination receives every fragment in fragment order: each fragment
  // is copied once into each of the W destinations. The charged bytes are
  // the channel payloads, each consumer's copy. No per-key routing, so the
  // profile records the matrix alone.
  std::vector<size_t> produced(in.size(), 0);
  size_t total_values = 0;
  for (size_t p = 0; p < in.size(); ++p) {
    produced[p] = in[p].NumTuples() * static_cast<size_t>(num_workers);
    total_values += in[p].data().size();
  }
  auto place = [&]() {
    return runtime::ParallelFor(num_workers, [&](int w) {
      std::vector<Value>& dest =
          result.data[static_cast<size_t>(w)].mutable_data();
      dest.reserve(total_values);
      for (const Relation& frag : in) {
        dest.insert(dest.end(), frag.data().begin(), frag.data().end());
      }
      return Status::OK();
    });
  };
  PTP_RETURN_IF_ERROR(CommitExchange(
      in.size(), in[0].arity(),
      [&in](size_t p, size_t) { return in[p].NumTuples(); }, produced,
      attempt, place, std::nullopt, &result));
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
        return [&, cells = std::vector<int>(),
                hit = std::vector<uint8_t>(static_cast<size_t>(num_workers))](
                   const Value* t, Destinations* dests) mutable {
          cells.clear();
          router.Route(t, &cells);
          // Cells mapped to the same worker get one physical copy.
          for (int cell : cells) {
            const size_t w =
                static_cast<size_t>(worker_of_cell[static_cast<size_t>(cell)]);
            if (!hit[w]) {
              hit[w] = 1;
              dests->Add(w);
            }
          }
          for (size_t i = 0; i < dests->n; ++i) hit[dests->worker[i]] = 0;
          return uint64_t{0};
        };
      },
      SketchSource());
}

ShuffleResult KeepInPlace(DistributedRelation in, std::string label) {
  ShuffleResult result;
  result.metrics.label = std::move(label);
  result.metrics.tuples_sent = 0;
  result.metrics.producer_skew = 1.0;
  result.metrics.consumer_skew = SkewFactor(FragmentSizes(in));
  result.data = std::move(in);
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
                                          Destinations* dests) mutable {
              const uint64_t h = KeyHash(t, left_cols, salt);
              dests->Add(is_heavy(h) ? rr++ % W : h % W);
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
            return [&](const Value* t, Destinations* dests) {
              const uint64_t h = KeyHash(t, right_cols, salt);
              if (is_heavy(h)) {
                for (size_t w = 0; w < W; ++w) dests->Add(w);
              } else {
                dests->Add(h % W);
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
