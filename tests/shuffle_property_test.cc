// Property tests for the shuffle layer: content preservation,
// co-partitioning, determinism, the HyperCube meeting guarantee, the
// bloom-filtered exchanges' virtual arrival map, and count-then-place
// against a naive sequential scatter (fragments, channel matrix, channel
// faults, allocations), across randomized inputs and cluster sizes.

#include <functional>
#include <map>
#include <memory>
#include <set>

#include "alloc_counter.h"
#include "common/hash.h"
#include "exec/bloom.h"
#include "exec/local_ops.h"
#include "exec/shuffle.h"
#include "fault/fault.h"
#include "gtest/gtest.h"
#include "obs/profile.h"
#include "obs/resource.h"
#include "runtime/parallel.h"
#include "test_util.h"

namespace ptp {
namespace {

class HashShuffleSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(HashShuffleSweep, PreservesAndCoPartitions) {
  const auto [seed, workers] = GetParam();
  Rng rng(static_cast<uint64_t>(seed));
  Relation rel = test::RandomBinaryRelation("R", {"x", "y"}, 300, 40, &rng);
  DistributedRelation dist = PartitionRoundRobin(rel, workers);
  ShuffleResult sr = HashShuffle(dist, {1}, workers, 12345, "t").value();
  EXPECT_TRUE(Gather(sr.data).EqualsUnordered(rel));
  EXPECT_EQ(sr.metrics.tuples_sent, rel.NumTuples());
  std::map<Value, size_t> home;
  for (size_t w = 0; w < sr.data.size(); ++w) {
    for (size_t row = 0; row < sr.data[w].NumTuples(); ++row) {
      auto [it, inserted] = home.emplace(sr.data[w].At(row, 1), w);
      EXPECT_EQ(it->second, w);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SeedsWorkers, HashShuffleSweep,
                         ::testing::Combine(::testing::Range(0, 4),
                                            ::testing::Values(1, 2, 5, 16)));

TEST(HashShuffleTest, DeterministicAcrossCalls) {
  Rng rng(5);
  Relation rel = test::RandomBinaryRelation("R", {"x", "y"}, 100, 20, &rng);
  DistributedRelation dist = PartitionRoundRobin(rel, 6);
  ShuffleResult a = HashShuffle(dist, {0}, 6, 9, "a").value();
  ShuffleResult b = HashShuffle(dist, {0}, 6, 9, "b").value();
  for (size_t w = 0; w < 6; ++w) {
    EXPECT_EQ(a.data[w].data(), b.data[w].data());
  }
}

TEST(HashShuffleTest, DifferentSaltsGiveDifferentPartitions) {
  Rng rng(6);
  Relation rel = test::RandomBinaryRelation("R", {"x", "y"}, 400, 200, &rng);
  DistributedRelation dist = PartitionRoundRobin(rel, 8);
  ShuffleResult a = HashShuffle(dist, {0}, 8, 1, "a").value();
  ShuffleResult b = HashShuffle(dist, {0}, 8, 2, "b").value();
  bool any_difference = false;
  for (size_t w = 0; w < 8; ++w) {
    if (a.data[w].data() != b.data[w].data()) any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

// HyperCube property over random configurations: every pair of tuples that
// joins must meet on exactly one worker under the identity cell map.
class HypercubeMeetSweep : public ::testing::TestWithParam<int> {};

TEST_P(HypercubeMeetSweep, BinaryJoinMeetsExactlyOnce) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  HypercubeConfig config;
  config.join_vars = {"a", "b", "c"};
  config.dims = {static_cast<int>(1 + rng.Uniform(4)),
                 static_cast<int>(1 + rng.Uniform(4)),
                 static_cast<int>(1 + rng.Uniform(4))};
  config.salt = rng.Next();
  HypercubeRouter r1(config, {"a", "b"});
  HypercubeRouter r2(config, {"b", "c"});
  HypercubeRouter r3(config, {"c", "a"});
  for (int trial = 0; trial < 50; ++trial) {
    const Value a = static_cast<Value>(rng.Uniform(100));
    const Value b = static_cast<Value>(rng.Uniform(100));
    const Value c = static_cast<Value>(rng.Uniform(100));
    Value t1[] = {a, b}, t2[] = {b, c}, t3[] = {c, a};
    std::vector<int> c1, c2, c3;
    r1.Route(t1, &c1);
    r2.Route(t2, &c2);
    r3.Route(t3, &c3);
    std::set<int> s1(c1.begin(), c1.end());
    std::set<int> s2(c2.begin(), c2.end());
    std::set<int> s3(c3.begin(), c3.end());
    int common = 0;
    for (int cell : s1) {
      if (s2.count(cell) && s3.count(cell)) ++common;
    }
    EXPECT_EQ(common, 1) << "dims " << config.dims[0] << "x"
                         << config.dims[1] << "x" << config.dims[2];
    // Replication factors are exactly the unbound dimension products.
    EXPECT_EQ(static_cast<int>(c1.size()), config.dims[2]);
    EXPECT_EQ(static_cast<int>(c2.size()), config.dims[0]);
    EXPECT_EQ(static_cast<int>(c3.size()), config.dims[1]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HypercubeMeetSweep, ::testing::Range(0, 10));

TEST(HypercubeShuffleTest, SharedWorkerReceivesOneCopy) {
  // With a cell map sending all cells to one worker, each tuple must be
  // physically sent once despite multiple destination cells.
  Relation rel("R", Schema{"x", "y"});
  for (Value i = 0; i < 50; ++i) rel.AddTuple({i, i + 1});
  HypercubeConfig config;
  config.join_vars = {"x", "y", "z"};
  config.dims = {2, 2, 4};
  std::vector<int> all_to_zero(static_cast<size_t>(config.NumCells()), 0);
  ShuffleResult sr = HypercubeShuffle(PartitionRoundRobin(rel, 4), {"x", "y"},
                                      config, all_to_zero, 4, "t")
                         .value();
  EXPECT_EQ(sr.metrics.tuples_sent, rel.NumTuples());  // one copy each
  EXPECT_EQ(sr.data[0].NumTuples(), rel.NumTuples());
}

TEST(SkewAwareShuffleTest, JoinResultUnchangedAndSkewBounded) {
  // One mega-hub key y=0 would normally drown a single worker.
  Relation left("L", Schema{"x", "y"});
  Relation right("R", Schema{"y", "z"});
  for (Value i = 0; i < 600; ++i) left.AddTuple({i, 0});
  for (Value i = 0; i < 100; ++i) left.AddTuple({i, 1 + i % 7});
  for (Value i = 0; i < 40; ++i) right.AddTuple({0, i});
  for (Value i = 0; i < 40; ++i) right.AddTuple({1 + i % 7, 100 + i});

  const int kW = 8;
  auto dl = PartitionRoundRobin(left, kW);
  auto dr = PartitionRoundRobin(right, kW);
  SkewAwareShuffleResult sa =
      SkewAwareJoinShuffle(dl, {1}, dr, {0}, kW, 3, 2.0, "t").value();
  EXPECT_GE(sa.heavy_keys, 1u);

  // Left content preserved exactly; right replicated only for heavy keys.
  EXPECT_TRUE(Gather(sa.left).EqualsUnordered(left));
  EXPECT_GT(sa.right_metrics.tuples_sent, right.NumTuples());

  // Consumer skew on the left must be bounded (plain hashing would put all
  // 600 hub tuples on one worker: skew ~6.9).
  ShuffleResult plain = HashShuffle(dl, {1}, kW, 3, "plain").value();
  EXPECT_GT(plain.metrics.consumer_skew, 3.0);
  EXPECT_LT(sa.left_metrics.consumer_skew, 2.0);

  // The distributed join result matches the plain-shuffle join.
  auto join_all = [&](const DistributedRelation& a,
                      const DistributedRelation& b) {
    Relation out("out", Schema{"x", "y", "z"});
    for (int w = 0; w < kW; ++w) {
      Relation j = SymmetricHashJoinLocal(a[static_cast<size_t>(w)],
                                          b[static_cast<size_t>(w)]);
      Relation p = ProjectToVars(j, {"x", "y", "z"});
      out.mutable_data().insert(out.mutable_data().end(), p.data().begin(),
                                p.data().end());
    }
    return out;
  };
  ShuffleResult plain_r = HashShuffle(dr, {0}, kW, 3, "plain_r").value();
  Relation expected = join_all(plain.data, plain_r.data);
  Relation actual = join_all(sa.left, sa.right);
  EXPECT_TRUE(actual.EqualsUnordered(expected));
}

TEST(SkewAwareShuffleTest, NoHeavyKeysDegeneratesToHashShuffle) {
  Rng rng(12);
  Relation left = test::RandomBinaryRelation("L", {"x", "y"}, 200, 190, &rng);
  Relation right = test::RandomBinaryRelation("R", {"y", "z"}, 200, 190, &rng);
  auto dl = PartitionRoundRobin(left, 4);
  auto dr = PartitionRoundRobin(right, 4);
  SkewAwareShuffleResult sa =
      SkewAwareJoinShuffle(dl, {1}, dr, {0}, 4, 3, 4.0, "t").value();
  EXPECT_EQ(sa.heavy_keys, 0u);
  EXPECT_EQ(sa.right_metrics.tuples_sent, right.NumTuples());
}

// Both sides' channel buffers are live together: the left side's charge is
// held until the right side has committed, so the query peak is their sum.
TEST(SkewAwareShuffleTest, LeftChannelChargeHeldUntilRightCommits) {
  Relation left("L", Schema{"x", "y"});
  Relation right("R", Schema{"y", "z"});
  for (Value i = 0; i < 300; ++i) left.AddTuple({i, i % 3 == 0 ? 0 : i});
  for (Value i = 0; i < 200; ++i) right.AddTuple({i % 5 == 0 ? 0 : i, i});
  const int kW = 4;
  ResourceMeter meter;
  runtime::ScopedQueryContext sinks({.meter = &meter});
  meter.BeginQuery("skew");
  SkewAwareShuffleResult sa =
      SkewAwareJoinShuffle(PartitionRoundRobin(left, kW), {1},
                           PartitionRoundRobin(right, kW), {0}, kW, 3, 1.0,
                           "t")
          .value();
  uint64_t peak = 0;
  uint64_t charged = 0;
  meter.FinishQuery(&peak, &charged);
  ASSERT_GE(sa.heavy_keys, 1u);
  const uint64_t left_bytes = sa.left_metrics.tuples_sent * 2 * sizeof(Value);
  const uint64_t right_bytes =
      sa.right_metrics.tuples_sent * 2 * sizeof(Value);
  EXPECT_EQ(charged, left_bytes + right_bytes);
  EXPECT_EQ(peak, left_bytes + right_bytes);
}

TEST(BroadcastShuffleTest, ProducerLoadsBalanced) {
  Rng rng(7);
  Relation rel = test::RandomBinaryRelation("R", {"x", "y"}, 128, 30, &rng);
  DistributedRelation dist = PartitionRoundRobin(rel, 4);
  ShuffleResult sr = BroadcastShuffle(dist, 4, "b").value();
  EXPECT_NEAR(sr.metrics.producer_skew, 1.0, 0.05);
  EXPECT_DOUBLE_EQ(sr.metrics.consumer_skew, 1.0);
}

// ---------------------------------------------------------------------------
// Virtual arrival map: a filtered exchange must deliver exactly the
// unfiltered exchange's rows minus the dropped ones, in the same order, and
// its map must say where each survivor sat in the unfiltered fragment.
// ---------------------------------------------------------------------------

// Checks `filtered` (arrival map populated) against `unfiltered` (the same
// exchange with no filter) on every worker.
void ExpectArrivalMapMatches(
    const DistributedRelation& unfiltered, const DistributedRelation& filtered,
    const std::vector<std::vector<uint32_t>>& arrival,
    const std::vector<size_t>& unfiltered_rows) {
  ASSERT_EQ(filtered.size(), unfiltered.size());
  ASSERT_EQ(arrival.size(), unfiltered.size());
  ASSERT_EQ(unfiltered_rows.size(), unfiltered.size());
  for (size_t w = 0; w < unfiltered.size(); ++w) {
    const Relation& off = unfiltered[w];
    const Relation& on = filtered[w];
    EXPECT_EQ(unfiltered_rows[w], off.NumTuples()) << "worker " << w;
    ASSERT_EQ(arrival[w].size(), on.NumTuples()) << "worker " << w;
    for (size_t r = 0; r < on.NumTuples(); ++r) {
      if (r > 0) {
        EXPECT_LT(arrival[w][r - 1], arrival[w][r]) << "worker " << w;
      }
      ASSERT_LT(arrival[w][r], off.NumTuples()) << "worker " << w;
      const Value* got = on.Row(r);
      const Value* want = off.Row(arrival[w][r]);
      EXPECT_TRUE(std::equal(got, got + on.arity(), want))
          << "worker " << w << " row " << r;
    }
  }
}

// Input rows whose key hash (the scatter's combined salted hash) passes
// `bloom`: the rows a filtered exchange routes, before any replication.
size_t RowsPassing(const DistributedRelation& in, const std::vector<int>& cols,
                   uint64_t salt, const BloomFilter& bloom) {
  size_t passing = 0;
  for (const Relation& frag : in) {
    for (size_t r = 0; r < frag.NumTuples(); ++r) {
      uint64_t h = 0;
      for (int col : cols) {
        h = HashCombine(h, HashWithSalt(frag.At(r, col), salt));
      }
      if (bloom.MayContain(h)) ++passing;
    }
  }
  return passing;
}

void ExpectSameShuffle(const ShuffleResult& a, const ShuffleResult& b) {
  ASSERT_EQ(a.data.size(), b.data.size());
  for (size_t w = 0; w < a.data.size(); ++w) {
    EXPECT_EQ(a.data[w].data(), b.data[w].data()) << "worker " << w;
  }
  EXPECT_EQ(a.arrival, b.arrival);
  EXPECT_EQ(a.unfiltered_rows, b.unfiltered_rows);
  EXPECT_EQ(a.metrics.tuples_sent, b.metrics.tuples_sent);
  EXPECT_EQ(a.metrics.bloom_tested, b.metrics.bloom_tested);
  EXPECT_EQ(a.metrics.bloom_filtered, b.metrics.bloom_filtered);
  EXPECT_EQ(a.metrics.producer_skew, b.metrics.producer_skew);
  EXPECT_EQ(a.metrics.consumer_skew, b.metrics.consumer_skew);
}

class ArrivalMapSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  void TearDown() override { runtime::SetThreads(0); }
};

TEST_P(ArrivalMapSweep, FilteredHashShuffleReplaysUnfilteredOrder) {
  const auto [seed, workers] = GetParam();
  const uint64_t salt = 77 + static_cast<uint64_t>(seed);
  Rng rng(static_cast<uint64_t>(seed));
  // Build keys cover a third of the probe side's key domain, so the filter
  // drops most probe rows but not all.
  Relation build = test::RandomBinaryRelation("B", {"x", "y"}, 120, 40, &rng);
  Relation probe = test::RandomBinaryRelation("P", {"y", "z"}, 500, 120, &rng);
  const DistributedRelation db = PartitionRoundRobin(build, workers);
  const DistributedRelation dp = PartitionRoundRobin(probe, workers);
  const BloomFilter bloom = BuildShuffleBloomFilter(db, {1}, salt);

  ShuffleResult off = HashShuffle(dp, {0}, workers, salt, "off").value();
  EXPECT_TRUE(off.arrival.empty());
  EXPECT_TRUE(off.unfiltered_rows.empty());
  EXPECT_EQ(off.metrics.bloom_tested, 0u);

  runtime::SetThreads(1);
  ShuffleResult on1 =
      HashShuffle(dp, {0}, workers, salt, "on", {}, &bloom).value();
  runtime::SetThreads(4);
  ShuffleResult on4 =
      HashShuffle(dp, {0}, workers, salt, "on", {}, &bloom).value();
  ExpectSameShuffle(on1, on4);

  ExpectArrivalMapMatches(off.data, on4.data, on4.arrival,
                          on4.unfiltered_rows);
  const size_t passing = RowsPassing(dp, {0}, salt, bloom);
  EXPECT_GT(on4.metrics.bloom_filtered, 0u);
  EXPECT_EQ(on4.metrics.bloom_tested, probe.NumTuples());
  EXPECT_EQ(on4.metrics.bloom_filtered + passing, probe.NumTuples());
  EXPECT_EQ(on4.metrics.tuples_sent, passing);
}

TEST_P(ArrivalMapSweep, FilteredSkewAwareRightSideCountsReplicaSlots) {
  const auto [seed, workers] = GetParam();
  const uint64_t salt = 91 + static_cast<uint64_t>(seed);
  Rng rng(static_cast<uint64_t>(seed) + 1000);
  // Left: a hub key y=0 (heavy at every worker count here) plus random
  // light keys. Right: the hub, the light keys and right-only keys.
  Relation left("L", Schema{"x", "y"});
  for (Value i = 0; i < 400; ++i) left.AddTuple({i, 0});
  for (Value i = 0; i < 200; ++i) {
    left.AddTuple({i, 1 + static_cast<Value>(rng.Uniform(30))});
  }
  Relation right("R", Schema{"y", "z"});
  for (Value i = 0; i < 30; ++i) right.AddTuple({0, i});
  for (Value i = 0; i < 300; ++i) {
    right.AddTuple({static_cast<Value>(rng.Uniform(120)), i});
  }
  const DistributedRelation dl = PartitionRoundRobin(left, workers);
  const DistributedRelation dr = PartitionRoundRobin(right, workers);

  // Two filters: the realistic one built over the left side (heavy keys
  // always pass), and one built over a key set without the hub, so dropped
  // heavy tuples still occupy a broadcast arrival slot on every worker.
  Relation no_hub("N", Schema{"x", "y"});
  for (Value y = 1; y < 120; y += 2) no_hub.AddTuple({0, y});
  const BloomFilter from_left = BuildShuffleBloomFilter(dl, {1}, salt);
  const BloomFilter without_hub =
      BuildShuffleBloomFilter(PartitionRoundRobin(no_hub, workers), {1}, salt);

  const double threshold = 1.2;
  SkewAwareShuffleResult off =
      SkewAwareJoinShuffle(dl, {1}, dr, {0}, workers, salt, threshold, "off")
          .value();
  ASSERT_GE(off.heavy_keys, 1u);
  EXPECT_TRUE(off.right_arrival.empty());
  EXPECT_GT(off.right_metrics.tuples_sent, right.NumTuples());

  for (const BloomFilter* bloom : {&from_left, &without_hub}) {
    SCOPED_TRACE(bloom == &from_left ? "filter from left"
                                     : "filter without hub");
    runtime::SetThreads(1);
    SkewAwareShuffleResult on1 =
        SkewAwareJoinShuffle(dl, {1}, dr, {0}, workers, salt, threshold, "on",
                             {}, {}, bloom)
            .value();
    runtime::SetThreads(4);
    SkewAwareShuffleResult on4 =
        SkewAwareJoinShuffle(dl, {1}, dr, {0}, workers, salt, threshold, "on",
                             {}, {}, bloom)
            .value();
    EXPECT_EQ(on1.heavy_keys, off.heavy_keys);
    for (size_t w = 0; w < static_cast<size_t>(workers); ++w) {
      EXPECT_EQ(on1.left[w].data(), on4.left[w].data());
      EXPECT_EQ(on1.right[w].data(), on4.right[w].data());
      // The left side is the filter's build side: it ships unfiltered.
      EXPECT_EQ(on4.left[w].data(), off.left[w].data());
    }
    EXPECT_EQ(on1.right_arrival, on4.right_arrival);
    EXPECT_EQ(on1.right_unfiltered_rows, on4.right_unfiltered_rows);
    EXPECT_EQ(on1.right_metrics.tuples_sent, on4.right_metrics.tuples_sent);
    EXPECT_EQ(on1.right_metrics.bloom_filtered,
              on4.right_metrics.bloom_filtered);

    ExpectArrivalMapMatches(off.right, on4.right, on4.right_arrival,
                            on4.right_unfiltered_rows);
    // The bloom identity holds over rows before replication.
    const size_t passing = RowsPassing(dr, {0}, salt, *bloom);
    EXPECT_GT(on4.right_metrics.bloom_filtered, 0u);
    EXPECT_EQ(on4.right_metrics.bloom_tested, right.NumTuples());
    EXPECT_EQ(on4.right_metrics.bloom_filtered + passing, right.NumTuples());
    EXPECT_EQ(on4.right_metrics.tuples_sent, TotalTuples(on4.right));
  }
}

INSTANTIATE_TEST_SUITE_P(SeedsWorkers, ArrivalMapSweep,
                         ::testing::Combine(::testing::Range(0, 3),
                                            ::testing::Values(2, 4, 7)));

// ---------------------------------------------------------------------------
// Count, then place: every exchange's fragments against an independent
// oracle — a naive sequential scatter that appends each row to its
// destinations in (producer, row) order — and its delivery bookkeeping
// under channel faults.
// ---------------------------------------------------------------------------

// The oracle's result: per-worker fragment bytes and per-producer copies.
struct OracleScatter {
  std::vector<std::vector<Value>> frags;
  std::vector<uint64_t> produced;
};

// `dests(t)` returns row t's destination workers (none when dropped); it is
// called once per row in (producer, row) order.
OracleScatter NaiveScatter(
    const DistributedRelation& in, int workers,
    const std::function<std::vector<size_t>(const Value*)>& dests) {
  OracleScatter out;
  out.frags.resize(static_cast<size_t>(workers));
  for (const Relation& frag : in) {
    uint64_t produced = 0;
    for (size_t r = 0; r < frag.NumTuples(); ++r) {
      const Value* t = frag.Row(r);
      for (size_t w : dests(t)) {
        out.frags[w].insert(out.frags[w].end(), t, t + frag.arity());
        ++produced;
      }
    }
    out.produced.push_back(produced);
  }
  return out;
}

uint64_t OracleKeyHash(const Value* t, const std::vector<int>& cols,
                       uint64_t salt) {
  uint64_t h = 0;
  for (int col : cols) h = HashCombine(h, HashWithSalt(t[col], salt));
  return h;
}

enum class Exchange { kHash, kHypercube, kBroadcast, kSkewLeft, kSkewRight };

const char* ExchangeName(Exchange e) {
  switch (e) {
    case Exchange::kHash:
      return "hash";
    case Exchange::kHypercube:
      return "hypercube";
    case Exchange::kBroadcast:
      return "broadcast";
    case Exchange::kSkewLeft:
      return "skew-aware left";
    case Exchange::kSkewRight:
      return "skew-aware right";
  }
  return "?";
}

// One exchange's placed fragments and metrics, from the engine.
struct Placed {
  DistributedRelation data;
  ShuffleMetrics metrics;
};

class PlacementOracleSweep
    : public ::testing::TestWithParam<std::tuple<int, bool>> {
 protected:
  void SetUp() override {
    workers_ = std::get<0>(GetParam());
    Rng rng(31 + static_cast<uint64_t>(workers_));
    // Left: a hub key y=0, heavy at every worker count here, plus light
    // keys. Right: the hub, the light keys and right-only keys.
    Relation left("L", Schema{"x", "y"});
    for (Value i = 0; i < 500; ++i) left.AddTuple({i, 0});
    for (Value i = 0; i < 300; ++i) {
      left.AddTuple({i, 1 + static_cast<Value>(rng.Uniform(40))});
    }
    Relation right("R", Schema{"y", "z"});
    for (Value i = 0; i < 25; ++i) right.AddTuple({0, i});
    for (Value i = 0; i < 400; ++i) {
      right.AddTuple({static_cast<Value>(rng.Uniform(160)), i});
    }
    left_ = PartitionRoundRobin(left, workers_);
    right_ = PartitionRoundRobin(right, workers_);
    if (std::get<1>(GetParam())) {
      bloom_ = std::make_unique<BloomFilter>(
          BuildShuffleBloomFilter(left_, {1}, kSalt));
    }
    hc_config_.join_vars = {"x", "y", "z"};
    hc_config_.dims = {2, 3, 2};
    hc_config_.salt = kSalt;
    // More cells than workers at W 2 and 4: co-located cells must yield
    // one copy.
    for (int c = 0; c < hc_config_.NumCells(); ++c) {
      cell_map_.push_back(c % workers_);
    }
  }
  void TearDown() override { runtime::SetThreads(0); }

  Result<Placed> Run(Exchange e, ShuffleAttempt attempt = {}) const {
    const BloomFilter* bloom = bloom_.get();
    switch (e) {
      case Exchange::kHash: {
        PTP_ASSIGN_OR_RETURN(ShuffleResult r,
                             HashShuffle(right_, {0}, workers_, kSalt, "hash",
                                         attempt, bloom));
        return Placed{std::move(r.data), std::move(r.metrics)};
      }
      case Exchange::kHypercube: {
        PTP_ASSIGN_OR_RETURN(
            ShuffleResult r,
            HypercubeShuffle(left_, {"x", "y"}, hc_config_, cell_map_,
                             workers_, "hc", attempt));
        return Placed{std::move(r.data), std::move(r.metrics)};
      }
      case Exchange::kBroadcast: {
        PTP_ASSIGN_OR_RETURN(ShuffleResult r,
                             BroadcastShuffle(right_, workers_, "br", attempt));
        return Placed{std::move(r.data), std::move(r.metrics)};
      }
      case Exchange::kSkewLeft:
      case Exchange::kSkewRight: {
        PTP_ASSIGN_OR_RETURN(
            SkewAwareShuffleResult r,
            SkewAwareJoinShuffle(left_, {1}, right_, {0}, workers_, kSalt,
                                 kThreshold, "skew", attempt, attempt, bloom));
        if (e == Exchange::kSkewLeft) {
          return Placed{std::move(r.left), std::move(r.left_metrics)};
        }
        return Placed{std::move(r.right), std::move(r.right_metrics)};
      }
    }
    return Status::Internal("unknown exchange");
  }

  // The naive sequential scatter of exchange `e`, computed from scratch.
  OracleScatter Oracle(Exchange e) const {
    const size_t W = static_cast<size_t>(workers_);
    const BloomFilter* bloom = bloom_.get();
    // The skew-aware exchanges' heavy keys: exact left-side frequencies of
    // the combined key hash above threshold x the average worker load.
    std::map<uint64_t, size_t> freq;
    for (const Relation& frag : left_) {
      for (size_t r = 0; r < frag.NumTuples(); ++r) {
        ++freq[OracleKeyHash(frag.Row(r), {1}, kSalt)];
      }
    }
    const double cutoff =
        kThreshold * std::max(1.0, static_cast<double>(TotalTuples(left_)) /
                                       static_cast<double>(workers_));
    auto heavy = [&](uint64_t h) {
      auto it = freq.find(h);
      return it != freq.end() && static_cast<double>(it->second) > cutoff;
    };
    switch (e) {
      case Exchange::kHash:
        return NaiveScatter(right_, workers_, [&](const Value* t) {
          const uint64_t h = OracleKeyHash(t, {0}, kSalt);
          if (bloom != nullptr && !bloom->MayContain(h)) {
            return std::vector<size_t>{};
          }
          return std::vector<size_t>{h % W};
        });
      case Exchange::kHypercube: {
        const HypercubeRouter router(hc_config_, {"x", "y"});
        return NaiveScatter(left_, workers_, [&](const Value* t) {
          std::vector<int> cells;
          router.Route(t, &cells);
          std::set<size_t> dests;
          for (int c : cells) {
            dests.insert(static_cast<size_t>(cell_map_[static_cast<size_t>(c)]));
          }
          return std::vector<size_t>(dests.begin(), dests.end());
        });
      }
      case Exchange::kBroadcast:
        return NaiveScatter(right_, workers_, [&](const Value*) {
          std::vector<size_t> all(W);
          for (size_t w = 0; w < W; ++w) all[w] = w;
          return all;
        });
      case Exchange::kSkewLeft: {
        size_t round_robin = 0;
        return NaiveScatter(left_, workers_, [&](const Value* t) {
          const uint64_t h = OracleKeyHash(t, {1}, kSalt);
          return std::vector<size_t>{heavy(h) ? round_robin++ % W : h % W};
        });
      }
      case Exchange::kSkewRight:
        return NaiveScatter(right_, workers_, [&](const Value* t) {
          const uint64_t h = OracleKeyHash(t, {0}, kSalt);
          if (bloom != nullptr && !bloom->MayContain(h)) {
            return std::vector<size_t>{};
          }
          if (!heavy(h)) return std::vector<size_t>{h % W};
          std::vector<size_t> all(W);
          for (size_t w = 0; w < W; ++w) all[w] = w;
          return all;
        });
    }
    return {};
  }

  static void ExpectFragments(const Placed& got, const OracleScatter& want) {
    ASSERT_EQ(got.data.size(), want.frags.size());
    for (size_t w = 0; w < got.data.size(); ++w) {
      EXPECT_EQ(got.data[w].data(), want.frags[w]) << "worker " << w;
    }
  }

  static constexpr uint64_t kSalt = 404;
  static constexpr double kThreshold = 1.2;
  static constexpr Exchange kAll[] = {Exchange::kHash, Exchange::kHypercube,
                                      Exchange::kBroadcast,
                                      Exchange::kSkewLeft,
                                      Exchange::kSkewRight};
  int workers_ = 0;
  DistributedRelation left_;
  DistributedRelation right_;
  std::unique_ptr<BloomFilter> bloom_;
  HypercubeConfig hc_config_;
  std::vector<int> cell_map_;
};

TEST_P(PlacementOracleSweep, FragmentsAndChannelMatrixMatchNaiveScatter) {
  // The hub key is heavy, so the skew-aware sides round-robin and
  // replicate it.
  ASSERT_GE(SkewAwareJoinShuffle(left_, {1}, right_, {0}, workers_, kSalt,
                                 kThreshold, "skew")
                .value()
                .heavy_keys,
            1u);
  for (Exchange e : kAll) {
    SCOPED_TRACE(ExchangeName(e));
    const OracleScatter want = Oracle(e);
    for (int threads : {1, 4}) {
      SCOPED_TRACE(threads);
      runtime::SetThreads(threads);
      QueryProfile profile;
      runtime::ScopedQueryContext sinks({.profile = &profile});
      const Placed got = Run(e).value();
      ExpectFragments(got, want);
      // The profile's channel matrix: producer p's row sum is the rows it
      // sent. The skew-aware call records its left side first.
      const auto sections = profile.Snapshot();
      ASSERT_EQ(sections.size(), 1u);
      const size_t entry = e == Exchange::kSkewRight ? 1 : 0;
      ASSERT_GT(sections[0].shuffles.size(), entry);
      const ChannelMatrix& m = sections[0].shuffles[entry].matrix;
      EXPECT_EQ(m.RowTotals(), want.produced);
      EXPECT_EQ(m.Total(), got.metrics.tuples_sent);
    }
  }
}

TEST_P(PlacementOracleSweep, DuplicatedChannelsAreDedupedWithoutChange) {
  for (Exchange e : kAll) {
    SCOPED_TRACE(ExchangeName(e));
    const OracleScatter want = Oracle(e);
    for (int threads : {1, 4}) {
      SCOPED_TRACE(threads);
      runtime::SetThreads(threads);
      FaultInjector injector(FaultPlan::Parse("dup@p=1").value());
      runtime::ScopedQueryContext sinks({.faults = &injector});
      const Placed got = Run(e).value();
      ExpectFragments(got, want);
      // Producer 1's channel to every worker arrived twice.
      EXPECT_EQ(got.metrics.dups_deduped, static_cast<size_t>(workers_));
    }
  }
}

TEST_P(PlacementOracleSweep, DroppedChannelFailsConservationThenReplays) {
  for (Exchange e : kAll) {
    SCOPED_TRACE(ExchangeName(e));
    const OracleScatter want = Oracle(e);
    for (int threads : {1, 4}) {
      SCOPED_TRACE(threads);
      runtime::SetThreads(threads);
      FaultInjector injector(FaultPlan::Parse("drop@p=0,c=1").value());
      runtime::ScopedQueryContext sinks({.faults = &injector});
      // Producer 0's channel to worker 1 is non-empty in every exchange
      // here, so losing it breaks conservation.
      const Result<Placed> lost = Run(e);
      ASSERT_FALSE(lost.ok());
      EXPECT_EQ(lost.status().code(), StatusCode::kInternal);
      EXPECT_NE(lost.status().message().find("conservation"),
                std::string::npos)
          << lost.status().ToString();
      // The replay (the drop fires on attempt 0 only) delivers everything.
      const Placed replay = Run(e, {.attempt = 1}).value();
      ExpectFragments(replay, want);
      EXPECT_EQ(replay.metrics.dups_deduped, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(WorkersBloom, PlacementOracleSweep,
                         ::testing::Combine(::testing::Values(2, 4, 7),
                                            ::testing::Bool()));

// Count-then-place allocates per producer and per destination, never one
// growing buffer per (producer, destination) channel: 64 x 16 channels here.
TEST(ScatterAllocationTest, HashShuffleAllocatesPerProducerNotPerChannel) {
  constexpr int kProducers = 64;
  constexpr int kWorkers = 16;
  Relation rel("R", Schema{"x", "y"});
  for (Value i = 0; i < 100000; ++i) rel.AddTuple({i * 7919 % 100003, i});
  const DistributedRelation dist = PartitionRoundRobin(rel, kProducers);
  // Warm-up: the pool's threads and batch state are allocated once.
  HashShuffle(dist, {0}, kWorkers, 5, "warm").value();

  const size_t before = g_alloc_count.load();
  const ShuffleResult r = HashShuffle(dist, {0}, kWorkers, 5, "t").value();
  const size_t allocations = g_alloc_count.load() - before;
  EXPECT_EQ(r.metrics.tuples_sent, rel.NumTuples());
  EXPECT_LE(allocations, 8u * (kProducers + kWorkers))
      << "an exchange should allocate O(P + W) blocks, not one growing "
         "buffer per channel";
}

}  // namespace
}  // namespace ptp
