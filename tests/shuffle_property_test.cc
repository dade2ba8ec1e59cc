// Property tests for the shuffle layer: content preservation,
// co-partitioning, determinism, the HyperCube meeting guarantee, and the
// bloom-filtered exchanges' virtual arrival map, across randomized inputs
// and cluster sizes.

#include <map>
#include <set>

#include "common/hash.h"
#include "exec/bloom.h"
#include "exec/local_ops.h"
#include "exec/shuffle.h"
#include "gtest/gtest.h"
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
      Relation j = HashJoinLocal(a[static_cast<size_t>(w)],
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

}  // namespace
}  // namespace ptp
