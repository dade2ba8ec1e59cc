// Seed-vs-new kernel microbenchmark: measures the flat join kernels
// (JoinHashTable build/probe, MSB-radix fragment sort, galloping trie seek,
// CSR trie levels) against faithful copies of the implementations they
// replaced (std::unordered_map<uint64_t, std::vector<uint32_t>>
// build/probe, direct std::sort, plain binary-search seek, row-major trie
// walk with a galloping block end), on the Q1 (Twitter triangle) and Q4
// (Freebase) workload relations.
//
// Times are per-thread CPU seconds (CLOCK_THREAD_CPUTIME_ID) with the
// runtime pinned to one thread: the point is the algorithmic win
// (allocations, comparisons, locality), not parallelism. Writes
// BENCH_kernels.json (with the host's core count as "nproc"); every kernel
// pair is checked for identical results before its timing is trusted.
//
// Not a google-benchmark binary: it has its own main (hence the CMake
// special case) so it can emit the JSON report the CI smoke step asserts on.

#include <algorithm>
#include <array>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_common.h"
#include "common/hash.h"
#include "common/logging.h"
#include "data/workloads.h"
#include "exec/join_hash_table.h"
#include "obs/counters.h"
#include "runtime/parallel.h"
#include "storage/sort.h"
#include "tj/trie_iterator.h"

namespace ptp {
namespace {

using bench::TimeMin;

// Seek sequences: this many seeded draws (with replacement) from the probe
// side's key column, each sorted ascending but not deduplicated, so
// consecutive sweeps differ and a repeated key takes the already-positioned
// early-out as it does in a join. Repeating one identical sweep instead lets
// the branch predictor learn the search path of a small level.
constexpr int kSeekTargetSets = 4;
// A Q4 sweep is far below what a thread-CPU clock reading resolves, so each
// timed seek sample repeats passes over the target sets until it lasts this
// long.
constexpr double kMinSeekSampleSeconds = 1e-3;

// Keeps a timed sweep's result live, so the compiler can neither drop the
// sweep nor fold repeated calls into one.
inline void KeepLive(uint64_t value) {
  asm volatile("" : : "r"(value) : "memory");
}

// Same key hashing the local join operators use.
uint64_t HashKey(const Value* row, const std::vector<int>& cols) {
  uint64_t h = 0x12345678;
  for (int c : cols) h = HashCombine(h, Mix64(static_cast<uint64_t>(row[c])));
  return h;
}

void SharedColumns(const Schema& left, const Schema& right,
                   std::vector<int>* left_cols, std::vector<int>* right_cols) {
  left_cols->clear();
  right_cols->clear();
  for (size_t i = 0; i < left.arity(); ++i) {
    int j = right.IndexOf(left.name(i));
    if (j >= 0) {
      left_cols->push_back(static_cast<int>(i));
      right_cols->push_back(j);
    }
  }
}

// Order-independent digest of the (probe row, build row) match pairs, so the
// seed and flat kernels can be compared without materializing the join.
struct JoinStats {
  size_t matches = 0;
  uint64_t digest = 0;

  // Cheap order-independent digest (sum of packed pairs): the digest must
  // not dominate the per-match cost being measured.
  void Record(size_t prow, uint32_t brow) {
    ++matches;
    digest += (static_cast<uint64_t>(prow) << 32) | brow;
  }
  bool operator==(const JoinStats& o) const {
    return matches == o.matches && digest == o.digest;
  }
};

// The seed build/probe kernel: one heap-allocated vector per distinct key.
// Both join kernels hoist the single shared column (every bench workload's
// first join keys on one variable) so the per-match compare is two loads —
// the table kernels under measurement, not the compare, dominate the time.
JoinStats SeedHashJoin(const Relation& build, const std::vector<int>& bkey,
                       const Relation& probe, const std::vector<int>& pkey) {
  PTP_CHECK_EQ(pkey.size(), 1u);
  const int pk = pkey[0];
  const int bk = bkey[0];
  std::unordered_map<uint64_t, std::vector<uint32_t>> table;
  table.reserve(build.NumTuples());
  for (size_t row = 0; row < build.NumTuples(); ++row) {
    table[HashKey(build.Row(row), bkey)].push_back(static_cast<uint32_t>(row));
  }
  JoinStats stats;
  for (size_t prow = 0; prow < probe.NumTuples(); ++prow) {
    const Value* p = probe.Row(prow);
    auto it = table.find(HashKey(p, pkey));
    if (it == table.end()) continue;
    for (uint32_t brow : it->second) {
      if (p[pk] == build.Row(brow)[bk]) stats.Record(prow, brow);
    }
  }
  return stats;
}

// The flat kernel driven build-then-probe, the way SemiJoinLocal drives it.
JoinStats FlatHashJoin(const Relation& build, const std::vector<int>& bkey,
                       const Relation& probe, const std::vector<int>& pkey,
                       uint64_t* probes, uint64_t* probe_hits) {
  JoinHashTable table(build.NumTuples());
  for (size_t row = build.NumTuples(); row-- > 0;) {
    table.Insert(HashKey(build.Row(row), bkey), static_cast<uint32_t>(row));
  }
  table.FinalizeBuild();
  // Arena: build rows materialized in entry order (SemiJoinLocal does the
  // same with its key columns) — match runs are contiguous, so enumeration
  // streams instead of chasing random row indices.
  const size_t barity = build.arity();
  std::vector<Value> arena(build.NumTuples() * barity);
  for (size_t e = 0; e < table.size(); ++e) {
    const Value* src = build.Row(table.Row(static_cast<uint32_t>(e)));
    std::copy(src, src + barity, arena.begin() + e * barity);
  }
  // Same hoisted single-column compare as SeedHashJoin.
  PTP_CHECK_EQ(pkey.size(), 1u);
  const int pk = pkey[0];
  const int bk = bkey[0];
  JoinStats stats;
  for (size_t prow = 0; prow < probe.NumTuples(); ++prow) {
    const Value* p = probe.Row(prow);
    const uint64_t h = HashKey(p, pkey);
    for (uint32_t e = table.Find(h); e != JoinHashTable::kNil;
         e = table.Next(e, h)) {
      if (p[pk] == arena[e * barity + bk]) {
        stats.Record(prow, table.Row(e));
      }
    }
  }
  *probes += table.probes();
  *probe_hits += table.probe_hits();
  return stats;
}

// Faithful copy of the seed SortRowsLex (direct comparison sort, no radix).
template <size_t kArity>
void SeedSortFixed(std::vector<Value>* data) {
  using Row = std::array<Value, kArity>;
  Row* begin = reinterpret_cast<Row*>(data->data());
  std::sort(begin, begin + data->size() / kArity);
}

void SeedSortRowsLex(std::vector<Value>* data, size_t arity) {
  switch (arity) {
    case 1:
      std::sort(data->begin(), data->end());
      return;
    case 2:
      SeedSortFixed<2>(data);
      return;
    case 3:
      SeedSortFixed<3>(data);
      return;
    case 4:
      SeedSortFixed<4>(data);
      return;
    default:
      PTP_CHECK(false) << "bench covers arity 1-4";
  }
}

// The seed Seek kernel: binary search over the whole remaining range. (The
// already-positioned early-out exists in both seed and new Seek, so both
// sweeps share it; only the search strategy differs.)
uint64_t SeedSeekSweep(const std::vector<Value>& sorted,
                       const std::vector<Value>& targets) {
  uint64_t digest = 0;
  size_t pos = 0;
  for (Value v : targets) {
    if (sorted[pos] >= v) {
      digest += Mix64(pos);
      continue;
    }
    size_t lo = pos, hi = sorted.size();
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (sorted[mid] < v) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    pos = lo;
    digest += Mix64(pos);
    if (pos >= sorted.size()) break;
  }
  return digest;
}

// The galloping Seek kernel (TrieIterator::Seek's search, extracted).
uint64_t GallopSeekSweep(const std::vector<Value>& sorted,
                         const std::vector<Value>& targets,
                         uint64_t* gallop_steps) {
  uint64_t digest = 0;
  size_t pos = 0;
  for (Value v : targets) {
    if (sorted[pos] >= v) {
      digest += Mix64(pos);
      continue;
    }
    size_t bound = 1;
    while (pos + bound < sorted.size() && sorted[pos + bound] < v) {
      bound <<= 1;
      ++*gallop_steps;
    }
    size_t lo = pos + bound / 2;
    size_t hi = std::min(pos + bound, sorted.size());
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (sorted[mid] < v) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    pos = lo;
    digest += Mix64(pos);
    if (pos >= sorted.size()) break;
  }
  return digest;
}

// Digest term for visiting `key` at trie level `depth`; both trie walks
// visit the same (depth, key) pairs, so their sums agree.
uint64_t VisitTerm(size_t depth, Value key) {
  return Mix64(static_cast<uint64_t>(key) * 64 + depth);
}

// The row-major trie walk TrieIterator used to run: visits every key of
// every level of the lexicographically sorted rows in `data`, finding each
// key block's end by galloping pos+1, +2, +4, ... down one column (rows
// `arity` values apart), then binary-searching the last bracket.
uint64_t RowMajorTrieWalk(const std::vector<Value>& data, size_t arity) {
  auto block_end = [&](size_t pos, size_t hi, size_t depth) {
    const Value* col = data.data() + depth;
    const Value key = col[pos * arity];
    size_t bound = 1;
    while (pos + bound < hi && col[(pos + bound) * arity] <= key) bound <<= 1;
    size_t lo = pos + bound / 2 + 1;
    size_t end = std::min(pos + bound, hi);
    while (lo < end) {
      const size_t mid = lo + (end - lo) / 2;
      if (col[mid * arity] <= key) {
        lo = mid + 1;
      } else {
        end = mid;
      }
    }
    return lo;
  };
  uint64_t digest = 0;
  auto walk = [&](auto&& self, size_t lo, size_t hi, size_t depth) -> void {
    for (size_t pos = lo; pos < hi;) {
      const size_t end = block_end(pos, hi, depth);
      digest += VisitTerm(depth, data[pos * arity + depth]);
      if (depth + 1 < arity) self(self, pos, end, depth + 1);
      pos = end;
    }
  };
  walk(walk, 0, data.size() / arity, 0);
  return digest;
}

// Builds the CSR trie levels of the sorted relation and walks every key of
// every level through the cursor (Open / Next / Up), as the join does.
uint64_t CsrTrieWalk(const Relation& sorted) {
  TrieIterator it(&sorted);
  const size_t arity = sorted.arity();
  uint64_t digest = 0;
  auto walk = [&](auto&& self) -> void {
    const size_t depth = static_cast<size_t>(it.depth());
    for (; !it.AtEnd(); it.Next()) {
      digest += VisitTerm(depth, it.Key());
      if (depth + 1 < arity) {
        it.Open();
        self(self);
        it.Up();
      }
    }
  };
  if (!it.EmptyRelation()) {
    it.Open();
    walk(walk);
  }
  return digest;
}

struct KernelRow {
  std::string name;
  std::string workload;
  /// Per call of the kernel: a timed sample's CPU / sweeps_per_sample.
  double seed_cpu_seconds;
  double new_cpu_seconds;
  size_t sweeps_per_sample = 1;
};

// First pair of atoms with a shared variable — the workload's first binary
// join, which is what the local hash-join kernel runs on.
void FirstJoinPair(const NormalizedQuery& q, const Relation** build,
                   std::vector<int>* bkey, const Relation** probe,
                   std::vector<int>* pkey) {
  for (size_t i = 0; i < q.atoms.size(); ++i) {
    for (size_t j = i + 1; j < q.atoms.size(); ++j) {
      std::vector<int> ci, cj;
      SharedColumns(q.atoms[i].relation.schema(),
                    q.atoms[j].relation.schema(), &ci, &cj);
      if (ci.empty()) continue;
      const Relation& a = q.atoms[i].relation;
      const Relation& b = q.atoms[j].relation;
      const bool build_second = b.NumTuples() <= a.NumTuples();
      *build = build_second ? &b : &a;
      *bkey = build_second ? cj : ci;
      *probe = build_second ? &a : &b;
      *pkey = build_second ? ci : cj;
      return;
    }
  }
  PTP_CHECK(false) << "no joinable atom pair";
}

std::vector<Value> ShuffledCopy(const Relation& rel, uint64_t seed) {
  const size_t n = rel.NumTuples();
  const size_t arity = rel.arity();
  std::vector<uint32_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = static_cast<uint32_t>(i);
  std::mt19937_64 rng(seed);
  std::shuffle(perm.begin(), perm.end(), rng);
  std::vector<Value> out(rel.data().size());
  for (size_t i = 0; i < n; ++i) {
    const Value* src = rel.Row(perm[i]);
    std::copy(src, src + arity, out.begin() + i * arity);
  }
  return out;
}

}  // namespace
}  // namespace ptp

int main(int argc, char** argv) {
  using namespace ptp;

  // Default Twitter scale (1M nodes, 2M edges) keeps the measurement
  // table-bound rather than emission-bound: ~1M distinct join keys means the
  // seed kernel pays one vector allocation per key at build and a pointer
  // chase per find, which is exactly what the flat table removes. (A denser
  // graph mostly measures match enumeration, where the two kernels converge.)
  // Freebase at 8x for the same reason: at 1x its Q4 join is sub-millisecond
  // and the ratio is timer noise.
  std::string json_path = "BENCH_kernels.json";
  size_t twitter_nodes = 1000000;
  size_t twitter_edges = 2000000;
  double freebase_scale = 8.0;
  int reps = 3;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto eat = [&](const std::string& prefix, auto setter) {
      if (arg.rfind(prefix, 0) == 0) {
        setter(arg.substr(prefix.size()));
        return true;
      }
      return false;
    };
    const bool ok =
        eat("--json=", [&](const std::string& v) { json_path = v; }) ||
        eat("--twitter-nodes=",
            [&](const std::string& v) { twitter_nodes = std::stoul(v); }) ||
        eat("--twitter-edges=",
            [&](const std::string& v) { twitter_edges = std::stoul(v); }) ||
        eat("--freebase-scale=",
            [&](const std::string& v) { freebase_scale = std::stod(v); }) ||
        eat("--reps=", [&](const std::string& v) { reps = std::stoi(v); });
    if (!ok) {
      std::cerr << "unknown flag: " << arg
                << "\nflags: --json= --twitter-nodes= --twitter-edges= "
                   "--freebase-scale= --reps=\n";
      return 2;
    }
  }
  // Single-threaded: the comparison is algorithmic CPU cost per operator.
  runtime::SetThreads(1);

  WorkloadScale scale;
  scale.twitter.num_nodes = twitter_nodes;
  scale.twitter.num_edges = twitter_edges;
  scale.twitter.zipf_exponent = 0.7;
  scale.freebase_scale = freebase_scale;
  WorkloadFactory factory(scale);

  std::vector<KernelRow> rows;
  std::map<std::string, uint64_t> counters;

  for (const auto& [q, id] : std::vector<std::pair<int, std::string>>{
           {1, "Q1"}, {4, "Q4"}}) {
    auto wl = factory.Make(q);
    PTP_CHECK(wl.ok()) << wl.status().ToString();

    // --- hash join build + probe ---
    const Relation* build = nullptr;
    const Relation* probe = nullptr;
    std::vector<int> bkey, pkey;
    FirstJoinPair(wl->normalized, &build, &bkey, &probe, &pkey);
    JoinStats seed_stats, flat_stats;
    const double seed_join = TimeMin(
        reps, [&] { seed_stats = SeedHashJoin(*build, bkey, *probe, pkey); });
    uint64_t probes = 0, probe_hits = 0;
    const double flat_join = TimeMin(reps, [&] {
      probes = 0;
      probe_hits = 0;
      flat_stats = FlatHashJoin(*build, bkey, *probe, pkey, &probes,
                                &probe_hits);
    });
    PTP_CHECK(seed_stats == flat_stats)
        << id << ": flat hash join diverges from seed ("
        << seed_stats.matches << " vs " << flat_stats.matches << " matches)";
    rows.push_back({"hash_join_build_probe", id, seed_join, flat_join});
    counters["ht.probes"] += probes;
    counters["ht.probe_hits"] += probe_hits;

    // --- fragment sort (radix vs direct std::sort) ---
    const Relation& frag = probe->NumTuples() >= build->NumTuples() ? *probe
                                                                    : *build;
    const std::vector<Value> unsorted = ShuffledCopy(frag, 7 + q);
    std::vector<Value> seed_sorted, radix_sorted;
    const double seed_sort = TimeMin(reps, [&] {
      seed_sorted = unsorted;
      SeedSortRowsLex(&seed_sorted, frag.arity());
    });
    CounterRegistry registry;
    const double radix_sort = [&] {
      runtime::ScopedQueryContext sinks({.counters = &registry});
      return TimeMin(reps, [&] {
        radix_sorted = unsorted;
        SortRowsLex(&radix_sorted, frag.arity());
      });
    }();
    PTP_CHECK(seed_sorted == radix_sorted)
        << id << ": radix sort output diverges from std::sort";
    rows.push_back({"fragment_sort", id, seed_sort, radix_sort});
    for (const auto& [name, value] : registry.CounterSnapshot()) {
      counters[name] += value;
    }

    // --- trie seek (galloping vs full-range binary search) ---
    // The build side's join-key column, sorted and deduplicated, plays the
    // trie level that the probe side's keys seek into; seeded draws from
    // the probe side's key column play the LFTJ seek sequences.
    std::vector<Value> level(build->NumTuples());
    for (size_t r = 0; r < build->NumTuples(); ++r) {
      level[r] = build->At(r, static_cast<size_t>(bkey[0]));
    }
    std::sort(level.begin(), level.end());
    level.erase(std::unique(level.begin(), level.end()), level.end());
    std::vector<std::vector<Value>> target_sets(kSeekTargetSets);
    std::mt19937_64 rng(11 + q);
    for (std::vector<Value>& targets : target_sets) {
      targets.resize(probe->NumTuples());
      for (Value& v : targets) {
        v = probe->At(rng() % probe->NumTuples(),
                      static_cast<size_t>(pkey[0]));
      }
      std::sort(targets.begin(), targets.end());
    }
    uint64_t seed_digest = 0, gallop_digest = 0, gallop_steps = 0;
    for (const std::vector<Value>& targets : target_sets) {
      seed_digest += SeedSeekSweep(level, targets);
      gallop_digest += GallopSeekSweep(level, targets, &gallop_steps);
    }
    PTP_CHECK(seed_digest == gallop_digest)
        << id << ": galloping seek lands on different positions";
    size_t passes = 1;
    uint64_t timed_steps = 0;
    auto sample = [&](auto&& sweep) {
      return TimeMin(reps, [&] {
        for (size_t pass = 0; pass < passes; ++pass) {
          for (const std::vector<Value>& targets : target_sets) {
            KeepLive(sweep(targets));
          }
        }
      });
    };
    double seed_seek = 0, gallop_seek = 0;
    while (true) {
      seed_seek = sample([&](const std::vector<Value>& targets) {
        return SeedSeekSweep(level, targets);
      });
      gallop_seek = sample([&](const std::vector<Value>& targets) {
        return GallopSeekSweep(level, targets, &timed_steps);
      });
      if (std::min(seed_seek, gallop_seek) >= kMinSeekSampleSeconds) break;
      passes *= 2;
    }
    const size_t sweeps = passes * kSeekTargetSets;
    rows.push_back({"trie_seek_sweep", id, seed_seek / sweeps,
                    gallop_seek / sweeps, sweeps});
    counters["tj.gallop_steps"] += gallop_steps;

    // --- trie levels (row-major walk vs CSR build + walk) ---
    // Every key of every level of the sorted fragment, as one full trie
    // walk visits them; the CSR side pays for building its levels.
    Relation sorted_frag(frag.name(), frag.schema());
    sorted_frag.mutable_data() = radix_sorted;
    uint64_t row_major_keys = 0, csr_keys = 0;
    const double row_major_walk = TimeMin(reps, [&] {
      row_major_keys = RowMajorTrieWalk(radix_sorted, frag.arity());
    });
    const double csr_walk =
        TimeMin(reps, [&] { csr_keys = CsrTrieWalk(sorted_frag); });
    PTP_CHECK(row_major_keys == csr_keys)
        << id << ": CSR trie levels visit different keys";
    rows.push_back({"trie_levels", id, row_major_walk, csr_walk});
  }

  std::ofstream out(json_path);
  PTP_CHECK(out.good()) << "cannot open " << json_path;
  out << "{\n  \"config\": {\"twitter_nodes\": " << twitter_nodes
      << ", \"twitter_edges\": " << twitter_edges
      << ", \"freebase_scale\": " << freebase_scale << ", \"reps\": " << reps
      << ", \"clock\": \"CLOCK_THREAD_CPUTIME_ID\", \"nproc\": "
      << std::thread::hardware_concurrency() << "},\n  \"kernels\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const KernelRow& r = rows[i];
    const double speedup =
        r.new_cpu_seconds > 0 ? r.seed_cpu_seconds / r.new_cpu_seconds : 0;
    out << "    {\"name\": \"" << r.name << "\", \"workload\": \""
        << r.workload << "\", \"seed_cpu_seconds\": " << r.seed_cpu_seconds
        << ", \"new_cpu_seconds\": " << r.new_cpu_seconds
        << ", \"speedup\": " << speedup
        << ", \"sweeps_per_sample\": " << r.sweeps_per_sample << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out << (first ? "" : ", ") << "\"" << name << "\": " << value;
    first = false;
  }
  out << "}\n}\n";
  out.close();

  for (const KernelRow& r : rows) {
    std::cout << r.name << " " << r.workload << ": seed "
              << r.seed_cpu_seconds << "s, new " << r.new_cpu_seconds
              << "s (" << (r.new_cpu_seconds > 0
                               ? r.seed_cpu_seconds / r.new_cpu_seconds
                               : 0)
              << "x)\n";
  }
  std::cout << "report written to " << json_path << "\n";
  return 0;
}
