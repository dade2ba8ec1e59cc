// Per-relation statistics memo (storage/stats.h): every count equals a fresh
// scan, filtered atoms count their own rows, a replaced relation gets fresh
// counts, and the plans built on memoized counts are the plans built on
// fresh ones — cold, warm and without a memo, solo and from four threads.

#include "storage/stats.h"

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/str_util.h"
#include "data/workloads.h"
#include "gtest/gtest.h"
#include "plan/advisor.h"
#include "query/parser.h"
#include "server/plan_cache.h"
#include "test_util.h"
#include "tj/order_optimizer.h"

namespace ptp {
namespace {

using test::TinyScale;

// Every non-empty subset of the columns 0..arity-1, as ascending lists.
std::vector<std::vector<int>> ColumnSubsets(size_t arity) {
  std::vector<std::vector<int>> subsets;
  for (size_t mask = 1; mask < (size_t{1} << arity); ++mask) {
    std::vector<int> cols;
    for (size_t c = 0; c < arity; ++c) {
      if (mask & (size_t{1} << c)) cols.push_back(static_cast<int>(c));
    }
    subsets.push_back(cols);
  }
  return subsets;
}

// `q` with each atom's statistics replaced: a fresh (cold) memo per atom
// that has one, or none at all.
NormalizedQuery WithFreshMemos(NormalizedQuery q) {
  for (NormalizedAtom& atom : q.atoms) {
    if (atom.stats != nullptr) {
      atom.stats =
          std::make_shared<RelationStatsMemo>(atom.relation.NumTuples());
    }
  }
  return q;
}
NormalizedQuery WithoutMemos(NormalizedQuery q) {
  for (NormalizedAtom& atom : q.atoms) atom.stats = nullptr;
  return q;
}

// Everything BlindAdvice derives, doubles compared exactly.
void ExpectSameBlind(const BlindEstimates& a, const BlindEstimates& b,
                     const std::string& where) {
  const StrategyAdvice& x = a.advice;
  const StrategyAdvice& y = b.advice;
  EXPECT_EQ(x.shuffle, y.shuffle) << where;
  EXPECT_EQ(x.join, y.join) << where;
  EXPECT_EQ(x.est_rs_tuples, y.est_rs_tuples) << where;
  EXPECT_EQ(x.est_br_tuples, y.est_br_tuples) << where;
  EXPECT_EQ(x.est_hc_tuples, y.est_hc_tuples) << where;
  EXPECT_EQ(x.est_max_intermediate, y.est_max_intermediate) << where;
  EXPECT_EQ(x.est_rs_skew, y.est_rs_skew) << where;
  EXPECT_EQ(x.hc_config.config.join_vars, y.hc_config.config.join_vars)
      << where;
  EXPECT_EQ(x.hc_config.config.dims, y.hc_config.config.dims) << where;
  EXPECT_EQ(x.hc_config.expected_load, y.hc_config.expected_load) << where;
  EXPECT_EQ(x.hc_config.cells_used, y.hc_config.cells_used) << where;
  EXPECT_EQ(x.est_bloom_reduction, y.est_bloom_reduction) << where;
  EXPECT_EQ(x.use_bloom, y.use_bloom) << where;
  EXPECT_EQ(x.rationale, y.rationale) << where;
  EXPECT_EQ(a.total_input, b.total_input) << where;
  EXPECT_EQ(a.order, b.order) << where;
  EXPECT_EQ(a.sizes, b.sizes) << where;
  // The decision itself, as the server first applies it.
  EXPECT_EQ(ApplyFeedback(a).rationale, ApplyFeedback(b).rationale) << where;
}

void ExpectSameOrder(const OrderChoice& a, const OrderChoice& b,
                     const std::string& where) {
  EXPECT_EQ(a.order, b.order) << where;
  EXPECT_EQ(a.estimated_cost, b.estimated_cost) << where;
}

// The four ad-hoc templates of the serving benchmark (a range on a join
// variable of Q1, Q5 and Q8; Q7 for another award and a year window), at
// constant set `i`, over the factory's Twitter (Q1) and Freebase (Q7)
// catalogs.
struct AdhocText {
  std::string text;
  Catalog* catalog;
};
std::vector<AdhocText> AdhocTexts(int i, Catalog* twitter, Catalog* freebase) {
  const int lo = 7 + 41 * i;
  return {
      {StrFormat("Triangles(x,y,z) :- Twitter_R(x,y), Twitter_S(y,z), "
                 "Twitter_T(z,x), x >= %d, x < %d.",
                 lo, lo + 300),
       twitter},
      {StrFormat("Rectangles(x,y,z,p) :- Twitter_R(x,y), Twitter_S(y,z), "
                 "Twitter_T(z,p), Twitter_K(p,x), x >= %d, x < %d.",
                 lo, lo + 100),
       twitter},
      {StrFormat("OscarWinners(a) :- ObjectName(aw, \"%s\"), "
                 "HonorAward(h,aw), HonorActor(h,a), HonorYear(h,y), "
                 "y >= %d, y < %d.",
                 i % 2 == 0 ? "The Academy Awards" : "award_1", 1950 + i,
                 1960 + 2 * i),
       freebase},
      {StrFormat("ActorDirector(a,d) :- ActorPerform(a,p1), "
                 "ActorPerform(a,p2), PerformFilm(p1,f1), PerformFilm(p2,f2), "
                 "DirectorFilm(d,f1), DirectorFilm(d,f2), a >= %d, a < %d.",
                 lo, lo + 100),
       freebase},
  };
}

Result<NormalizedQuery> NormalizeText(const std::string& text,
                                      Catalog* catalog) {
  PTP_ASSIGN_OR_RETURN(ConjunctiveQuery cq,
                       ParseDatalog(text, &catalog->dictionary()));
  return Normalize(cq, *catalog);
}

TEST(StatsMemoTest, EveryColumnSetOfThePaperAtomsMatchesAFreshCount) {
  WorkloadFactory factory(TinyScale());
  for (int q : WorkloadFactory::AllQueries()) {
    auto wl = factory.Make(q);
    ASSERT_TRUE(wl.ok()) << q;
    for (const NormalizedAtom& atom : wl->normalized.atoms) {
      const Relation& rel = atom.relation;
      for (const std::vector<int>& cols : ColumnSubsets(rel.arity())) {
        const ColumnSetStats got = AtomColumnStats(atom, cols);
        EXPECT_EQ(got.distinct,
                  CountDistinctPrefixes(rel.PermuteColumns(cols), cols.size()))
            << wl->id << " " << rel.name();
        std::map<Tuple, size_t> freq;
        size_t max_freq = 0;
        for (size_t row = 0; row < rel.NumTuples(); ++row) {
          Tuple key;
          for (int c : cols) key.push_back(rel.At(row, static_cast<size_t>(c)));
          max_freq = std::max(max_freq, ++freq[key]);
        }
        EXPECT_EQ(got.max_frequency, max_freq) << wl->id << " " << rel.name();
      }
    }
  }
}

TEST(StatsMemoTest, FilteredAtomsNeverReadTheBaseMemo) {
  Catalog catalog;
  Relation r("R", Schema{"a", "b"});
  for (Value a = 0; a < 20; ++a) {
    for (Value b = 0; b <= a % 4; ++b) r.AddTuple({a, b});
  }
  catalog.Put(r);
  Relation s("S", Schema{"a", "b"});
  for (Value a = 0; a < 30; ++a) s.AddTuple({a % 10, a});
  catalog.Put(s);
  // R appears filtered by a constant and by a repeated variable; S plain.
  auto nq = NormalizeText("Q(x,y) :- R(x, 2), R(y, y), S(x, y).", &catalog);
  ASSERT_TRUE(nq.ok()) << nq.status().ToString();
  ASSERT_EQ(nq->atoms.size(), 3u);
  EXPECT_EQ(nq->atoms[0].stats, nullptr);
  EXPECT_EQ(nq->atoms[1].stats, nullptr);
  EXPECT_EQ(nq->atoms[2].stats, catalog.Stats("S"));

  BlindAdvice(*nq, 4);
  OptimizeVariableOrder(*nq);
  EXPECT_EQ(catalog.Stats("R")->counts(), 0u);
  EXPECT_GT(catalog.Stats("S")->counts(), 0u);
  // The filtered atoms count their own rows, not the base's.
  EXPECT_EQ(AtomColumnStats(nq->atoms[0], {0}).distinct,
            CountDistinctPrefixes(nq->atoms[0].relation, 1));
  EXPECT_EQ(AtomColumnStats(nq->atoms[1], {0}).distinct, 4u);  // b == a
  EXPECT_EQ(catalog.Stats("R")->counts(), 0u);
}

TEST(StatsMemoTest, PutOfASameNamedRelationGivesFreshCounts) {
  // Regression for stale statistics: the replaced relation has the same
  // name and cardinality but different values.
  Catalog catalog;
  Relation first("R", Schema{"a", "b"});
  Relation second("R", Schema{"a", "b"});
  for (Value i = 0; i < 12; ++i) {
    first.AddTuple({i % 3, i});
    second.AddTuple({i % 6, i % 2});
  }
  catalog.Put(first);
  const char* text = "Q(x,y) :- R(x,y).";
  auto before = NormalizeText(text, &catalog);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(AtomColumnStats(before->atoms[0], {0}).distinct, 3u);
  EXPECT_EQ(AtomColumnStats(before->atoms[0], {0, 1}).distinct, 12u);

  catalog.Put(second);
  auto after = NormalizeText(text, &catalog);
  ASSERT_TRUE(after.ok());
  EXPECT_NE(after->atoms[0].stats, before->atoms[0].stats);
  EXPECT_EQ(AtomColumnStats(after->atoms[0], {0}).distinct, 6u);
  EXPECT_EQ(AtomColumnStats(after->atoms[0], {0, 1}).distinct, 6u);
  EXPECT_EQ(AtomColumnStats(after->atoms[0], {1}).max_frequency, 6u);
  // A query normalized before the Put keeps the statistics of its rows.
  EXPECT_EQ(AtomColumnStats(before->atoms[0], {0}).distinct, 3u);
}

TEST(PlanDecisionIdentityTest, ColdWarmAndMemolessStatisticsPlanAlike) {
  WorkloadFactory factory(TinyScale());
  std::vector<std::pair<std::string, NormalizedQuery>> queries;
  Catalog* twitter = nullptr;
  Catalog* freebase = nullptr;
  for (int q : WorkloadFactory::AllQueries()) {
    auto wl = factory.Make(q);
    ASSERT_TRUE(wl.ok()) << q;
    queries.emplace_back(wl->id, wl->normalized);
    if (q == 1) twitter = wl->catalog.get();
    if (q == 7) freebase = wl->catalog.get();
  }
  for (int i = 0; i < 3; ++i) {
    for (const AdhocText& adhoc : AdhocTexts(i, twitter, freebase)) {
      auto nq = NormalizeText(adhoc.text, adhoc.catalog);
      ASSERT_TRUE(nq.ok()) << adhoc.text;
      queries.emplace_back(adhoc.text, *nq);
    }
  }
  for (const auto& [where, shared] : queries) {
    const NormalizedQuery memoless = WithoutMemos(shared);
    const NormalizedQuery cold = WithFreshMemos(shared);
    const BlindEstimates reference = BlindAdvice(memoless, 16);
    const OrderChoice reference_order = OptimizeVariableOrder(memoless);
    // Cold memos, then the same memos warm, then the catalog's shared ones.
    for (const NormalizedQuery* q : {&cold, &cold, &shared}) {
      ExpectSameBlind(BlindAdvice(*q, 16), reference, where);
      ExpectSameOrder(OptimizeVariableOrder(*q), reference_order, where);
    }
  }
}

TEST(PlanDecisionIdentityTest, FiftyAdhocWindowsCountEachColumnSetOnce) {
  Rng rng(3);
  auto catalog = std::make_shared<Catalog>();
  for (const char* name : {"R", "S", "U"}) {
    catalog->Put(
        test::RandomBinaryRelation(name, {"a", "b"}, 3000, 400, &rng));
  }
  PlanCache cache;
  for (int i = 0; i < 50; ++i) {
    const std::string text = StrFormat(
        "T(x,y,z) :- R(x,y), S(y,z), U(z,x), x >= %d, x < %d.", i, i + 200);
    auto entry = cache.Prepare(text, 8, catalog.get(), nullptr);
    ASSERT_TRUE(entry.ok()) << text;
    cache.VarOrder(*entry->prepared);
  }
  EXPECT_EQ(cache.stats().blind_advisories, 50u);
  EXPECT_EQ(cache.stats().order_optimizations, 50u);
  // A binary relation has three column sets — {a}, {b}, {a,b} — and the
  // triangle reads all three of each relation; each was counted once.
  for (const char* name : {"R", "S", "U"}) {
    EXPECT_EQ(catalog->Stats(name)->counts(), 3u) << name;
  }
}

TEST(PlanDecisionIdentityTest, FourThreadsPrepareThroughOnePlanCache) {
  WorkloadFactory factory(TinyScale());
  auto q1 = factory.Make(1);
  auto q7 = factory.Make(7);
  ASSERT_TRUE(q1.ok() && q7.ok());
  Catalog* twitter = q1->catalog.get();
  Catalog* freebase = q7->catalog.get();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 3;
  PlanCache cache;
  std::vector<std::vector<std::shared_ptr<const PreparedPlan>>> plans(
      kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int k = 0; k < kPerThread; ++k) {
        // Every thread prepares all four shapes, each at its own constants.
        for (const AdhocText& adhoc :
             AdhocTexts(t * kPerThread + k, twitter, freebase)) {
          auto entry = cache.Prepare(adhoc.text, 16, adhoc.catalog, nullptr);
          if (!entry.ok()) continue;  // reported below as a missing plan
          cache.VarOrder(*entry->prepared);
          plans[static_cast<size_t>(t)].push_back(entry->prepared);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(cache.stats().parses, size_t{kThreads * kPerThread * 4});
  for (const auto& per_thread : plans) {
    ASSERT_EQ(per_thread.size(), size_t{kPerThread * 4});
    for (const auto& plan : per_thread) {
      const NormalizedQuery memoless = WithoutMemos(plan->normalized());
      ExpectSameBlind(plan->blind(), BlindAdvice(memoless, 16), "threaded");
      EXPECT_EQ(cache.VarOrder(*plan), OptimizeVariableOrder(memoless).order);
    }
  }
}

}  // namespace
}  // namespace ptp
