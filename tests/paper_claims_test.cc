// The paper's claims about its six-configuration figures (PaperFigureTable):
// unit cases for the claim evaluator on hand-built results, then every
// figure run at its table scale — the runs `paper_figures` prints — with
// each deterministic claim held to its recorded verdict. The data are
// seeded and the engine is bit-identical at any thread count, so a changed
// verdict means the engine or the data changed, not the machine.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../bench/bench_common.h"

namespace ptp {
namespace {

using M = ClaimMetric;
using R = ClaimRelation;

// Six results in paper order (RS_HJ RS_TJ BR_HJ BR_TJ HC_HJ HC_TJ), each
// with its wall clock and one shuffle of `tuples`.
std::vector<StrategyResult> Six(const std::vector<double>& wall,
                                const std::vector<size_t>& tuples) {
  std::vector<StrategyResult> results(6);
  for (size_t i = 0; i < results.size(); ++i) {
    results[i].metrics.wall_seconds = wall[i];
    ShuffleMetrics shuffle;
    shuffle.tuples_sent = tuples[i];
    results[i].metrics.shuffles.push_back(shuffle);
  }
  return results;
}

Verdict Judge(M metric, R relation, const std::string& subject,
              const std::string& other, double paper,
              const std::vector<StrategyResult>& results) {
  PaperClaim claim;
  claim.metric = metric;
  claim.relation = relation;
  claim.subject = subject;
  claim.other = other;
  claim.paper = paper;
  return EvaluateClaim(claim, results).verdict;
}

constexpr Verdict kYes = Verdict::kReproduced;
constexpr Verdict kPartly = Verdict::kPartial;
constexpr Verdict kNo = Verdict::kDiverges;

const std::vector<double> kWall = {3, 3, 2, 2, 1, 0.5};
const std::vector<size_t> kTuples = {400, 400, 800, 800, 100, 100};

TEST(ClaimEvaluatorTest, Less) {
  const auto results = Six(kWall, kTuples);
  EXPECT_EQ(Judge(M::kTuplesShuffled, R::kLess, "HC", "RS", 0, results), kYes);
  EXPECT_EQ(Judge(M::kTuplesShuffled, R::kLess, "RS", "HC", 0, results), kNo);
  EXPECT_EQ(Judge(M::kTuplesShuffled, R::kLess, "RS", "RS", 0, results), kNo);
  // The measured factor is 4x: within 2x of 3x, not of 10x.
  EXPECT_EQ(Judge(M::kTuplesShuffled, R::kLess, "HC", "RS", 3, results), kYes);
  EXPECT_EQ(Judge(M::kTuplesShuffled, R::kLess, "HC", "RS", 10, results),
            kPartly);
  EXPECT_EQ(Judge(M::kWallSeconds, R::kLess, "HC_TJ", "HC_HJ", 0, results),
            kYes);
  EXPECT_EQ(Judge(M::kWallSeconds, R::kLess, "BR_TJ", "BR_HJ", 0, results),
            kNo);
}

TEST(ClaimEvaluatorTest, Greater) {
  const auto results = Six(kWall, kTuples);
  EXPECT_EQ(Judge(M::kTuplesShuffled, R::kGreater, "BR", "RS", 0, results),
            kYes);
  EXPECT_EQ(Judge(M::kTuplesShuffled, R::kGreater, "HC", "RS", 0, results),
            kNo);
  EXPECT_EQ(Judge(M::kTuplesShuffled, R::kGreater, "BR", "HC", 8, results),
            kYes);
  EXPECT_EQ(Judge(M::kTuplesShuffled, R::kGreater, "BR", "HC", 30, results),
            kPartly);
  // A claim that does not hold stays ✘ whatever the paper's factor.
  EXPECT_EQ(Judge(M::kTuplesShuffled, R::kGreater, "HC", "BR", 0.125, results),
            kNo);
}

TEST(ClaimEvaluatorTest, Least) {
  const auto results = Six(kWall, kTuples);
  EXPECT_EQ(Judge(M::kWallSeconds, R::kLeast, "HC_TJ", "", 0, results), kYes);
  EXPECT_EQ(Judge(M::kWallSeconds, R::kLeast, "HC_HJ", "", 0, results), kNo);
  EXPECT_EQ(Judge(M::kWallSeconds, R::kLeast, "RS", "", 0, results), kNo);
  // Ties within a family count for the family.
  EXPECT_EQ(Judge(M::kTuplesShuffled, R::kLeast, "HC", "", 0, results), kYes);
  EXPECT_EQ(Judge(M::kTuplesShuffled, R::kLeast, "HC_HJ", "", 0, results),
            kYes);
  EXPECT_EQ(EvaluateClaim({.metric = M::kWallSeconds,
                           .relation = R::kLeast,
                           .subject = "RS"},
                          results)
                .measured,
            "HC_TJ");
}

TEST(ClaimEvaluatorTest, LeastKeepsTheTieTolerance) {
  auto results = Six(kWall, kTuples);
  results[4].metrics.wall_seconds = 0.4996;  // HC_HJ within 0.1% of HC_TJ
  EXPECT_EQ(Judge(M::kWallSeconds, R::kLeast, "HC_TJ", "", 0, results), kYes);
  results[4].metrics.wall_seconds = 0.499;
  EXPECT_EQ(Judge(M::kWallSeconds, R::kLeast, "HC_TJ", "", 0, results), kNo);
}

TEST(ClaimEvaluatorTest, FailedStrategyIsNotTheFastestOrTheLeast) {
  auto results = Six(kWall, kTuples);
  // RS_TJ FAILs after a partial run: it is quicker and shuffled less than
  // anything that completed, and must not count.
  results[1].metrics.failed = true;
  results[1].metrics.wall_seconds = 0.01;
  results[1].metrics.shuffles[0].tuples_sent = 1;
  EXPECT_EQ(Judge(M::kWallSeconds, R::kLeast, "HC_TJ", "", 0, results), kYes);
  EXPECT_EQ(Judge(M::kTuplesShuffled, R::kLeast, "HC", "", 0, results), kYes);
  EXPECT_EQ(Judge(M::kWallSeconds, R::kLeast, "RS_TJ", "", 0, results), kNo);
  // A family's value is its least completed member's.
  EXPECT_EQ(Judge(M::kTuplesShuffled, R::kGreater, "RS", "HC", 4, results),
            kYes);
  // A side with no completed member makes no comparison hold.
  results[0].metrics.failed = true;
  EXPECT_EQ(Judge(M::kTuplesShuffled, R::kGreater, "RS", "HC", 0, results),
            kNo);
  EXPECT_EQ(Judge(M::kTuplesShuffled, R::kLess, "HC", "RS", 0, results), kNo);
}

TEST(ClaimEvaluatorTest, Near) {
  auto results = Six(kWall, kTuples);
  EXPECT_EQ(Judge(M::kTuplesShuffled, R::kNear, "RS", "HC", 3, results), kYes);
  EXPECT_EQ(Judge(M::kTuplesShuffled, R::kNear, "RS", "HC", 1, results), kNo);
  // Against the paper's value alone: consumer skew 3 against 3.5 and 13.
  results[0].metrics.shuffles[0].consumer_skew = 3;
  EXPECT_EQ(Judge(M::kShuffleSkew, R::kNear, "RS_HJ", "", 3.5, results), kYes);
  EXPECT_EQ(Judge(M::kShuffleSkew, R::kNear, "RS_HJ", "", 13, results), kNo);
}

TEST(ClaimEvaluatorTest, MatchesFailAndShares) {
  auto results = Six(kWall, kTuples);
  results[1].metrics.failed = true;
  EXPECT_EQ(Judge(M::kFailed, R::kMatches, "RS_TJ", "", 0, results), kYes);
  EXPECT_EQ(Judge(M::kFailed, R::kMatches, "RS_HJ", "", 0, results), kNo);
  results[5].hc_config.dims = {4, 2, 2};
  PaperClaim shares = {.metric = M::kHcShares,
                       .relation = R::kMatches,
                       .subject = "HC_TJ",
                       .shares = {2, 4, 2}};
  EXPECT_EQ(EvaluateClaim(shares, results).verdict, kYes);  // a multiset
  shares.shares = {4, 4};
  EXPECT_EQ(EvaluateClaim(shares, results).verdict, kNo);
}

class PaperClaimsTest : public ::testing::TestWithParam<size_t> {};

TEST_P(PaperClaimsTest, DeterministicClaimsKeepTheirRecordedVerdict) {
  const PaperFigureSpec& figure = PaperFigureTable()[GetParam()];
  const bench::BenchConfig config =
      bench::BenchConfig::FromFlags(figure.flags);
  WorkloadFactory factory(config.ToScale());
  Result<Workload> workload = factory.Make(figure.query);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  StrategyOptions options = config.ToOptions();
  options.join_order = figure.join_order;
  Result<std::vector<StrategyResult>> run =
      RunAllStrategies(workload->normalized, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  const Relation* reference = nullptr;
  for (const StrategyResult& r : *run) {
    if (r.metrics.failed) continue;
    if (reference != nullptr) {
      EXPECT_TRUE(r.output.EqualsUnordered(*reference));
    }
    reference = &r.output;
  }
  int deterministic = 0;
  for (const PaperClaim& claim : figure.claims) {
    if (claim.timed()) continue;
    ++deterministic;
    const ClaimOutcome got = EvaluateClaim(claim, *run);
    EXPECT_STREQ(VerdictMark(got.verdict), VerdictMark(claim.recorded))
        << "Figure " << figure.figure << ": " << claim.text << " (measured "
        << got.measured << ", paper " << got.paper << ")";
  }
  EXPECT_GT(deterministic, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Figures, PaperClaimsTest,
    ::testing::Range<size_t>(0, PaperFigureTable().size()),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return "Figure" + std::to_string(PaperFigureTable()[info.param].figure);
    });

}  // namespace
}  // namespace ptp
