#include "bench_util/report.h"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <sstream>

#include "common/logging.h"
#include "common/str_util.h"
#include "obs/explain.h"

namespace ptp {

TablePrinter::TablePrinter(std::vector<std::string> header) {
  rows_.push_back(std::move(header));
}

void TablePrinter::AddRow(std::vector<std::string> row) {
  rows_.push_back(std::move(row));
}

std::string TablePrinter::ToString() const {
  std::vector<size_t> widths;
  for (const auto& row : rows_) {
    if (widths.size() < row.size()) widths.resize(row.size(), 0);
    for (size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  std::ostringstream os;
  for (size_t r = 0; r < rows_.size(); ++r) {
    for (size_t i = 0; i < rows_[r].size(); ++i) {
      if (i > 0) os << "  ";
      os << rows_[r][i];
      os << std::string(widths[i] - rows_[r][i].size(), ' ');
    }
    os << "\n";
    if (r == 0) {
      size_t total = 0;
      for (size_t w : widths) total += w + 2;
      os << std::string(total > 2 ? total - 2 : 0, '-') << "\n";
    }
  }
  return os.str();
}

void TablePrinter::Print() const { std::cout << ToString() << std::flush; }

void PrintSixConfigFigure(const std::string& title,
                          const std::vector<StrategyResult>& results,
                          const PaperFigure& paper) {
  PTP_CHECK_EQ(results.size(), 6u);
  std::cout << "== " << title << " ==\n";
  const auto strategies = AllStrategies();
  TablePrinter table({"config", "wall clock", "total CPU", "tuples shuffled",
                      "output", "paper wall", "paper CPU", "paper shuffled"});
  for (size_t i = 0; i < 6; ++i) {
    const StrategyResult& r = results[i];
    const bool paper_failed =
        i < paper.wall_seconds.size() && paper.wall_seconds[i] == 0;
    auto paper_cell = [&](const std::vector<double>& values, const char* f) {
      if (paper_failed) return std::string("FAIL");
      return i < values.size() ? StrFormat(f, values[i]) : std::string("-");
    };
    std::vector<std::string> row = SummaryCells(r.metrics);
    row.insert(row.begin(),
               StrategyName(strategies[i].first, strategies[i].second));
    row.push_back(paper_cell(paper.wall_seconds, "%.1fs"));
    row.push_back(paper_cell(paper.cpu_seconds, "%.0fs"));
    row.push_back(paper_cell(paper.tuples_millions, "%.0fM"));
    table.AddRow(std::move(row));
  }
  table.Print();
}

const char* VerdictMark(Verdict verdict) {
  static const char* const kMarks[] = {"✔", "≈", "✘"};
  return kMarks[static_cast<int>(verdict)];
}

namespace {

// How far a factor may sit from the paper's and still count as it, and how
// close another strategy may come to a kLeast subject without beating it.
constexpr double kMagnitudeBand = 2.0;
constexpr double kTieTolerance = 0.999;

std::string Name(size_t strategy) {
  const auto [shuffle, join] = AllStrategies()[strategy];
  return StrategyName(shuffle, join);
}

double MetricOf(ClaimMetric metric, const QueryMetrics& m) {
  if (metric == ClaimMetric::kCpuSeconds) return m.TotalCpuSeconds();
  if (metric == ClaimMetric::kShuffleSkew) return m.MaxShuffleSkew();
  if (metric == ClaimMetric::kTuplesShuffled) return m.TuplesShuffled();
  return m.wall_seconds;
}

/// The least value among `side`'s completed members; NaN when none
/// completed, and no comparison holds for NaN.
double SideValue(const PaperClaim& claim, const std::string& side,
                 const std::vector<StrategyResult>& results) {
  double least = NAN;
  bool named = false;
  for (size_t i = 0; i < results.size(); ++i) {
    const std::string name = Name(i);
    if (name != side && name.rfind(side + "_", 0) != 0) continue;
    named = true;
    if (!results[i].metrics.failed) {
      least = std::fmin(least, MetricOf(claim.metric, results[i].metrics));
    }
  }
  PTP_CHECK(named) << "no strategy is named " << side;
  return least;
}

}  // namespace

ClaimOutcome EvaluateClaim(const PaperClaim& claim,
                           const std::vector<StrategyResult>& results) {
  PTP_CHECK_EQ(results.size(), 6u);
  ClaimOutcome out;
  bool holds = false;
  bool off_factor = false;  // holds, but outside the band of the paper's
  if (claim.metric == ClaimMetric::kFailed) {
    holds = std::isnan(SideValue(claim, claim.subject, results));
    out.measured = holds ? "FAIL" : "completed";
    out.paper = "FAIL";
  } else if (claim.metric == ClaimMetric::kHcShares) {
    size_t i = 0;
    while (i < results.size() && Name(i) != claim.subject) ++i;
    const HypercubeConfig& hc = results.at(i).hc_config;
    holds = std::ranges::is_permutation(hc.dims, claim.shares);
    out.measured = hc.ToString();
    std::vector<std::string> shares;
    for (int d : claim.shares) shares.push_back(std::to_string(d));
    out.paper = Join(shares, "x");
  } else if (claim.relation == ClaimRelation::kLeast) {
    double least = NAN;
    for (size_t i = 0; i < results.size(); ++i) {
      const double v = MetricOf(claim.metric, results[i].metrics);
      if (!results[i].metrics.failed && (out.measured.empty() || v < least)) {
        least = v;
        out.measured = Name(i);
      }
    }
    holds = least >= SideValue(claim, claim.subject, results) * kTieTolerance;
  } else {
    const double subject = SideValue(claim, claim.subject, results);
    const double other =
        claim.other.empty() ? 1.0 : SideValue(claim, claim.other, results);
    const double factor = claim.relation == ClaimRelation::kLess
                              ? other / subject
                              : subject / other;
    const char* format = claim.other.empty() ? "%.3g" : "%.3gx";
    out.measured = std::isnan(factor) ? "FAIL" : StrFormat(format, factor);
    if (claim.paper > 0) out.paper = StrFormat(format, claim.paper);
    const bool in_band = factor >= claim.paper / kMagnitudeBand &&
                         factor <= claim.paper * kMagnitudeBand;
    // For positive values, factor > 1 is subject < other (kLess) or
    // subject > other (kGreater).
    holds = claim.relation == ClaimRelation::kNear ? in_band : factor > 1;
    off_factor = holds && claim.paper > 0 && !in_band;
  }
  out.verdict = !holds     ? Verdict::kDiverges
                : off_factor ? Verdict::kPartial
                             : Verdict::kReproduced;
  return out;
}

const std::vector<PaperFigureSpec>& PaperFigureTable() {
  using enum ClaimMetric;
  using enum ClaimRelation;
  constexpr Verdict kYes = Verdict::kReproduced;
  constexpr Verdict kPartly = Verdict::kPartial;
  constexpr Verdict kNo = Verdict::kDiverges;
  static const std::vector<PaperFigureSpec> table = {
      // Q1 on the Twitter-like graph. HC_TJ is fastest; HC shuffles ~4x
      // less than RS and ~11x less than BR; RS plans suffer skew.
      {.figure = 3, .query = 1, .title = "Figure 3: Triangle query (Q1)",
       .paper = {{10.9, 12.8, 4.5, 5.4, 2.4, 0.9},
                 {75, 98, 116, 229, 37, 18},
                 {54, 54, 142, 142, 13, 13}},
       .claims = {{"HC shuffles less than RS", kYes, kTuplesShuffled, kLess,
                   "HC", "RS", 54.0 / 13},
                  {"HC shuffles less than BR", kYes, kTuplesShuffled, kLess,
                   "HC", "BR", 142.0 / 13},
                  {"HC_TJ is fastest", kYes, kWallSeconds, kLeast, "HC_TJ"},
                  {"HyperCube config used", kYes, kHcShares, kMatches, "HC_TJ",
                   "", 0, {4, 4, 4}}}},
      // Q2, the 4-clique (6-way self-join). BR_HJ's CPU blows up (~30x
      // RS_HJ) since every local join input is W times larger; BR_TJ beats
      // BR_HJ because TJ skips the pipelined intermediates. A sparser graph
      // keeps the 6-way self-join's intermediates laptop-sized.
      {.figure = 4, .query = 2, .title = "Figure 4: Clique query (Q2)",
       .flags = {"--twitter-nodes=6000", "--twitter-edges=40000",
                 "--budget=40000000"},
       .paper = {{14, 22, 54, 10, 3.2, 1.6},
                 {106, 111, 3138, 442, 110, 29},
                 {75, 75, 201, 201, 24, 24}},
       .claims = {{"BR_HJ CPU blows up vs RS_HJ", kPartly, kCpuSeconds,
                   kGreater, "BR_HJ", "RS_HJ", 3138.0 / 106},
                  {"BR_TJ beats BR_HJ on wall clock", kNo, kWallSeconds, kLess,
                   "BR_TJ", "BR_HJ"},
                  {"HC_TJ is fastest", kYes, kWallSeconds, kLeast, "HC_TJ"},
                  {"HyperCube config used (as a multiset)", kYes, kHcShares,
                   kMatches, "HC_TJ", "", 0, {2, 4, 2, 4}}}},
      // Q3 on Freebase (acyclic, selective). The regular shuffle wins;
      // HyperCube replicates base data across a 6-D cube (~15x RS's
      // traffic); broadcast is worst.
      {.figure = 6, .query = 3, .title = "Figure 6: Freebase query 1 (Q3)",
       .paper = {{2.1, 1.7, 17, 40, 5.2, 9.9},
                 {365, 105, 3681, 5711, 899, 1568},
                 {7.2, 7.2, 351, 351, 105, 105}},
       .claims = {{"RS shuffles least", kYes, kTuplesShuffled, kLeast, "RS"},
                  {"an RS plan is fastest", kYes, kWallSeconds, kLeast, "RS"}}},
      // Q4 on Freebase (cyclic, 8 joins). RS_HJ shuffles by far the most;
      // RS_TJ FAILs sorting the blown-up intermediate (the sort budget);
      // the Tributary-join plans win. The paper's Figure-7 left-deep order
      // is pinned: its intermediates keep growing until the final join.
      {.figure = 9, .query = 4, .title = "Figure 9: Freebase query 2 (Q4)",
       .flags = {"--sort-budget=3000000"},
       .join_order = {0, 1, 2, 3, 4, 5, 6, 7},
       .paper = {{11872, 0, 678, 153, 1355, 263},
                 {244086, 0, 41154, 18815, 46196, 13192},
                 {13893, 0, 491, 491, 210, 210}},
       .claims = {{"RS_TJ FAILs sorting", kYes, kFailed, kMatches, "RS_TJ"},
                  {"RS_HJ shuffles vastly more than HC", kPartly,
                   kTuplesShuffled, kGreater, "RS_HJ", "HC", 13893.0 / 210},
                  {"BR_TJ beats BR_HJ", kYes, kWallSeconds, kLess, "BR_TJ",
                   "BR_HJ"},
                  {"HC_TJ beats HC_HJ", kYes, kWallSeconds, kLess, "HC_TJ",
                   "HC_HJ"}}},
      // Q5, rectangles (App. A). RS reshuffles every 2- and 3-hop path and
      // RS_TJ FAILs; HC shuffles least; HC_TJ is fastest. The 3-hop
      // blow-up must stay in memory, hence the smaller, more skewed graph.
      {.figure = 13, .query = 5, .title = "Figure 13: Twitter Rectangle (Q5)",
       .flags = {"--twitter-nodes=8000", "--twitter-edges=16000",
                 "--twitter-zipf=0.8"},
       .paper = {{182, 0, 27, 15, 36, 14},
                 {2027, 0, 1494, 631, 1462, 354},
                 {1841, 0, 213, 213, 35, 35}},
       .claims = {{"RS shuffles more than BR", kYes, kTuplesShuffled, kGreater,
                   "RS", "BR"},
                  {"RS_TJ FAILs", kYes, kFailed, kMatches, "RS_TJ"},
                  {"HC shuffles the least", kYes, kTuplesShuffled, kLeast,
                   "HC"},
                  {"HC_TJ is fastest", kYes, kWallSeconds, kLeast, "HC_TJ"}}},
      // Q6, two back-to-back triangles (App. A): Q2's trend. HC shuffles
      // ~4x less than RS and ~8x less than BR; HC_TJ is fastest and TJ
      // beats HJ under HC. Q2's sparser graph.
      {.figure = 14, .query = 6, .title = "Figure 14: Twitter Two Rings (Q6)",
       .flags = {"--twitter-nodes=6000", "--twitter-edges=40000",
                 "--budget=40000000"},
       .paper = {{13, 24, 56, 7.8, 3.5, 1.0},
                 {97, 209, 3083, 241, 59, 14},
                 {73, 73, 129, 129, 17, 17}},
       .claims = {{"HC shuffles less than RS", kYes, kTuplesShuffled, kLess,
                   "HC", "RS", 73.0 / 17},
                  {"HC shuffles less than BR", kYes, kTuplesShuffled, kLess,
                   "HC", "BR", 129.0 / 17},
                  {"HC_TJ beats HC_HJ", kYes, kWallSeconds, kLess, "HC_TJ",
                   "HC_HJ"},
                  {"HC_TJ is fastest", kYes, kWallSeconds, kLeast, "HC_TJ"}}},
      // Q7, a star join with one tiny selected relation (App. A). The
      // optimal HyperCube degenerates to 1 x 64 (broadcast the selected
      // row, partition the rest on h), so HC shuffles as little as RS;
      // full broadcast shuffles ~30x more.
      {.figure = 15, .query = 7, .title = "Figure 15: Freebase Query 3 (Q7)",
       .paper = {{0.99, 0.78, 1.5, 1.0, 0.90, 0.77},
                 {17, 32, 68, 55, 37, 20},
                 {0.24, 0.24, 7.1, 7.1, 0.24, 0.24}},
       .claims = {{"HC shuffles about as much as RS", kYes, kTuplesShuffled,
                   kNear, "HC", "RS", 1.0},
                  {"broadcast shuffles far more than HC", kYes, kTuplesShuffled,
                   kGreater, "BR", "HC", 7.1 / 0.24},
                  {"HyperCube config: all shares on one variable", kYes,
                   kHcShares, kMatches, "HC_TJ", "", 0, {1, 64}}}},
      // Q8, actor-director pairs (App. A, cyclic): the one cyclic query
      // where the paper's regular shuffle wins. RS has little skew and HC's
      // 6-D cube reshuffles about as much (59M vs 53M).
      {.figure = 17, .query = 8, .title = "Figure 17: Freebase Query 4 (Q8)",
       .paper = {{7.1, 13, 19, 37, 10, 16},
                 {1135, 1164, 4955, 4143, 1335, 2257},
                 {53, 53, 234, 234, 59, 59}},
       .claims = {{"HC shuffles about as much as RS", kYes, kTuplesShuffled,
                   kNear, "HC", "RS", 59.0 / 53},
                  {"RS_HJ beats HC_TJ", kNo, kWallSeconds, kLess, "RS_HJ",
                   "HC_TJ"},
                  {"RS skew is mild", kNo, kShuffleSkew, kNear, "RS_HJ", "",
                   3.5}}},
  };
  return table;
}

double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y) {
  PTP_CHECK_EQ(x.size(), y.size());
  const size_t n = x.size();
  if (n < 2) return 0.0;
  double mx = 0, my = 0;
  for (size_t i = 0; i < n; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0, sxx = 0, syy = 0;
  for (size_t i = 0; i < n; ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
    syy += (y[i] - my) * (y[i] - my);
  }
  if (sxx <= 0 || syy <= 0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

}  // namespace ptp
