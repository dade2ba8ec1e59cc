#ifndef PTP_BENCH_UTIL_REPORT_H_
#define PTP_BENCH_UTIL_REPORT_H_

#include <string>
#include <vector>

#include "common/str_util.h"  // WithCommas / FormatSeconds / FormatMillions
#include "plan/strategies.h"

namespace ptp {

/// Fixed-width console table used by all bench binaries.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);
  void AddRow(std::vector<std::string> row);
  /// Renders with columns padded to the widest cell.
  std::string ToString() const;
  void Print() const;

 private:
  std::vector<std::vector<std::string>> rows_;
};

/// Prints one paper figure's three panels (wall clock / total CPU / tuples
/// shuffled) for the six strategy results in paper order. `paper_values`
/// are the numbers the paper reports (for side-by-side comparison), or
/// empty to skip. A paper wall clock of 0 is a FAIL, rendered as in
/// Figure 9.
struct PaperFigure {
  std::vector<double> wall_seconds{};     // paper's Figure (a), or empty
  std::vector<double> cpu_seconds{};      // paper's Figure (b)
  std::vector<double> tuples_millions{};  // paper's Figure (c)
};

void PrintSixConfigFigure(const std::string& title,
                          const std::vector<StrategyResult>& results,
                          const PaperFigure& paper);

/// How a measured run stands against one of the paper's claims, in
/// EXPERIMENTS.md's marks: ✔ the claim holds; ≈ its direction holds but
/// the factor is off the paper's; ✘ it does not hold.
enum class Verdict { kReproduced, kPartial, kDiverges };
const char* VerdictMark(Verdict verdict);

/// What a claim measures on a strategy's run.
enum class ClaimMetric {
  kWallSeconds,  // timed
  kCpuSeconds,   // timed
  kTuplesShuffled,
  kShuffleSkew,  // QueryMetrics::MaxShuffleSkew
  kFailed,       // FAIL under the budget
  kHcShares,     // the HyperCube share of each dimension
};

/// How a claim compares its subject's value. A factor counts as the
/// paper's within 2x of it: a kLess or kGreater claim with a paper factor
/// (`paper` > 0) is ✔ only then, else ≈.
enum class ClaimRelation {
  kLess,     // subject < other; measured factor other / subject
  kGreater,  // subject > other; measured factor subject / other
  kLeast,    // no completed strategy is below 0.999 * subject
  kNear,     // subject / other (or subject alone) within 2x of paper
  kMatches,  // kFailed: subject FAILs; kHcShares: the multiset of `shares`
};

/// One claim the paper makes about a six-configuration figure. A side names
/// a strategy ("HC_TJ") or a shuffle family ("RS"), whose value is its
/// least completed member's. FAILed strategies take part in no comparison.
struct PaperClaim {
  std::string text{};
  Verdict recorded = Verdict::kReproduced;  // as EXPERIMENTS.md marks it
  ClaimMetric metric = ClaimMetric::kWallSeconds;
  ClaimRelation relation = ClaimRelation::kLess;
  std::string subject{};
  std::string other{};        // kLess, kGreater, kNear; empty = none
  double paper = 0;           // the paper's factor (or value); 0 = none given
  std::vector<int> shares{};  // kHcShares: the paper's shares

  /// Wall-clock and CPU claims vary run to run; the others are fixed by
  /// the seeded data at any thread count.
  bool timed() const {
    return metric == ClaimMetric::kWallSeconds ||
           metric == ClaimMetric::kCpuSeconds;
  }
};

struct ClaimOutcome {
  Verdict verdict = Verdict::kDiverges;
  std::string measured;      // the factor, value, winner or config measured
  std::string paper = "-";  // the paper's side, as printed
};

/// Judges `claim` on six strategy results in paper order.
ClaimOutcome EvaluateClaim(const PaperClaim& claim,
                           const std::vector<StrategyResult>& results);

/// One six-configuration figure of the paper: the query, the scale it runs
/// at, the paper's numbers and the claims the paper draws from them.
struct PaperFigureSpec {
  int figure = 0;
  int query = 0;  // Q1..Q8
  std::string title{};
  /// BenchConfig flags giving the figure's scale and budgets; flags on the
  /// command line come after them and win.
  std::vector<std::string> flags{};
  std::vector<int> join_order{};  // StrategyOptions::join_order to pin
  PaperFigure paper{};
  std::vector<PaperClaim> claims{};
};

/// Figures 3, 4, 6, 9, 13, 14, 15 and 17, in that order.
const std::vector<PaperFigureSpec>& PaperFigureTable();

/// Pearson correlation of two equal-length series.
double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y);

}  // namespace ptp

#endif  // PTP_BENCH_UTIL_REPORT_H_
