// Reproduces Table 6: the cross-query summary of the extended evaluation.
// For each of Q1..Q8: number of joined tables, join variables, cyclicity,
// input size, tuples shuffled by the regular and HyperCube shuffles, the
// regular shuffle's worst skew, the RS_HJ / HC_TJ runtime ratio, and the
// configuration with the lowest runtime. Expected shape (paper): cyclic
// queries with large intermediates and high RS skew favor HC_TJ (Q1, Q5,
// Q6, Q2, and — via broadcast — Q4); Q8 (little gain for HC's 6-D cube) and
// the acyclic Q3 favor the regular shuffle; Q7 favors HC_TJ through its
// degenerate 1x64 configuration.

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace ptp;
  // One shared scale small enough that every plan of every query completes.
  bench::BenchConfig defaults;
  defaults.twitter_nodes = 6000;
  defaults.twitter_edges = 30000;
  defaults.intermediate_budget = 60'000'000;
  defaults.sort_budget = 60'000'000;  // Table 6 needs RS_TJ sizes, not FAILs
  auto config = bench::BenchConfig::FromArgs(argc, argv, defaults);
  WorkloadFactory factory(config.ToScale());

  struct PaperRow {
    const char* rs_size;
    const char* hc_size;
    const char* skew;
    const char* ratio;
    const char* best;
  };
  // Paper values (millions; ratio = Time(RS_HJ)/Time(HC_TJ)).
  const std::map<int, PaperRow> paper = {
      {1, {"54", "13", "20", "12", "HC_TJ"}},
      {2, {"75", "25", "16", "9.2", "HC_TJ"}},
      {3, {"7", "106", "2.8", "0.21", "RS_TJ"}},
      {4, {"13893", "210", "9.3", "45", "BR_TJ"}},
      {5, {"1841", "36", "29", "12", "HC_TJ"}},
      {6, {"74", "17", "29", "13", "HC_TJ"}},
      {7, {"0.24", "0.24", "2.6", "1.3", "HC_TJ"}},
      {8, {"54", "60", "3.5", "0.44", "RS_HJ"}},
  };

  std::cout << "Table 6: summary of the extended evaluation (ours vs paper "
               "in brackets)\n\n";
  TablePrinter table({"query", "#tables", "#join vars", "cyclic", "input",
                      "RS size", "HC size", "RS skew", "T(RS_HJ)/T(HC_TJ)",
                      "fastest (timed)"});

  for (int qn : WorkloadFactory::AllQueries()) {
    auto wl = factory.Make(qn);
    PTP_CHECK(wl.ok()) << wl.status().ToString();
    StrategyOptions opts = config.ToOptions();
    if (qn == 4) opts.join_order = {0, 1, 2, 3, 4, 5, 6, 7};  // Figure 7 plan

    std::vector<StrategyResult> results =
        RunAllStrategies(wl->normalized, opts).value();
    const QueryMetrics& rs_hj = results[0].metrics;
    const QueryMetrics& hc_tj = results[5].metrics;

    // Worst skew among the non-trivial regular shuffles (a 1-tuple selected
    // relation trivially lands on one worker; the paper's skew numbers are
    // about the data-bearing shuffles).
    double rs_skew = 1.0;
    for (const ShuffleMetrics& s : rs_hj.shuffles) {
      if (s.tuples_sent < 100 * static_cast<size_t>(opts.num_workers)) {
        continue;
      }
      rs_skew = std::max({rs_skew, s.producer_skew, s.consumer_skew});
    }

    size_t input = 0;
    for (const auto& atom : wl->normalized.atoms) {
      input += atom.relation.NumTuples();
    }

    // Fastest completed configuration by measured wall clock: one timed
    // pick, so near-ties (Q3 RS_HJ/RS_TJ, Q7 HC_TJ/HC_HJ) flip between runs.
    const auto strategies = AllStrategies();
    int best = -1;
    for (size_t i = 0; i < results.size(); ++i) {
      if (results[i].metrics.failed) continue;
      if (best < 0 || results[i].metrics.wall_seconds <
                          results[static_cast<size_t>(best)]
                              .metrics.wall_seconds) {
        best = static_cast<int>(i);
      }
    }
    const PaperRow& pr = paper.at(qn);
    table.AddRow(
        {wl->id, std::to_string(wl->normalized.atoms.size()),
         std::to_string(MakeShareProblem(wl->normalized).join_vars.size()),
         wl->cyclic ? "Y" : "N", FormatMillions(input),
         StrFormat("%s [%sM]",
                   rs_hj.failed ? "FAIL"
                                : FormatMillions(rs_hj.TuplesShuffled()).c_str(),
                   pr.rs_size),
         StrFormat("%s [%sM]", FormatMillions(hc_tj.TuplesShuffled()).c_str(),
                   pr.hc_size),
         StrFormat("%.1f [%s]", rs_skew, pr.skew),
         StrFormat("%.2f [%s]",
                   rs_hj.failed ? 0.0
                                : rs_hj.wall_seconds / hc_tj.wall_seconds,
                   pr.ratio),
         StrFormat("%s [%s]",
                   best >= 0 ? StrategyName(strategies[best].first,
                                            strategies[best].second)
                             : "-",
                   pr.best)});
  }
  table.Print();
  std::cout << "\nNotes: \"fastest (timed)\" is one wall-clock pick and "
               "varies run to run where configurations are near-tied; the "
               "shuffle-size and skew columns are deterministic and "
               "scale-independent.\n";
  return 0;
}
