// Reproduces Figure 12 and Table 7: validation of the Tributary-join
// variable-order cost model (Sec. 5). For Q3, Q4, Q7 and Q8 we draw up to 20
// random variable orders (Q7 has only 2), run the single-machine Tributary
// join on pre-shuffled data with each order, and compare the estimated cost
// against the actual work. Expected shape (paper): positive correlation
// (r = 0.658 / 0.216 / 1.0 / 0.932), and the cost-model-chosen order beats
// the random-order average by up to ~10-100x (Table 7).

#include <algorithm>
#include <cmath>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace ptp;
  auto config = bench::BenchConfig::FromArgs(argc, argv);
  WorkloadFactory factory(config.ToScale());

  // Measured work comes from the obs counter registry ("tj.seeks"): each run
  // is measured as the counter's delta, which exercises the same plumbing
  // EXPLAIN ANALYZE reports and cross-checks TJMetrics.
  CounterRegistry registry;
  runtime::ScopedQueryContext sinks({.counters = &registry});
  uint64_t seeks_mark = 0;
  auto measured_seeks = [&registry, &seeks_mark] {
    const uint64_t now = registry.Value("tj.seeks");
    const uint64_t delta = now - seeks_mark;
    seeks_mark = now;
    return delta;
  };

  struct PaperRow {
    int q;
    double correlation;
    double random_seconds, best_seconds;
  };
  const PaperRow paper_rows[] = {
      {3, 0.658, 155.22, 12.62},
      {4, 0.216, 864.75, 129.35},
      {7, 1.0, 0.072, 0.060},
      {8, 0.932, 26.39, 0.23},
  };

  std::cout << "Figure 12 + Table 7: Tributary-join cost model validation\n"
            << "(single-machine TJ on pre-shuffled data; work = seek "
               "count; queries aborted past the seek budget are censored "
               "at the budget, mirroring the paper's 1000s timeout)\n\n";

  TablePrinter table({"query", "#orders", "correlation", "paper r",
                      "avg random wall", "best-order wall", "speedup",
                      "paper speedup"});

  // Cross-query validation: predicted seeks of the model-chosen order vs the
  // registry's measured seeks, one point per query (log10 scale).
  std::vector<double> predicted_best, measured_best;

  for (const PaperRow& pr : paper_rows) {
    auto wl = factory.Make(pr.q);
    PTP_CHECK(wl.ok()) << wl.status().ToString();
    const NormalizedQuery& q = wl->normalized;

    // All candidate orders with their estimated costs.
    std::vector<OrderChoice> all = EnumerateOrders(q, 100000);
    // Sample up to 20 distinct orders deterministically.
    Rng rng(config.seed + static_cast<uint64_t>(pr.q));
    std::vector<OrderChoice> sample;
    if (all.size() <= 20) {
      sample = all;
    } else {
      std::vector<size_t> idx(all.size());
      for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
      for (size_t i = 0; i < 20; ++i) {
        std::swap(idx[i], idx[i + rng.Uniform(idx.size() - i)]);
        sample.push_back(all[idx[i]]);
      }
    }

    TJOptions tj_opts;
    tj_opts.max_seeks = 40'000'000;  // the "1000 second" timeout analogue
    tj_opts.max_output_rows = 40'000'000;

    std::vector<double> est, actual_seeks;
    double total_wall = 0;
    int completed = 0;
    for (const OrderChoice& choice : sample) {
      TJMetrics metrics;
      Timer t;
      auto result = TributaryJoinQuery(q, choice.order, tj_opts, &metrics);
      const double wall = t.Seconds();
      const uint64_t seeks = measured_seeks();
      est.push_back(std::log10(std::max(1.0, choice.estimated_cost)));
      if (result.ok()) {
        PTP_CHECK_EQ(seeks, metrics.seeks)
            << "registry disagrees with TJMetrics";
        actual_seeks.push_back(
            std::log10(static_cast<double>(std::max<uint64_t>(1, seeks))));
        total_wall += wall;
        ++completed;
      } else {
        // Censored at the budget (paper: terminated at 1000 s).
        actual_seeks.push_back(std::log10(static_cast<double>(tj_opts.max_seeks)));
        total_wall += wall;
        ++completed;
      }
    }
    const double r = PearsonCorrelation(est, actual_seeks);

    // Best order per the cost model.
    OrderChoice best = OptimizeVariableOrder(q);
    TJMetrics best_metrics;
    Timer bt;
    auto best_result = TributaryJoinQuery(q, best.order, tj_opts,
                                          &best_metrics);
    const double best_wall = bt.Seconds();
    PTP_CHECK(best_result.ok()) << best_result.status().ToString();
    const uint64_t best_seeks = measured_seeks();
    predicted_best.push_back(std::log10(std::max(1.0, best.estimated_cost)));
    measured_best.push_back(
        std::log10(static_cast<double>(std::max<uint64_t>(1, best_seeks))));

    const double avg_wall = total_wall / std::max(1, completed);
    table.AddRow({wl->id, std::to_string(sample.size()),
                  StrFormat("%.3f", r), StrFormat("%.3f", pr.correlation),
                  FormatSeconds(avg_wall), FormatSeconds(best_wall),
                  StrFormat("%.1fx", avg_wall / std::max(1e-9, best_wall)),
                  StrFormat("%.1fx", pr.random_seconds / pr.best_seconds)});

    std::cout << wl->id << " scatter (log10 est cost -> log10 seeks):";
    for (size_t i = 0; i < est.size(); ++i) {
      std::cout << StrFormat(" (%.1f,%.1f)", est[i], actual_seeks[i]);
    }
    std::cout << "\n";
  }
  std::cout << "\n";
  table.Print();

  const double cross_r = PearsonCorrelation(predicted_best, measured_best);
  std::cout << StrFormat(
      "\npredicted vs measured seeks across the Table 7 query set "
      "(best orders, log10): r = %.3f (target >= 0.9)\n",
      cross_r);
  std::cout << "shape check: correlations positive and best order never "
               "slower than the random average.\n";
  return cross_r >= 0.9 ? 0 : 1;
}
