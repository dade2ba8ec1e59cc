// Reproduces Tables 2, 3, and 4: per-shuffle tuple counts and producer /
// consumer skew for Q1 under the regular, HyperCube, and broadcast shuffles.
// Expected shape (paper): regular shuffle has consumer skew 1.35/1.72 on the
// single-attribute hashes and producer skew ~20 when reshuffling the
// intermediate (skews "multiply"); HyperCube skew stays ~1.05 (each value is
// hashed into only p^(1/3) buckets); broadcast is perfectly balanced.
//
// The whole run executes under the query profiler, which doubles as a
// cross-check: for every profiled exchange the communication matrix must
// conserve the shuffle's tuple count and the profiler's measured skew must
// reproduce ShuffleMetrics::consumer_skew to 1e-9 (same max/avg arithmetic
// over the same received loads). The profiler then attributes each skew to
// its hottest key (data skew) vs. hash collisions/placement.

#include <cmath>

#include "bench_common.h"

namespace {

void PrintShuffleTable(const std::string& title,
                       const ptp::QueryMetrics& metrics) {
  std::cout << "== " << title << " ==\n";
  ptp::TablePrinter table(
      {"shuffle", "tuples sent", "producer skew", "consumer skew"});
  size_t total = 0;
  for (const ptp::ShuffleMetrics& s : metrics.shuffles) {
    table.AddRow({s.label, ptp::WithCommas(s.tuples_sent),
                  ptp::StrFormat("%.2f", s.producer_skew),
                  ptp::StrFormat("%.2f", s.consumer_skew)});
    total += s.tuples_sent;
  }
  table.AddRow({"Total", ptp::WithCommas(total), "N.A.", "N.A."});
  table.Print();
  std::cout << "\n";
}

/// Reconciles the profiler's view of `section` with the engine metrics:
/// matrices conserve tuples_sent and the decomposed skew matches
/// consumer_skew bit-for-bit (within 1e-9). Profiled shuffles appear in
/// execution order but skip unprofiled keep-in-place locals, so metric
/// entries are matched greedily by label. Returns the number of exchanges
/// reconciled.
size_t CheckProfileAgainstMetrics(const ptp::StrategyProfile* section,
                                  const ptp::QueryMetrics& metrics) {
  PTP_CHECK(section != nullptr) << "strategy ran without a profile section";
  size_t mi = 0;
  for (const ptp::ShuffleProfile& sp : section->shuffles) {
    while (mi < metrics.shuffles.size() &&
           metrics.shuffles[mi].label != sp.label) {
      ++mi;
    }
    PTP_CHECK(mi < metrics.shuffles.size())
        << "profiled exchange '" << sp.label << "' has no shuffle metric";
    const ptp::ShuffleMetrics& m = metrics.shuffles[mi++];
    PTP_CHECK(sp.matrix.Total() == m.tuples_sent)
        << sp.label << ": matrix total " << sp.matrix.Total()
        << " != tuples_sent " << m.tuples_sent;
    const ptp::SkewDecomposition d = ptp::DecomposeSkew(sp);
    PTP_CHECK(std::fabs(d.measured_skew - m.consumer_skew) <= 1e-9)
        << sp.label << ": profiler skew " << d.measured_skew
        << " != metric skew " << m.consumer_skew;
  }
  return section->shuffles.size();
}

/// The profiler's contribution on top of Tables 2-4: WHY each regular
/// shuffle is skewed — hottest key and the data/hash split.
void PrintSkewAttribution(const ptp::StrategyProfile* section) {
  std::cout << "== Profiler skew attribution (regular shuffles) ==\n";
  ptp::TablePrinter table({"shuffle", "skew", "data", "hash", "top key"});
  for (const ptp::ShuffleProfile& sp : section->shuffles) {
    const ptp::SkewDecomposition d = ptp::DecomposeSkew(sp);
    std::string top = "-";
    if (d.has_top_key) {
      // Raw column values print as signed decimal; composite keys are
      // identified by their salted hash, rendered in hex like the report.
      const std::string key =
          sp.key_kind == ptp::SketchKeyKind::kHash
              ? ptp::StrFormat("0x%016llx",
                               static_cast<unsigned long long>(d.top_key))
              : ptp::StrFormat("%lld", static_cast<long long>(d.top_key));
      top = ptp::StrFormat("%s x%s", key.c_str(),
                           ptp::WithCommas(d.top_key_count).c_str());
    }
    table.AddRow({sp.label, ptp::StrFormat("%.2f", d.measured_skew),
                  ptp::StrFormat("%.2f", d.data_component),
                  ptp::StrFormat("%.2f", d.hash_component), top});
  }
  table.Print();
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ptp;
  auto config = bench::BenchConfig::FromArgs(argc, argv);
  WorkloadFactory factory(config.ToScale());
  auto wl = factory.Make(1);
  PTP_CHECK(wl.ok()) << wl.status().ToString();
  StrategyOptions opts = config.ToOptions();

  std::cout << "Q1 load balance (paper Tables 2-4; paper values: RS consumer "
               "skew 1.35/1.72, intermediate producer skew 20.8; HCS skew "
               "1.05; broadcast 1.0)\n\n";

  QueryProfile profile;
  runtime::ScopedQueryContext sinks({.profile = &profile});
  auto rs = RunStrategy(wl->normalized, ShuffleKind::kRegular,
                        JoinKind::kHashJoin, opts);
  PTP_CHECK(rs.ok());
  auto hc = RunStrategy(wl->normalized, ShuffleKind::kHypercube,
                        JoinKind::kTributary, opts);
  PTP_CHECK(hc.ok());
  auto br = RunStrategy(wl->normalized, ShuffleKind::kBroadcast,
                        JoinKind::kHashJoin, opts);
  PTP_CHECK(br.ok());

  PrintShuffleTable("Table 2: regular shuffles in Q1", rs->metrics);
  PrintShuffleTable("Table 3: HyperCube shuffles in Q1", hc->metrics);
  PrintShuffleTable("Table 4: broadcast shuffles in Q1", br->metrics);

  size_t reconciled = 0;
  reconciled += CheckProfileAgainstMetrics(
      profile.FindStrategy(StrategyName(ShuffleKind::kRegular,
                                        JoinKind::kHashJoin)),
      rs->metrics);
  reconciled += CheckProfileAgainstMetrics(
      profile.FindStrategy(StrategyName(ShuffleKind::kHypercube,
                                        JoinKind::kTributary)),
      hc->metrics);
  reconciled += CheckProfileAgainstMetrics(
      profile.FindStrategy(StrategyName(ShuffleKind::kBroadcast,
                                        JoinKind::kHashJoin)),
      br->metrics);

  PrintSkewAttribution(profile.FindStrategy(
      StrategyName(ShuffleKind::kRegular, JoinKind::kHashJoin)));

  if (!config.profile_path.empty()) {
    Status s = WriteProfileJsonFile(config.profile_path, profile);
    PTP_CHECK(s.ok()) << s.ToString();
    std::cout << "profile JSON written to " << config.profile_path << "\n";
  }

  // Shape checks.
  double max_hc_skew = 1.0;
  for (const auto& s : hc->metrics.shuffles) {
    max_hc_skew = std::max({max_hc_skew, s.consumer_skew, s.producer_skew});
  }
  double max_rs_producer = 1.0, max_rs_consumer = 1.0;
  for (const auto& s : rs->metrics.shuffles) {
    max_rs_producer = std::max(max_rs_producer, s.producer_skew);
    max_rs_consumer = std::max(max_rs_consumer, s.consumer_skew);
  }
  std::cout << "shape checks:\n"
            << "  regular shuffle consumer skew > 1.2 on base relations: "
            << (max_rs_consumer > 1.2 ? "yes" : "NO (!)") << "\n"
            << "  intermediate reshuffle producer skew amplified (paper "
               "20.8): "
            << StrFormat("%.1f", max_rs_producer) << "\n"
            << "  HyperCube shuffle skew stays small (paper 1.05): "
            << StrFormat("%.2f", max_hc_skew) << "\n"
            << "  profiler skew matches metrics to 1e-9 on " << reconciled
            << " exchanges: yes\n";
  return 0;
}
