// Diffs two query-profile JSONs written via --profile= (bench_common.h) or
// WriteProfileJsonFile: per-strategy shuffle volume and consumer imbalance,
// plus a detailed comparison of one strategy from each file — e.g. HyperCube
// vs. hash shuffle on Q4:
//
//   ./build/bench/paper_figures --figure=9 --profile=q4.profile.json
//   ./build/bench/profile_diff q4.profile.json q4.profile.json \
//       --a=HC_TJ --b=RS_HJ
//
// prints how much of the imbalance delta is data skew (hot keys, which no
// hash function can split) vs. hash/placement skew (which HyperCube shares
// are designed to remove). Defaults to the first strategy in each file when
// --a/--b are omitted. Exits 2 on malformed input.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "ptp/ptp.h"

namespace ptp {
namespace {

/// Aggregates profile_diff reads out of one strategy object of the profile
/// JSON (schema v1, see docs/OBSERVABILITY.md).
struct StrategySummary {
  std::string name;
  double tuples = 0;
  double bytes = 0;
  double max_skew = 1.0;       // worst consumer skew across shuffles
  double data_component = 0;   // its decomposition
  double hash_component = 0;
  std::string max_skew_label;  // which shuffle it was
  std::string top_keys;        // that shuffle's hot keys, pre-rendered
  double backoff_seconds = 0;
};

StrategySummary Summarize(const JsonValue& strategy) {
  StrategySummary s;
  if (const JsonValue* name = strategy.Find("name")) s.name = name->string;
  if (const JsonValue* shuffles = strategy.Find("shuffles")) {
    for (const JsonValue& shuffle : shuffles->array) {
      s.tuples += shuffle.NumberOr("tuples_sent", 0);
      s.bytes += shuffle.NumberOr("bytes_sent", 0);
      const JsonValue* skew = shuffle.Find("skew");
      if (skew == nullptr) continue;
      const double measured = skew->NumberOr("measured", 1.0);
      if (measured < s.max_skew) continue;
      s.max_skew = measured;
      s.data_component = skew->NumberOr("data_component", 0);
      s.hash_component = skew->NumberOr("hash_component", 0);
      if (const JsonValue* label = shuffle.Find("label")) {
        s.max_skew_label = label->string;
      }
      s.top_keys.clear();
      if (const JsonValue* keys = shuffle.Find("keys")) {
        if (const JsonValue* entries = keys->Find("entries")) {
          std::ostringstream os;
          size_t printed = 0;
          for (const JsonValue& e : entries->array) {
            if (printed == 5) break;
            const JsonValue* key = e.Find("key");
            if (key == nullptr) continue;
            os << (printed ? " | " : "") << key->string << "~"
               << WithCommas(
                      static_cast<uint64_t>(e.NumberOr("count", 0)));
            ++printed;
          }
          s.top_keys = os.str();
        }
      }
    }
  }
  if (const JsonValue* epochs = strategy.Find("retry_epochs")) {
    for (const JsonValue& e : epochs->array) {
      s.backoff_seconds += e.NumberOr("backoff_seconds", 0);
    }
  }
  return s;
}

Result<JsonValue> LoadProfile(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    return Status::InvalidArgument("cannot open " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  Result<JsonValue> doc = ParseJson(buf.str());
  if (!doc.ok()) return doc.status();
  const double version = doc->NumberOr("version", 0);
  if (version != kProfileJsonVersion) {
    return Status::InvalidArgument(
        StrFormat("%s: profile schema version %g, expected %d", path.c_str(),
                  version, kProfileJsonVersion));
  }
  if (doc->Find("strategies") == nullptr ||
      doc->Find("strategies")->array.empty()) {
    return Status::InvalidArgument(path + ": no strategies recorded");
  }
  return doc;
}

const JsonValue* FindStrategy(const JsonValue& doc, const std::string& name) {
  for (const JsonValue& s : doc.Find("strategies")->array) {
    const JsonValue* n = s.Find("name");
    if (n != nullptr && n->string == name) return &s;
  }
  return nullptr;
}

std::string DeltaCell(double a, double b) {
  const double d = b - a;
  std::string out = StrFormat("%+.4g", d);
  if (a != 0) out += StrFormat(" (%+.1f%%)", 100.0 * d / a);
  return out;
}

}  // namespace
}  // namespace ptp

int main(int argc, char** argv) {
  using namespace ptp;

  std::vector<std::string> paths;
  std::string pick_a;
  std::string pick_b;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--a=", 0) == 0) {
      pick_a = arg.substr(4);
    } else if (arg.rfind("--b=", 0) == 0) {
      pick_b = arg.substr(4);
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "unknown flag: " << arg
                << "\nusage: profile_diff <a.json> <b.json> [--a=STRATEGY] "
                   "[--b=STRATEGY]\n";
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.size() != 2) {
    std::cerr << "usage: profile_diff <a.json> <b.json> [--a=STRATEGY] "
                 "[--b=STRATEGY]\n";
    return 2;
  }

  Result<JsonValue> doc_a_result = LoadProfile(paths[0]);
  Result<JsonValue> doc_b_result = LoadProfile(paths[1]);
  if (!doc_a_result.ok() || !doc_b_result.ok()) {
    std::cerr << (doc_a_result.ok() ? doc_b_result.status()
                                    : doc_a_result.status())
                     .ToString()
              << "\n";
    return 2;
  }
  const JsonValue& doc_a = *doc_a_result;
  const JsonValue& doc_b = *doc_b_result;

  // Overview: every strategy in either file, side by side.
  std::cout << "A: " << paths[0] << "\nB: " << paths[1] << "\n\n";
  std::cout << StrFormat("%-24s %16s %10s %16s %10s\n", "strategy",
                         "A tuples", "A skew", "B tuples", "B skew");
  std::vector<std::string> seen;
  for (const JsonValue* doc : {&doc_a, &doc_b}) {
    for (const JsonValue& s : doc->Find("strategies")->array) {
      const JsonValue* n = s.Find("name");
      if (n == nullptr) continue;
      if (std::find(seen.begin(), seen.end(), n->string) != seen.end()) {
        continue;
      }
      seen.push_back(n->string);
      const JsonValue* in_a = FindStrategy(doc_a, n->string);
      const JsonValue* in_b = FindStrategy(doc_b, n->string);
      auto cells = [](const JsonValue* strategy) {
        if (strategy == nullptr) {
          return std::make_pair(std::string("-"), std::string("-"));
        }
        const StrategySummary sum = Summarize(*strategy);
        return std::make_pair(
            WithCommas(static_cast<uint64_t>(sum.tuples)),
            StrFormat("%.2f", sum.max_skew));
      };
      const auto [at, as] = cells(in_a);
      const auto [bt, bs] = cells(in_b);
      std::cout << StrFormat("%-24s %16s %10s %16s %10s\n",
                             n->string.c_str(), at.c_str(), as.c_str(),
                             bt.c_str(), bs.c_str());
    }
  }

  // Detailed pair diff.
  if (pick_a.empty()) {
    pick_a = doc_a.Find("strategies")->array[0].Find("name")->string;
  }
  if (pick_b.empty()) {
    pick_b = doc_b.Find("strategies")->array[0].Find("name")->string;
  }
  const JsonValue* sa = FindStrategy(doc_a, pick_a);
  const JsonValue* sb = FindStrategy(doc_b, pick_b);
  if (sa == nullptr || sb == nullptr) {
    std::cerr << "strategy '" << (sa == nullptr ? pick_a : pick_b)
              << "' not found in " << (sa == nullptr ? paths[0] : paths[1])
              << "\n";
    return 2;
  }
  const StrategySummary a = Summarize(*sa);
  const StrategySummary b = Summarize(*sb);

  std::cout << "\ndiff: A[" << a.name << "] vs B[" << b.name << "]\n";
  auto row = [](const char* label, const std::string& va,
                const std::string& vb, const std::string& delta) {
    std::cout << StrFormat("  %-20s %16s %16s   %s\n", label, va.c_str(),
                           vb.c_str(), delta.c_str());
  };
  row("tuples shuffled", WithCommas(static_cast<uint64_t>(a.tuples)),
      WithCommas(static_cast<uint64_t>(b.tuples)),
      DeltaCell(a.tuples, b.tuples));
  row("bytes shuffled", WithCommas(static_cast<uint64_t>(a.bytes)),
      WithCommas(static_cast<uint64_t>(b.bytes)),
      DeltaCell(a.bytes, b.bytes));
  row("max consumer skew", StrFormat("%.4f", a.max_skew),
      StrFormat("%.4f", b.max_skew), DeltaCell(a.max_skew, b.max_skew));
  row("  data component", StrFormat("%.4f", a.data_component),
      StrFormat("%.4f", b.data_component),
      DeltaCell(a.data_component, b.data_component));
  row("  hash component", StrFormat("%.4f", a.hash_component),
      StrFormat("%.4f", b.hash_component),
      DeltaCell(a.hash_component, b.hash_component));
  row("retry backoff", FormatSeconds(a.backoff_seconds),
      FormatSeconds(b.backoff_seconds),
      DeltaCell(a.backoff_seconds, b.backoff_seconds));
  if (!a.max_skew_label.empty()) {
    std::cout << "  A worst shuffle: " << a.max_skew_label;
    if (!a.top_keys.empty()) std::cout << "  hot keys: " << a.top_keys;
    std::cout << "\n";
  }
  if (!b.max_skew_label.empty()) {
    std::cout << "  B worst shuffle: " << b.max_skew_label;
    if (!b.top_keys.empty()) std::cout << "  hot keys: " << b.top_keys;
    std::cout << "\n";
  }
  const double delta = b.max_skew - a.max_skew;
  std::cout << StrFormat(
      "  imbalance delta: B is %+.4f vs A (data %+.4f, hash %+.4f)\n", delta,
      b.data_component - a.data_component,
      b.hash_component - a.hash_component);
  return 0;
}
