#include "obs/feedback.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/str_util.h"
#include "obs/profile_report.h"
#include "obs/trace.h"
#include "query/normalize_text.h"

namespace ptp {
namespace {

std::string Num(double v) { return StrFormat("%.9g", v); }

const char* KindName(FeedbackOp::Kind kind) {
  return kind == FeedbackOp::Kind::kStage ? "stage" : "exchange";
}

Result<FeedbackOp> ParseOp(const JsonValue& v) {
  if (v.kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("feedback op is not an object");
  }
  FeedbackOp op;
  if (const JsonValue* kind = v.Find("kind")) {
    if (kind->string == "exchange") {
      op.kind = FeedbackOp::Kind::kExchange;
    } else if (kind->string == "stage") {
      op.kind = FeedbackOp::Kind::kStage;
    } else {
      return Status::InvalidArgument("unknown feedback op kind: " +
                                     kind->string);
    }
  }
  if (const JsonValue* label = v.Find("label")) op.label = label->string;
  op.estimated = v.NumberOr("estimated", -1);
  op.actual = v.NumberOr("actual", 0);
  op.skew = v.NumberOr("skew", 0);
  return op;
}

Result<StrategyFeedback> ParseStrategy(const JsonValue& v) {
  if (v.kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("feedback strategy is not an object");
  }
  StrategyFeedback s;
  if (const JsonValue* name = v.Find("strategy")) s.strategy = name->string;
  if (s.strategy.empty()) {
    return Status::InvalidArgument("feedback strategy missing name");
  }
  if (const JsonValue* failed = v.Find("failed")) s.failed = failed->boolean;
  s.tuples_shuffled = v.NumberOr("tuples_shuffled", 0);
  s.output_tuples = v.NumberOr("output_tuples", 0);
  s.peak_bytes = v.NumberOr("peak_bytes", 0);
  s.bloom_tested = v.NumberOr("bloom_tested", 0);
  s.bloom_filtered = v.NumberOr("bloom_filtered", 0);
  if (const JsonValue* ops = v.Find("ops")) {
    for (const JsonValue& op : ops->array) {
      PTP_ASSIGN_OR_RETURN(FeedbackOp parsed, ParseOp(op));
      s.ops.push_back(std::move(parsed));
    }
  }
  return s;
}

}  // namespace

double QError(double estimated, double actual) {
  if (estimated < 0) return 1.0;
  const double est = std::max(estimated, 1.0);
  const double act = std::max(actual, 1.0);
  return est > act ? est / act : act / est;
}

const FeedbackOp* StrategyFeedback::FindOp(std::string_view label) const {
  for (const FeedbackOp& op : ops) {
    if (op.label == label) return &op;
  }
  return nullptr;
}

double StrategyFeedback::MaxExchangeSkew() const {
  double max_skew = 0;
  for (const FeedbackOp& op : ops) {
    if (op.kind == FeedbackOp::Kind::kExchange && op.skew > max_skew) {
      max_skew = op.skew;
    }
  }
  return max_skew;
}

const StrategyFeedback* QueryFeedback::FindStrategy(
    std::string_view strategy) const {
  for (const StrategyFeedback& s : strategies) {
    if (s.strategy == strategy) return &s;
  }
  return nullptr;
}

const StrategyFeedback* QueryFeedback::FindFamily(
    std::string_view prefix) const {
  for (const StrategyFeedback& s : strategies) {
    if (!s.failed && StartsWith(s.strategy, prefix)) return &s;
  }
  return nullptr;
}

QueryFeedback* FeedbackStore::FindOrAdd(std::string_view query_key,
                                        int workers) {
  // Stored keys are canonical (here and in Parse), so "q(x) :- R(x,y),
  // S(y,x)" and "Q(x):-S(y,x) AND R(x,y)." share one entry.
  const std::string key = NormalizeQueryText(query_key);
  for (QueryFeedback& q : queries) {
    if (q.query_key == key && q.workers == workers) {
      return &q;
    }
  }
  QueryFeedback q;
  q.query_key = key;
  q.workers = workers;
  queries.push_back(std::move(q));
  return &queries.back();
}

const QueryFeedback* FeedbackStore::Fold(std::string_view query_key,
                                         int workers, StrategyFeedback run,
                                         size_t max_entries) {
  QueryFeedback* q = FindOrAdd(query_key, workers);
  auto same = std::find_if(
      q->strategies.begin(), q->strategies.end(),
      [&](const StrategyFeedback& s) { return s.strategy == run.strategy; });
  if (same != q->strategies.end()) {
    *same = std::move(run);
  } else {
    q->strategies.push_back(std::move(run));
  }
  const auto touched = queries.begin() + (q - queries.data());
  std::rotate(touched, touched + 1, queries.end());
  const size_t cap = std::max<size_t>(1, max_entries);
  if (queries.size() > cap) {
    queries.erase(queries.begin(),
                  queries.end() - static_cast<ptrdiff_t>(cap));
  }
  return &queries.back();
}

const QueryFeedback* FeedbackStore::Find(std::string_view query_key,
                                         int workers) const {
  const std::string key = NormalizeQueryText(query_key);
  for (const QueryFeedback& q : queries) {
    if (q.query_key == key && q.workers == workers) {
      return &q;
    }
  }
  return nullptr;
}

std::string FeedbackStore::ToJson() const {
  std::string out;
  out += StrFormat("{\"version\":%d,\"queries\":[", version);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const QueryFeedback& q = queries[qi];
    if (qi > 0) out += ",";
    out += "{\"query\":" + JsonQuote(q.query_key);
    out += StrFormat(",\"workers\":%d,\"strategies\":[", q.workers);
    for (size_t si = 0; si < q.strategies.size(); ++si) {
      const StrategyFeedback& s = q.strategies[si];
      if (si > 0) out += ",";
      out += "{\"strategy\":" + JsonQuote(s.strategy);
      out += std::string(",\"failed\":") + (s.failed ? "true" : "false");
      out += ",\"tuples_shuffled\":" + Num(s.tuples_shuffled);
      out += ",\"output_tuples\":" + Num(s.output_tuples);
      out += ",\"peak_bytes\":" + Num(s.peak_bytes);
      out += ",\"bloom_tested\":" + Num(s.bloom_tested);
      out += ",\"bloom_filtered\":" + Num(s.bloom_filtered);
      out += ",\"ops\":[";
      for (size_t oi = 0; oi < s.ops.size(); ++oi) {
        const FeedbackOp& op = s.ops[oi];
        if (oi > 0) out += ",";
        out += std::string("{\"kind\":\"") + KindName(op.kind) + "\"";
        out += ",\"label\":" + JsonQuote(op.label);
        out += ",\"estimated\":" + Num(op.estimated);
        out += ",\"actual\":" + Num(op.actual);
        out += ",\"skew\":" + Num(op.skew) + "}";
      }
      out += "]}";
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

Status FeedbackStore::WriteFile(const std::string& path) const {
  std::ofstream os(path);
  if (!os) {
    return Status::InvalidArgument("cannot open " + path + " for writing");
  }
  os << ToJson() << "\n";
  if (!os) return Status::Internal("error writing " + path);
  return Status::OK();
}

Result<FeedbackStore> FeedbackStore::Parse(std::string_view json) {
  PTP_ASSIGN_OR_RETURN(JsonValue root, ParseJson(json));
  if (root.kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("feedback file is not a JSON object");
  }
  FeedbackStore store;
  store.version = static_cast<int>(root.NumberOr("version", 0));
  if (store.version != kFeedbackJsonVersion) {
    return Status::InvalidArgument(
        StrFormat("unsupported feedback file version %d (want %d)",
                  store.version, kFeedbackJsonVersion));
  }
  if (const JsonValue* queries = root.Find("queries")) {
    for (const JsonValue& qv : queries->array) {
      if (qv.kind != JsonValue::Kind::kObject) {
        return Status::InvalidArgument("feedback query is not an object");
      }
      QueryFeedback q;
      // Canonicalized once on load: stores written by hand or before
      // normalization existed still match any spelling of their queries.
      if (const JsonValue* key = qv.Find("query")) {
        q.query_key = NormalizeQueryText(key->string);
      }
      q.workers = static_cast<int>(qv.NumberOr("workers", 0));
      if (const JsonValue* strategies = qv.Find("strategies")) {
        for (const JsonValue& sv : strategies->array) {
          PTP_ASSIGN_OR_RETURN(StrategyFeedback s, ParseStrategy(sv));
          q.strategies.push_back(std::move(s));
        }
      }
      store.queries.push_back(std::move(q));
    }
  }
  return store;
}

Result<FeedbackStore> FeedbackStore::LoadFile(const std::string& path) {
  std::ifstream is(path);
  if (!is) return Status::NotFound("cannot open feedback file " + path);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return Parse(buffer.str());
}

std::string QErrorAuditText(const QueryFeedback& feedback) {
  std::string out;
  out += "q-error audit for " + feedback.query_key +
         StrFormat(" (W=%d)\n", feedback.workers);
  for (const StrategyFeedback& s : feedback.strategies) {
    out += StrFormat("  %s%s: shuffled %s, output %s\n", s.strategy.c_str(),
                     s.failed ? " [FAILED]" : "",
                     Num(s.tuples_shuffled).c_str(),
                     Num(s.output_tuples).c_str());
    // Estimated ops first, worst q-error first; measurement-only ops after,
    // in recorded order.
    std::vector<const FeedbackOp*> audited;
    for (const FeedbackOp& op : s.ops) {
      if (op.estimated >= 0) audited.push_back(&op);
    }
    std::stable_sort(audited.begin(), audited.end(),
                     [](const FeedbackOp* a, const FeedbackOp* b) {
                       return QError(a->estimated, a->actual) >
                              QError(b->estimated, b->actual);
                     });
    for (const FeedbackOp* op : audited) {
      out += StrFormat("    %-8s %-24s est %-12s actual %-12s q-error %s\n",
                       KindName(op->kind), op->label.c_str(),
                       Num(op->estimated).c_str(), Num(op->actual).c_str(),
                       Num(QError(op->estimated, op->actual)).c_str());
    }
    for (const FeedbackOp& op : s.ops) {
      if (op.estimated >= 0) continue;
      out += StrFormat("    %-8s %-24s actual %-12s", KindName(op.kind),
                       op.label.c_str(), Num(op.actual).c_str());
      if (op.kind == FeedbackOp::Kind::kExchange) {
        out += StrFormat(" skew %s", Num(op.skew).c_str());
      }
      out += "\n";
    }
  }
  return out;
}

}  // namespace ptp
