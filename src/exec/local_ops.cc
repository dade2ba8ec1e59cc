#include "exec/local_ops.h"

#include <algorithm>

#include "common/hash.h"
#include "common/logging.h"
#include "exec/join_hash_table.h"
#include "obs/counters.h"
#include "obs/resource.h"

namespace ptp {
namespace {

// Column indices in `schema` of the names shared with `other`, paired with
// the matching indices in `other`.
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

uint64_t HashKey(const Value* row, const std::vector<int>& cols) {
  uint64_t h = 0x12345678;
  for (int c : cols) h = HashCombine(h, Mix64(static_cast<uint64_t>(row[c])));
  return h;
}

bool KeysEqual(const Value* a, const std::vector<int>& a_cols, const Value* b,
               const std::vector<int>& b_cols) {
  for (size_t i = 0; i < a_cols.size(); ++i) {
    if (a[a_cols[i]] != b[b_cols[i]]) return false;
  }
  return true;
}

// One aggregated registry publish per local join (never per tuple).
void PublishTableStats(const JoinHashTable& table) {
  if (CounterRegistry* reg = ActiveCounterRegistry()) {
    reg->Add("ht.builds", 1);
    reg->Add("ht.build_tuples", table.size());
    reg->Add("ht.probes", table.probes());
    reg->Add("ht.probe_hits", table.probe_hits());
  }
}

// True when every variable of `pred` is a column of `schema`. Reads the
// terms in place: FilterByPredicates with nothing decidable must not
// allocate.
bool Decidable(const Predicate& pred, const Schema& schema) {
  for (const Term* t : {&pred.lhs, &pred.rhs}) {
    if (t->is_variable() && schema.IndexOf(t->var) < 0) return false;
  }
  return true;
}

// What a natural join of two relations joins on and emits.
struct JoinShape {
  std::vector<int> left_key, right_key;  // shared columns, paired
  std::vector<int> right_extra;          // right-only columns, in order
  Schema out;  // the left columns, then the right-only columns
};

JoinShape ShapeOf(const Relation& left, const Relation& right) {
  JoinShape shape;
  SharedColumns(left.schema(), right.schema(), &shape.left_key,
                &shape.right_key);
  std::vector<std::string> out_names = left.schema().names();
  for (size_t j = 0; j < right.arity(); ++j) {
    if (left.schema().IndexOf(right.schema().name(j)) < 0) {
      shape.right_extra.push_back(static_cast<int>(j));
      out_names.push_back(right.schema().name(j));
    }
  }
  shape.out = Schema(std::move(out_names));
  return shape;
}

// Writes a join's output rows. Each joined row is the left row followed by
// the right row's right-only columns; the predicates decidable on the
// output schema are resolved to those two rows once, and a row that fails
// one is never appended. With no decidable predicate every row passes: the
// unfiltered join is the same loop. FilterByPredicates uses it with no
// right side.
class RowEmitter {
 public:
  RowEmitter(Relation* out, size_t left_arity, std::vector<int> right_extra,
             const std::vector<Predicate>& preds)
      : data_(&out->mutable_data()),
        left_arity_(left_arity),
        right_extra_(std::move(right_extra)) {
    for (const Predicate& p : preds) {
      if (!Decidable(p, out->schema())) continue;
      checks_.push_back({Resolve(p.lhs, out->schema()), p.op,
                         Resolve(p.rhs, out->schema())});
    }
  }

  bool filters() const { return !checks_.empty(); }

  bool Pass(const Value* l, const Value* r) const {
    for (const Check& c : checks_) {
      if (!Predicate::Eval(c.lhs.Get(l, r), c.op, c.rhs.Get(l, r))) {
        return false;
      }
    }
    return true;
  }

  void Emit(const Value* l, const Value* r) {
    if (!Pass(l, r)) return;
    data_->insert(data_->end(), l, l + left_arity_);
    for (int c : right_extra_) data_->push_back(r[c]);
  }

 private:
  struct Operand {
    enum Side : uint8_t { kLeft, kRight, kConstant };
    Side side = kConstant;
    int col = -1;
    Value constant = 0;
    Value Get(const Value* l, const Value* r) const {
      return side == kLeft ? l[col] : side == kRight ? r[col] : constant;
    }
  };
  struct Check {
    Operand lhs;
    CmpOp op = CmpOp::kEq;
    Operand rhs;
  };

  Operand Resolve(const Term& t, const Schema& out) const {
    if (!t.is_variable()) return {Operand::kConstant, -1, t.constant};
    const size_t i = static_cast<size_t>(out.IndexOf(t.var));
    if (i < left_arity_) return {Operand::kLeft, static_cast<int>(i), 0};
    return {Operand::kRight, right_extra_[i - left_arity_], 0};
  }

  std::vector<Value>* data_;
  size_t left_arity_;
  std::vector<int> right_extra_;
  std::vector<Check> checks_;
};

}  // namespace

Relation SymmetricHashJoinLocal(const Relation& left, const Relation& right,
                                std::string out_name,
                                const std::vector<uint32_t>* right_arrival,
                                size_t right_virtual_rows,
                                const std::vector<Predicate>& preds) {
  JoinShape shape = ShapeOf(left, right);
  const std::vector<int>& left_key = shape.left_key;
  const std::vector<int>& right_key = shape.right_key;
  Relation out(std::move(out_name), std::move(shape.out));
  RowEmitter emitter(&out, left.arity(), std::move(shape.right_extra), preds);
  if (left_key.empty()) {
    // Cross product; the symmetric machinery adds nothing.
    for (size_t i = 0; i < left.NumTuples(); ++i) {
      for (size_t j = 0; j < right.NumTuples(); ++j) {
        emitter.Emit(left.Row(i), right.Row(j));
      }
    }
    return out;
  }

  JoinHashTable left_table(left.NumTuples());
  JoinHashTable right_table(right.NumTuples());

  // Round-robin pulls: each arriving tuple is inserted into its own table
  // and probes the other side's table, so every matching pair is emitted
  // exactly once (by whichever tuple arrives second). Probe chains walk
  // most-recent-first; the pairing set is unchanged and per-table state is
  // a pure function of the arrival sequence, so results stay bit-identical
  // at every thread count.
  //
  // With `right_arrival`, right row rp is pulled in its ORIGINAL round
  // (its index in the unfiltered stream), not its compacted index: rounds
  // where only dropped tuples would have arrived are no-ops, exactly as if
  // the dropped tuples had arrived and (necessarily) matched nothing.
  const size_t right_rounds =
      right_arrival != nullptr ? right_virtual_rows : right.NumTuples();
  const size_t rounds = std::max(left.NumTuples(), right_rounds);
  size_t rp = 0;
  auto arrive_right = [&](size_t row) {
    const Value* r = right.Row(row);
    const uint64_t h = HashKey(r, right_key);
    right_table.Insert(h, static_cast<uint32_t>(row));
    for (uint32_t e = left_table.Find(h); e != JoinHashTable::kNil;
         e = left_table.Next(e, h)) {
      const Value* l = left.Row(left_table.Row(e));
      if (KeysEqual(l, left_key, r, right_key)) emitter.Emit(l, r);
    }
  };
  for (size_t i = 0; i < rounds; ++i) {
    if (i < left.NumTuples()) {
      const Value* l = left.Row(i);
      const uint64_t h = HashKey(l, left_key);
      left_table.Insert(h, static_cast<uint32_t>(i));
      for (uint32_t e = right_table.Find(h); e != JoinHashTable::kNil;
           e = right_table.Next(e, h)) {
        const Value* r = right.Row(right_table.Row(e));
        if (KeysEqual(l, left_key, r, right_key)) emitter.Emit(l, r);
      }
    }
    if (right_arrival == nullptr) {
      if (i < right.NumTuples()) arrive_right(i);
    } else {
      while (rp < right.NumTuples() && (*right_arrival)[rp] == i) {
        arrive_right(rp);
        ++rp;
      }
    }
  }
  // Both tables reached final size here; charging once at the end keeps the
  // peak figure exact without metering inside the pull loop.
  ScopedMemCharge tables_mem(
      MemCategory::kHashTable,
      left_table.MemoryBytes() + right_table.MemoryBytes());
  PublishTableStats(left_table);
  PublishTableStats(right_table);
  return out;
}

void SplitApplicablePredicates(const std::vector<Predicate>& preds,
                               const Schema& schema,
                               std::vector<Predicate>* applicable,
                               std::vector<Predicate>* pending) {
  applicable->clear();
  pending->clear();
  for (const Predicate& pred : preds) {
    (Decidable(pred, schema) ? applicable : pending)->push_back(pred);
  }
}

Relation FilterByPredicates(Relation rel, const std::vector<Predicate>& preds) {
  const RowEmitter filter(&rel, rel.arity(), {}, preds);
  if (!filter.filters()) return rel;
  // Compact the kept rows to the front of rel's own buffer, in order.
  std::vector<Value>& data = rel.mutable_data();
  const size_t arity = rel.arity();
  const size_t n = rel.NumTuples();
  size_t kept = 0;
  for (size_t row = 0; row < n; ++row) {
    const Value* t = data.data() + row * arity;
    if (!filter.Pass(t, nullptr)) continue;
    if (kept != row) std::copy(t, t + arity, data.data() + kept * arity);
    ++kept;
  }
  data.resize(kept * arity);
  return rel;
}

Relation ProjectToVars(const Relation& rel,
                       const std::vector<std::string>& vars,
                       std::string out_name) {
  std::vector<int> cols;
  for (const std::string& var : vars) {
    int c = rel.schema().IndexOf(var);
    PTP_CHECK_GE(c, 0);
    cols.push_back(c);
  }
  Relation out = rel.PermuteColumns(cols, std::move(out_name));
  return out;
}

Relation DistinctProject(const Relation& rel,
                         const std::vector<std::string>& vars,
                         std::string out_name) {
  Relation out = ProjectToVars(rel, vars, std::move(out_name));
  out.SortAndDedup();
  return out;
}

Relation SemiJoinLocal(const Relation& rel, const Relation& filter) {
  std::vector<int> rel_key, filter_key;
  SharedColumns(rel.schema(), filter.schema(), &rel_key, &filter_key);
  Relation out(rel.name(), rel.schema());
  if (rel_key.empty()) {
    if (filter.NumTuples() > 0) out = rel;
    return out;
  }
  JoinHashTable table(filter.NumTuples());
  for (size_t row = filter.NumTuples(); row-- > 0;) {
    table.Insert(HashKey(filter.Row(row), filter_key),
                 static_cast<uint32_t>(row));
  }
  table.FinalizeBuild();
  // Key columns of the filter, materialized in entry order: a key's
  // duplicate chain is contiguous after FinalizeBuild(), so the duplicate
  // scan reads sequentially instead of jumping around the filter relation.
  const size_t stride = filter_key.size();
  std::vector<Value> keys(table.size() * stride);
  ScopedMemCharge table_mem(
      MemCategory::kHashTable,
      table.MemoryBytes() + keys.size() * sizeof(Value));
  for (size_t e = 0; e < table.size(); ++e) {
    const Value* src = filter.Row(table.Row(static_cast<uint32_t>(e)));
    for (size_t i = 0; i < stride; ++i) {
      keys[e * stride + i] = src[filter_key[i]];
    }
  }
  for (size_t row = 0; row < rel.NumTuples(); ++row) {
    const Value* t = rel.Row(row);
    const uint64_t h = HashKey(t, rel_key);
    for (uint32_t e = table.Find(h); e != JoinHashTable::kNil;
         e = table.Next(e, h)) {
      const Value* k = keys.data() + e * stride;
      bool match = true;
      for (size_t i = 0; i < stride; ++i) {
        if (t[rel_key[i]] != k[i]) {
          match = false;
          break;
        }
      }
      if (match) {
        out.AddTupleFrom(rel, row);
        break;
      }
    }
  }
  PublishTableStats(table);
  return out;
}

}  // namespace ptp
