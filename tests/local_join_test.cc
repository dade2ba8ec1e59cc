// The local hash-join kernels against naive references that spell out
// their emission order: every output row, in order, with predicates applied
// at emit. Also pins that the kernels write each row once (no per-row
// allocation, no pass-through copy of a relation that nothing filters).

#include <algorithm>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "common/rng.h"
#include "exec/local_ops.h"
#include "exec/pipeline.h"
#include "gtest/gtest.h"

namespace ptp {
namespace {

// Output schema of a natural join: the left names, then the right-only
// names in right order.
Schema JoinedSchema(const Schema& left, const Schema& right) {
  std::vector<std::string> names = left.names();
  for (const std::string& n : right.names()) {
    if (left.IndexOf(n) < 0) names.push_back(n);
  }
  return Schema(std::move(names));
}

bool KeysMatch(const Relation& left, size_t l, const Relation& right,
               size_t r) {
  for (size_t i = 0; i < left.arity(); ++i) {
    const int j = right.schema().IndexOf(left.schema().name(i));
    if (j >= 0 && left.At(l, i) != right.At(r, static_cast<size_t>(j))) {
      return false;
    }
  }
  return true;
}

bool HasSharedNames(const Relation& left, const Relation& right) {
  for (const std::string& n : left.schema().names()) {
    if (right.schema().IndexOf(n) >= 0) return true;
  }
  return false;
}

// Evaluates every predicate of `preds` decidable on `schema` on one row
// given by name lookup, the way a post-join filter sees it.
bool RowPasses(const Schema& schema, const Tuple& row,
               const std::vector<Predicate>& preds) {
  for (const Predicate& p : preds) {
    bool decidable = true;
    for (const std::string& v : p.Variables()) {
      if (schema.IndexOf(v) < 0) decidable = false;
    }
    if (!decidable) continue;
    auto value = [&](const Term& t) {
      return t.is_variable() ? row[static_cast<size_t>(schema.IndexOf(t.var))]
                             : t.constant;
    };
    if (!Predicate::Eval(value(p.lhs), p.op, value(p.rhs))) return false;
  }
  return true;
}

// Appends (left row l) ++ (right row r's right-only columns) when it passes.
void EmitRef(const Relation& left, size_t l, const Relation& right, size_t r,
             const std::vector<Predicate>& preds, Relation* out) {
  Tuple row = left.GetTuple(l);
  for (size_t j = 0; j < right.arity(); ++j) {
    if (left.schema().IndexOf(right.schema().name(j)) < 0) {
      row.push_back(right.At(r, j));
    }
  }
  if (RowPasses(out->schema(), row, preds)) out->AddTuple(row);
}

// Cross product in the kernels' order: left rows outer, right rows inner.
void CrossRef(const Relation& left, const Relation& right,
              const std::vector<Predicate>& preds, Relation* out) {
  for (size_t l = 0; l < left.NumTuples(); ++l) {
    for (size_t r = 0; r < right.NumTuples(); ++r) {
      EmitRef(left, l, right, r, preds, out);
    }
  }
}

// The symmetric join's emission order, spelled out: in round i, left row i
// arrives, then every right row whose arrival round is i. An arriving row
// meets the other side's earlier arrivals most recent first, and each
// matching pair is emitted by whichever row arrives second.
Relation SymmetricRef(const Relation& left, const Relation& right,
                      const std::vector<uint32_t>* arrival,
                      size_t virtual_rows,
                      const std::vector<Predicate>& preds) {
  Relation out("ref", JoinedSchema(left.schema(), right.schema()));
  if (!HasSharedNames(left, right)) {
    CrossRef(left, right, preds, &out);
    return out;
  }
  const size_t nl = left.NumTuples();
  const size_t nr = right.NumTuples();
  const size_t rounds = std::max(nl, arrival ? virtual_rows : nr);
  size_t left_in = 0, right_in = 0;
  for (size_t i = 0; i < rounds; ++i) {
    if (i < nl) {
      for (size_t r = right_in; r-- > 0;) {
        if (KeysMatch(left, i, right, r)) {
          EmitRef(left, i, right, r, preds, &out);
        }
      }
      left_in = i + 1;
    }
    while (right_in < nr &&
           (arrival ? (*arrival)[right_in] == i : right_in == i)) {
      for (size_t l = left_in; l-- > 0;) {
        if (KeysMatch(left, l, right, right_in)) {
          EmitRef(left, l, right, right_in, preds, &out);
        }
      }
      ++right_in;
    }
  }
  return out;
}

// Random relation over `names` (shuffled), `rows` rows, values in [0, dom).
Relation RandomRelation(std::string name, std::vector<std::string> names,
                        size_t rows, Value dom, Rng* rng) {
  for (size_t i = names.size(); i > 1; --i) {
    std::swap(names[i - 1], names[rng->Uniform(i)]);
  }
  Relation rel(std::move(name), Schema(std::move(names)));
  Tuple t(rel.arity());
  for (size_t i = 0; i < rows; ++i) {
    for (Value& v : t) v = rng->UniformInt(0, dom - 1);
    rel.AddTuple(t);
  }
  return rel;
}

Predicate Pred(Term lhs, CmpOp op, Term rhs) {
  Predicate p;
  p.lhs = std::move(lhs);
  p.op = op;
  p.rhs = std::move(rhs);
  return p;
}

// Up to three predicates over the output's variables, mixing left-only,
// right-only and shared columns and constants, plus one on a variable no
// input binds (which every kernel must ignore).
std::vector<Predicate> RandomPredicates(const Schema& out, Value dom,
                                        Rng* rng) {
  auto var = [&] {
    return Term::Var(out.name(rng->Uniform(out.arity())));
  };
  std::vector<Predicate> preds;
  const size_t n = rng->Uniform(4);
  for (size_t i = 0; i < n; ++i) {
    const CmpOp op = static_cast<CmpOp>(rng->Uniform(6));
    Term rhs = rng->Uniform(3) == 0 ? Term::Const(rng->UniformInt(0, dom - 1))
                                    : var();
    preds.push_back(Pred(var(), op, std::move(rhs)));
  }
  preds.push_back(Pred(Term::Var("unbound"), CmpOp::kLt, var()));
  return preds;
}

struct JoinCase {
  Relation left, right;
  // Bloom-style arrival map of `right`, when `replay` is set.
  bool replay = false;
  std::vector<uint32_t> arrival;
  size_t virtual_rows = 0;
  std::vector<Predicate> preds;
};

// Arity 1-5 per side with 0-3 shared columns; a third of the cases replay
// the right side through an arrival map with a third of its rows dropped.
JoinCase RandomCase(uint64_t seed) {
  Rng rng(seed);
  const size_t left_arity = 1 + rng.Uniform(5);
  const size_t right_arity = 1 + rng.Uniform(5);
  const size_t shared =
      rng.Uniform(std::min<size_t>({3, left_arity, right_arity}) + 1);
  std::vector<std::string> left_names, right_names;
  for (size_t i = 0; i < shared; ++i) {
    left_names.push_back("k" + std::to_string(i));
    right_names.push_back("k" + std::to_string(i));
  }
  for (size_t i = shared; i < left_arity; ++i) {
    left_names.push_back("a" + std::to_string(i));
  }
  for (size_t i = shared; i < right_arity; ++i) {
    right_names.push_back("b" + std::to_string(i));
  }
  const Value dom = 2 + static_cast<Value>(rng.Uniform(5));
  JoinCase c;
  c.left = RandomRelation("L", left_names, rng.Uniform(40), dom, &rng);
  Relation right = RandomRelation("R", right_names, rng.Uniform(40), dom, &rng);
  if (rng.Uniform(3) == 0) {
    c.replay = true;
    c.right = Relation("R", right.schema());
    c.virtual_rows = right.NumTuples();
    for (size_t r = 0; r < right.NumTuples(); ++r) {
      if (rng.Uniform(3) == 0) continue;
      c.right.AddTupleFrom(right, r);
      c.arrival.push_back(static_cast<uint32_t>(r));
    }
  } else {
    c.right = std::move(right);
  }
  c.preds = RandomPredicates(
      JoinedSchema(c.left.schema(), c.right.schema()), dom, &rng);
  return c;
}

void ExpectSameRows(const Relation& got, const Relation& want,
                    const std::string& what) {
  EXPECT_EQ(got.schema().names(), want.schema().names()) << what;
  EXPECT_EQ(got.data(), want.data()) << what;
}

constexpr uint64_t kCases = 400;

TEST(LocalJoinTest, SymmetricJoinEmitsReferenceRowsInOrder) {
  size_t emitted = 0, filtered_away = 0;
  for (uint64_t seed = 0; seed < kCases; ++seed) {
    const JoinCase c = RandomCase(seed);
    const std::vector<uint32_t>* arr = c.replay ? &c.arrival : nullptr;
    const std::string what = "seed " + std::to_string(seed);
    const Relation fused = SymmetricHashJoinLocal(c.left, c.right, "j", arr,
                                                  c.virtual_rows, c.preds);
    ExpectSameRows(fused, SymmetricRef(c.left, c.right, arr, c.virtual_rows,
                                       c.preds),
                   what);
    // The fused join equals filtering the unfiltered join afterwards.
    const Relation unfiltered =
        SymmetricHashJoinLocal(c.left, c.right, "j", arr, c.virtual_rows);
    ExpectSameRows(unfiltered,
                   SymmetricRef(c.left, c.right, arr, c.virtual_rows, {}),
                   what + " unfiltered");
    ExpectSameRows(fused, FilterByPredicates(unfiltered, c.preds),
                   what + " vs post-join filter");
    emitted += fused.NumTuples();
    filtered_away += unfiltered.NumTuples() - fused.NumTuples();
  }
  // The sweep reaches both outcomes of the emit-time check.
  EXPECT_GT(emitted, 1000u);
  EXPECT_GT(filtered_away, 1000u);
}

TEST(LocalJoinTest, CrossProductAppliesPredicatesAtEmit) {
  Relation left("L", Schema{"x", "y"});
  Relation right("R", Schema{"z"});
  for (Value i = 0; i < 4; ++i) left.AddTuple({i, 10 * i});
  for (Value i = 0; i < 5; ++i) right.AddTuple({i});
  const std::vector<Predicate> preds = {
      Pred(Term::Var("x"), CmpOp::kLt, Term::Var("z"))};
  const Relation got = SymmetricHashJoinLocal(left, right, "j", nullptr, 0,
                                              preds);
  ExpectSameRows(got, SymmetricRef(left, right, nullptr, 0, preds), "cross");
  EXPECT_EQ(got.NumTuples(), 4u + 3u + 2u + 1u);
  EXPECT_EQ(got.schema().names(), (std::vector<std::string>{"x", "y", "z"}));
}

// Q4's shape: `f1 > f2` binds only after the third join, so the first two
// joins run unfiltered and the third applies it at emit. The parent
// pipeline filtered every intermediate with every predicate; the result
// must be the same rows in the same order, with the inputs untouched.
TEST(LocalJoinTest, PipelineAppliesPredicatesWhereTheyBecomeDecidable) {
  for (uint64_t seed = 0; seed < 60; ++seed) {
    Rng rng(1000 + seed);
    const Value dom = 3 + static_cast<Value>(rng.Uniform(4));
    std::vector<Relation> rels;
    rels.push_back(RandomRelation("AP1", {"a1", "p1"}, 30, dom, &rng));
    rels.push_back(RandomRelation("PF1", {"p1", "f1"}, 30, dom, &rng));
    rels.push_back(RandomRelation("AP2", {"a1", "p3"}, 30, dom, &rng));
    rels.push_back(RandomRelation("PF2", {"p3", "f2"}, 30, dom, &rng));
    std::vector<Predicate> preds = {
        Pred(Term::Var("f1"), CmpOp::kGt, Term::Var("f2"))};
    if (seed % 3 == 0) {  // one decidable on the first input already
      preds.push_back(Pred(Term::Var("p1"), CmpOp::kNe, Term::Const(0)));
    }
    if (seed % 4 == 0) {  // one decidable after the first join
      preds.push_back(Pred(Term::Var("a1"), CmpOp::kLe, Term::Var("f1")));
    }
    const std::vector<Relation> before = rels;
    std::vector<const Relation*> inputs;
    for (const Relation& r : rels) inputs.push_back(&r);
    std::vector<const Value*> buffers;
    for (const Relation& r : rels) buffers.push_back(r.data().data());

    Relation want("ref", rels[0].schema());
    for (size_t r = 0; r < rels[0].NumTuples(); ++r) {
      if (RowPasses(want.schema(), rels[0].GetTuple(r), preds)) {
        want.AddTupleFrom(rels[0], r);
      }
    }
    std::vector<size_t> want_outputs;
    for (size_t i = 1; i < rels.size(); ++i) {
      want = SymmetricRef(want, rels[i], nullptr, 0, preds);
      want_outputs.push_back(want.NumTuples());
    }

    PipelineStats stats;
    Result<Relation> got =
        LeftDeepJoinLocal(inputs, {0, 1, 2, 3}, preds, 1u << 30, &stats);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    const std::string what = "seed " + std::to_string(seed);
    ExpectSameRows(*got, want, what);
    EXPECT_EQ(stats.join_outputs, want_outputs) << what;
    for (size_t i = 0; i < rels.size(); ++i) {
      EXPECT_EQ(rels[i].data(), before[i].data()) << what;
      EXPECT_EQ(rels[i].data().data(), buffers[i]) << what;
    }
  }
}

TEST(LocalJoinTest, SingleInputPipelineReturnsTheFilteredInput) {
  Relation r("R", Schema{"x", "y"});
  for (Value i = 0; i < 6; ++i) r.AddTuple({i, 5 - i});
  const std::vector<const Relation*> inputs = {&r};
  Result<Relation> all = LeftDeepJoinLocal(inputs, {0}, {}, 1u << 30);
  ASSERT_TRUE(all.ok());
  ExpectSameRows(*all, r, "unfiltered");
  const std::vector<Predicate> preds = {
      Pred(Term::Var("x"), CmpOp::kLt, Term::Var("y"))};
  Result<Relation> some = LeftDeepJoinLocal(inputs, {0}, preds, 1u << 30);
  ASSERT_TRUE(some.ok());
  EXPECT_EQ(some->data(), (std::vector<Value>{0, 5, 1, 4, 2, 3}));
  EXPECT_EQ(r.NumTuples(), 6u);
}

TEST(LocalJoinTest, FilterMovesTheBufferThroughWhenNothingApplies) {
  Relation rel("R", Schema{"x", "y"});
  for (Value i = 0; i < 1000; ++i) rel.AddTuple({i, i % 7});
  const std::vector<Predicate> none;
  const std::vector<Predicate> unbound = {
      Pred(Term::Var("z"), CmpOp::kLt, Term::Var("x"))};
  for (const std::vector<Predicate>* preds : {&none, &unbound}) {
    const Value* buffer = rel.data().data();
    const size_t before = g_alloc_count.load();
    rel = FilterByPredicates(std::move(rel), *preds);
    EXPECT_EQ(g_alloc_count.load() - before, 0u);
    EXPECT_EQ(rel.data().data(), buffer);
    EXPECT_EQ(rel.NumTuples(), 1000u);
  }
  // A predicate that applies compacts the rows in place, in order.
  const Value* buffer = rel.data().data();
  rel = FilterByPredicates(std::move(rel),
                           {Pred(Term::Var("y"), CmpOp::kEq, Term::Const(3))});
  EXPECT_EQ(rel.data().data(), buffer);
  ASSERT_EQ(rel.NumTuples(), 143u);
  EXPECT_EQ(rel.At(0, 0), 3);
  EXPECT_EQ(rel.At(142, 0), 997);
}

TEST(LocalJoinTest, SymmetricJoinMakesNoPerRowAllocation) {
  // 10 keys x 100 rows per side: 10 x 100 x 100 = 100k output rows.
  Relation left("L", Schema{"k", "a"});
  Relation right("R", Schema{"k", "b"});
  for (Value i = 0; i < 1000; ++i) {
    left.AddTuple({i % 10, i});
    right.AddTuple({i % 10, -i});
  }
  for (const bool with_pred : {false, true}) {
    std::vector<Predicate> preds;
    if (with_pred) {
      preds.push_back(Pred(Term::Var("a"), CmpOp::kGe, Term::Const(0)));
    }
    const size_t before = g_alloc_count.load();
    const Relation out =
        SymmetricHashJoinLocal(left, right, "j", nullptr, 0, preds);
    const size_t allocations = g_alloc_count.load() - before;
    ASSERT_EQ(out.NumTuples(), 100000u);
    // The output buffer grows geometrically: at most one step per doubling
    // up to its 300k values. The rest are the two tables and the join's
    // schema and column lists, a few dozen at most.
    size_t growth_steps = 1;
    for (size_t cap = 1; cap < out.data().size(); cap *= 2) ++growth_steps;
    EXPECT_LE(allocations, growth_steps + 48) << "with_pred " << with_pred;
  }
}

}  // namespace
}  // namespace ptp
