// Golden plan-cache and feedback-store keys. A key outlives the process
// that computed it: the query log's query_hash, committed feedback stores
// and BENCH_feedback.json all hold keys, so NormalizeQueryText must keep
// producing these exact bytes for every text the parser accepts.

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "obs/feedback.h"
#include "query/normalize_text.h"
#include "query/parser.h"

namespace ptp {
namespace {

struct GoldenKey {
  const char* text;
  const char* key;
};

const GoldenKey kGoldenKeys[] = {
    // The inputs of query_normalize_test.
    {"t(x, y, z) :- R(x, y), S(y, z), U(z, x)",
     "t(x, y, z) :- R(x, y), S(y, z), U(z, x)"},
    {"  T( x ,\ty )   :-   R(x,y)  ", "t(x, y) :- R(x, y)"},
    {"T(x,y):-R(x,y)", "t(x, y) :- R(x, y)"},
    {"T(x) :- R(x, y).", "t(x) :- R(x, y)"},
    {"T(x) :- R(x, y)", "t(x) :- R(x, y)"},
    {"T(x,z) :- R(x,y) AND S(y,z).", "t(x, z) :- R(x, y), S(y, z)"},
    {"T(x,z) :- R(x,y), S(y,z).", "t(x, z) :- R(x, y), S(y, z)"},
    {"T(x,z) :- R(x,y) and S(y,z).", "t(x, z) :- R(x, y), S(y, z)"},
    {"T(x,y,z) :- S(y,z), U(z,x), R(x,y).",
     "t(x, y, z) :- R(x, y), S(y, z), U(z, x)"},
    {"T(x,y,z) :- R(x,y), S(y,z), U(z,x).",
     "t(x, y, z) :- R(x, y), S(y, z), U(z, x)"},
    {"Q(x) :- y < 5, R(x, y), x > 2.", "q(x) :- R(x, y), x > 2, y < 5"},
    {"Q(x) :- R(x, y), x == 3.", "q(x) :- R(x, y), x = 3"},
    {"Q(x) :- R(x, y), x = 3.", "q(x) :- R(x, y), x = 3"},
    {"ANSWER(x) :- R(x, y)", "answer(x) :- R(x, y)"},
    {"answer(x) :- R(x, y)", "answer(x) :- R(x, y)"},
    {"q(x) :- R(x, y)", "q(x) :- R(x, y)"},
    {"q(x) :- r(x, y)", "q(x) :- r(x, y)"},
    {"q(x) :- R(x, Y)", "q(x) :- R(x, Y)"},
    {"Q(x) :- R(x, 42), S(x, -7)", "q(x) :- R(x, 42), S(x, -7)"},
    {"Q(x) :- Name(x, \"Joe  Pesci\")", "q(x) :- Name(x, \"Joe  Pesci\")"},
    {"T(x) :- R(x, y), S(y, x)", "t(x) :- R(x, y), S(y, x)"},
    {"T(x) :- R(x, y), S(x, y)", "t(x) :- R(x, y), S(x, y)"},
    {"T(x, y) :- R(x, y)", "t(x, y) :- R(x, y)"},
    {"  not   a\tquery . ", "not a query"},
    {"", ""},
    {"T(x) :- R(x) extra", "T(x) :- R(x) extra"},
    // The paper's Q1-Q8, as data/workloads.cc spells them.
    {"Triangles(x,y,z) :- Twitter_R(x,y), Twitter_S(y,z), Twitter_T(z,x).",
     "triangles(x, y, z) :- Twitter_R(x, y), Twitter_S(y, z), "
     "Twitter_T(z, x)"},
    {"Cliques(x,y,z,p) :- Twitter_R(x,y), Twitter_S(y,z), Twitter_T(z,p), "
     "Twitter_P(p,x), Twitter_K(x,z), Twitter_L(y,p).",
     "cliques(x, y, z, p) :- Twitter_K(x, z), Twitter_L(y, p), "
     "Twitter_P(p, x), Twitter_R(x, y), Twitter_S(y, z), Twitter_T(z, p)"},
    {"CastMember(cast) :- ObjectName(a1, \"Joe Pesci\"), ActorPerform(a1,p1), "
     "PerformFilm(p1,film), ObjectName(a2, \"Robert De Niro\"), "
     "ActorPerform(a2,p2), PerformFilm(p2,film), PerformFilm(p,film), "
     "ActorPerform(cast,p).",
     "castmember(cast) :- ActorPerform(a1, p1), ActorPerform(a2, p2), "
     "ActorPerform(cast, p), ObjectName(a1, \"Joe Pesci\"), "
     "ObjectName(a2, \"Robert De Niro\"), PerformFilm(p, film), "
     "PerformFilm(p1, film), PerformFilm(p2, film)"},
    {"ActorPairs(a1,a2) :- ActorPerform(a1,p1), PerformFilm(p1,f1), "
     "PerformFilm(p2,f1), ActorPerform(a2,p2), ActorPerform(a2,p3), "
     "PerformFilm(p3,f2), PerformFilm(p4,f2), ActorPerform(a1,p4), f1 > f2.",
     "actorpairs(a1, a2) :- ActorPerform(a1, p1), ActorPerform(a1, p4), "
     "ActorPerform(a2, p2), ActorPerform(a2, p3), PerformFilm(p1, f1), "
     "PerformFilm(p2, f1), PerformFilm(p3, f2), PerformFilm(p4, f2), "
     "f1 > f2"},
    {"Rectangles(x,y,z,p) :- Twitter_R(x,y), Twitter_S(y,z), Twitter_T(z,p), "
     "Twitter_K(p,x).",
     "rectangles(x, y, z, p) :- Twitter_K(p, x), Twitter_R(x, y), "
     "Twitter_S(y, z), Twitter_T(z, p)"},
    {"TwoRings(x,y,z,p) :- Twitter_R(x,y), Twitter_S(y,z), Twitter_T(z,p), "
     "Twitter_P(p,x), Twitter_K(x,z).",
     "tworings(x, y, z, p) :- Twitter_K(x, z), Twitter_P(p, x), "
     "Twitter_R(x, y), Twitter_S(y, z), Twitter_T(z, p)"},
    {"OscarWinners(a) :- ObjectName(aw, \"The Academy Awards\"), "
     "HonorAward(h,aw), HonorActor(h,a), HonorYear(h,y), y >= 1990, y < 2000.",
     "oscarwinners(a) :- HonorActor(h, a), HonorAward(h, aw), "
     "HonorYear(h, y), ObjectName(aw, \"The Academy Awards\"), y < 2000, "
     "y >= 1990"},
    {"ActorDirector(a,d) :- ActorPerform(a,p1), ActorPerform(a,p2), "
     "PerformFilm(p1,f1), PerformFilm(p2,f2), DirectorFilm(d,f1), "
     "DirectorFilm(d,f2).",
     "actordirector(a, d) :- ActorPerform(a, p1), ActorPerform(a, p2), "
     "DirectorFilm(d, f1), DirectorFilm(d, f2), PerformFilm(p1, f1), "
     "PerformFilm(p2, f2)"},
    // The benchmark's four ad-hoc templates at a few constants.
    {"Triangles(x,y,z) :- Twitter_R(x,y), Twitter_S(y,z), Twitter_T(z,x), "
     "x >= 0, x < 300.",
     "triangles(x, y, z) :- Twitter_R(x, y), Twitter_S(y, z), "
     "Twitter_T(z, x), x < 300, x >= 0"},
    {"Triangles(x,y,z) :- Twitter_R(x,y), Twitter_S(y,z), Twitter_T(z,x), "
     "x >= 4242, x < 4542.",
     "triangles(x, y, z) :- Twitter_R(x, y), Twitter_S(y, z), "
     "Twitter_T(z, x), x < 4542, x >= 4242"},
    {"Rectangles(x,y,z,p) :- Twitter_R(x,y), Twitter_S(y,z), Twitter_T(z,p), "
     "Twitter_K(p,x), x >= 17, x < 117.",
     "rectangles(x, y, z, p) :- Twitter_K(p, x), Twitter_R(x, y), "
     "Twitter_S(y, z), Twitter_T(z, p), x < 117, x >= 17"},
    {"OscarWinners(a) :- ObjectName(aw, \"The Academy Awards\"), "
     "HonorAward(h,aw), HonorActor(h,a), HonorYear(h,y), y >= 1950, y < 1955.",
     "oscarwinners(a) :- HonorActor(h, a), HonorAward(h, aw), "
     "HonorYear(h, y), ObjectName(aw, \"The Academy Awards\"), y < 1955, "
     "y >= 1950"},
    {"OscarWinners(a) :- ObjectName(aw, \"award_7\"), HonorAward(h,aw), "
     "HonorActor(h,a), HonorYear(h,y), y >= 1990, y < 2010.",
     "oscarwinners(a) :- HonorActor(h, a), HonorAward(h, aw), "
     "HonorYear(h, y), ObjectName(aw, \"award_7\"), y < 2010, y >= 1990"},
    {"ActorDirector(a,d) :- ActorPerform(a,p1), ActorPerform(a,p2), "
     "PerformFilm(p1,f1), PerformFilm(p2,f2), DirectorFilm(d,f1), "
     "DirectorFilm(d,f2), a >= 5, a < 105.",
     "actordirector(a, d) :- ActorPerform(a, p1), ActorPerform(a, p2), "
     "DirectorFilm(d, f1), DirectorFilm(d, f2), PerformFilm(p1, f1), "
     "PerformFilm(p2, f2), a < 105, a >= 5"},
    // Terms keep their spelling; separators, operators and spacing do not.
    {"Q(x) :- R(x, 007), x != -0.", "q(x) :- R(x, 007), x != -0"},
    {"Q(x) :- R(x, y), x <= 3 and y >= 4, x < y AND y > 1, x != y",
     "q(x) :- R(x, y), x != y, x < y, x <= 3, y > 1, y >= 4"},
    {"1Q(x) :- R(x)", "1q(x) :- R(x)"},
    {"Q(x) :- R(x, \"a, b :- c\")", "q(x) :- R(x, \"a, b :- c\")"},
    {"Q(x) :- R(x, y), \"b\" != y", "q(x) :- R(x, y), \"b\" != y"},
    {"Q(x) :- R (x , y) .", "q(x) :- R(x, y)"},
    {"Q(x) :- x < 3", "q(x) :- x < 3"},
    {"Q(x) :- R(x), S(x) . ", "q(x) :- R(x), S(x)"},
    {"Q(x):-R(x),ANDS(x)", "q(x) :- ANDS(x), R(x)"},
    {"Q(x) :- R(x) ANDS(x)", "Q(x) :- R(x) ANDS(x)"},
    {"Q(x) :- R(x, - 5)", "Q(x) :- R(x, - 5)"},
};

TEST(QueryKeyGoldenTest, KeysMatchTheTable) {
  for (const GoldenKey& g : kGoldenKeys) {
    EXPECT_EQ(NormalizeQueryText(g.text), g.key) << "text: " << g.text;
  }
}

// parser_fuzz_test's seeded corpora, drawn the same way: random printable
// bytes, every truncation of a valid query, and single-character mutations
// of it.
std::vector<std::string> FuzzCorpus() {
  const std::string valid =
      "ActorPairs(a1, a2) :- ActorPerform(a1, p1), PerformFilm(p1, f1), "
      "ObjectName(a2, \"Joe Pesci\"), f1 > 1990.";
  std::vector<std::string> corpus;
  Rng bytes(1);
  for (int trial = 0; trial < 500; ++trial) {
    std::string input;
    const size_t len = bytes.Uniform(60);
    for (size_t i = 0; i < len; ++i) {
      input.push_back(static_cast<char>(32 + bytes.Uniform(95)));
    }
    corpus.push_back(std::move(input));
  }
  for (size_t cut = 0; cut <= valid.size(); ++cut) {
    corpus.push_back(valid.substr(0, cut));
  }
  Rng rng(2);
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = valid;
    mutated[rng.Uniform(mutated.size())] =
        static_cast<char>(32 + rng.Uniform(95));
    corpus.push_back(std::move(mutated));
  }
  return corpus;
}

TEST(QueryKeyGoldenTest, FuzzCorpusKeysDigest) {
  // FNV-1a over the keys of the corpus texts the parser accepts, in corpus
  // order, each key terminated by '\n'.
  uint64_t digest = 14695981039346656037ull;
  size_t accepted = 0;
  for (const std::string& text : FuzzCorpus()) {
    Dictionary dict;
    if (!ParseDatalog(text, &dict).ok()) continue;
    ++accepted;
    for (char c : NormalizeQueryText(text) + "\n") {
      digest = (digest ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
  }
  EXPECT_EQ(accepted, 171u);
  EXPECT_EQ(digest, 13479139249625569802ull);
}

// Texts the parser rejects key by their collapsed whitespace, even where
// the rest of the text reads like a rule.
TEST(QueryKeyGoldenTest, RejectedTextsFallBackToCollapsedWhitespace) {
  for (const char* text : {"Q(3) :- R(x, 3).", "Q(x) :- 1R(x), S(x)"}) {
    Dictionary dict;
    EXPECT_FALSE(ParseDatalog(text, &dict).ok()) << text;
  }
  EXPECT_EQ(NormalizeQueryText("Q(3)  :- R(x, 3)."), "Q(3) :- R(x, 3)");
  EXPECT_EQ(NormalizeQueryText("Q(x) :-  1R(x),S(x)"), "Q(x) :- 1R(x),S(x)");
}

TEST(FeedbackStoreKeyTest, LoadedKeyIsCanonicalAndFoundUnderAnySpelling) {
  auto store = FeedbackStore::Parse(
      "{\"version\":1,\"queries\":[{\"query\":"
      "\"Q(x,z) :- S(y,z) AND R(x,y).\",\"workers\":8,"
      "\"strategies\":[]}]}");
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const std::string canonical = "q(x, z) :- R(x, y), S(y, z)";
  for (const char* spelling :
       {"Q(x,z) :- S(y,z) AND R(x,y).", "q(x, z) :- R(x, y), S(y, z)",
        "Q( x , z ):-R(x,y),S(y,z)"}) {
    const QueryFeedback* q = store->Find(spelling, 8);
    ASSERT_NE(q, nullptr) << spelling;
    EXPECT_EQ(q->query_key, canonical);
    EXPECT_EQ(store->FindOrAdd(spelling, 8), q) << spelling;
  }
  EXPECT_EQ(store->queries.size(), 1u);
  EXPECT_NE(store->ToJson().find("\"query\":\"" + canonical + "\""),
            std::string::npos)
      << store->ToJson();
}

}  // namespace
}  // namespace ptp
