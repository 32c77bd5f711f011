// Bounded symbol vocabulary: a long-lived router fed documents whose
// element and attribute names are almost all new must keep the global
// symbol table at the compiled query vocabulary plus the reserved
// unknown-name symbol, and its matching arenas at a fixed footprint once
// warm. Each configuration — a per-engine pool, a shared-index pool, and a
// ParallelRouter at 1, 2 and 4 workers — streams over a million distinct
// names through reused evaluators, and every verdict must equal the
// brute-force oracle's. In the TSan job's list: the router's workers
// resolve names in concurrent parses.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baseline/brute_force_matcher.h"
#include "core/multi_engine.h"
#include "core/parallel_router.h"
#include "dom/dom_builder.h"
#include "gtest/gtest.h"
#include "query/xtree_builder.h"
#include "util/symbol_table.h"
#include "xml/sax_parser.h"

namespace xaos {
namespace {

// Shareable chains (the shared automaton takes them when enabled) and
// unshareable queries — predicates and a backward axis — that always run
// as engines. Together they mention exactly kVocabulary.
const std::vector<std::string> kExpressions = {
    "//a/b",           "//a//c",   "/r/*/b",    "//b[@k]",
    "//c/ancestor::a", "//a[c]/b", "//*[@k]/c", "//a[@k]//c",
};
const std::vector<std::string> kVocabulary = {"r", "a", "b", "c", "k"};

constexpr uint64_t kDistinctNames = 1'000'000;
// Documents cycle through this many shapes; the fresh names differ in
// every document. A cycle is the warm-up: by its end every arena size
// class has met the largest demand any document makes.
constexpr int kShapes = 8;
constexpr int kElementsPerDocument = 500;
constexpr int kFreshAttributes = 4;  // per element, besides the first
// Per-mille of elements named a, b or c, by shape: sparse shapes keep
// most verdicts false, dense ones true, so the oracle sees both.
constexpr int kKnownPerMille[kShapes] = {0, 4, 8, 12, 20, 40, 150, 600};

// One document shape: which positions carry a vocabulary name and which a
// fresh one. Rendering substitutes a new spelling for every fresh slot;
// every element's first attribute is either `k` or fresh, and
// kFreshAttributes fresh ones follow.
struct Shape {
  struct Element {
    int depth;
    int name;     // -1 = fresh, else an index into a/b/c
    bool attr_k;  // first attribute is `k`
  };
  std::vector<Element> elements;  // pre-order
};

Shape MakeShape(int seed) {
  std::mt19937 rng(static_cast<uint32_t>(seed) * 7919u + 1u);
  Shape shape;
  int depth = 1;
  for (int i = 0; i < kElementsPerDocument; ++i) {
    Shape::Element e;
    e.depth = depth;
    e.name = static_cast<int>(rng() % 1000) < kKnownPerMille[seed]
                 ? static_cast<int>(rng() % 3)
                 : -1;
    e.attr_k = rng() % 4 == 0;
    shape.elements.push_back(e);
    // Next element: a child (bounded depth), a sibling, or up a level.
    int step = static_cast<int>(rng() % 3);
    if (step == 0 && depth < 8) {
      ++depth;
    } else if (step == 2 && depth > 1) {
      --depth;
    }
  }
  return shape;
}

// Renders `shape` with fresh spellings drawn from `*counter`, which ends
// advanced by the number of distinct names the document introduced.
std::string Render(const Shape& shape, uint64_t* counter) {
  static const char* const kNames[] = {"a", "b", "c"};
  auto fresh = [counter](char prefix) {
    std::string name(1, prefix);
    name.append(std::to_string((*counter)++));
    return name;
  };
  std::string out = "<r>";
  std::vector<std::string> open;
  auto close = [&] {
    out.append("</").append(open.back()).append(">");
    open.pop_back();
  };
  for (const Shape::Element& e : shape.elements) {
    while (static_cast<int>(open.size()) >= e.depth) close();
    std::string name = e.name >= 0 ? kNames[e.name] : fresh('n');
    out.append("<").append(name).append(" ");
    out.append(e.attr_k ? "k" : fresh('t')).append("=\"1\"");
    for (int a = 0; a < kFreshAttributes; ++a) {
      out.append(" ").append(fresh('t')).append("=\"2\"");
    }
    out.append(">");
    open.push_back(std::move(name));
  }
  while (!open.empty()) close();
  return out + "</r>";
}

std::vector<core::Query> CompileAll() {
  std::vector<core::Query> queries;
  for (const std::string& expression : kExpressions) {
    StatusOr<core::Query> query = core::Query::Compile(expression);
    EXPECT_TRUE(query.ok()) << expression << ": " << query.status();
    if (query.ok()) queries.push_back(std::move(*query));
  }
  return queries;
}

// Brute-force verdict of every query over `xml`.
std::vector<bool> BruteForceVerdicts(const std::string& xml) {
  StatusOr<dom::Document> doc = dom::ParseToDocument(xml);
  EXPECT_TRUE(doc.ok()) << doc.status();
  std::vector<bool> verdicts;
  for (const std::string& expression : kExpressions) {
    StatusOr<std::vector<query::XTree>> trees =
        query::CompileToXTrees(expression);
    EXPECT_TRUE(trees.ok()) << trees.status();
    bool matched = false;
    if (doc.ok() && trees.ok()) {
      for (const query::XTree& tree : *trees) {
        baseline::BruteForceOutcome outcome =
            baseline::BruteForceMatch(*doc, tree);
        EXPECT_TRUE(outcome.complete) << expression;
        matched = matched || outcome.matched;
      }
    }
    verdicts.push_back(matched);
  }
  return verdicts;
}

// Every configuration streams the same document sequence, so the oracle
// runs once per document: verdicts are cached by position, with a hash of
// the document text they were computed from.
const std::vector<bool>& OracleVerdicts(size_t document,
                                       const std::string& xml) {
  static std::vector<std::pair<size_t, std::vector<bool>>> cache;
  const size_t hash = std::hash<std::string>{}(xml);
  if (document == cache.size()) {
    cache.emplace_back(hash, BruteForceVerdicts(xml));
  }
  EXPECT_EQ(cache[document].first, hash);
  return cache[document].second;
}

// What a configuration reports after each document.
struct Observed {
  std::vector<bool> verdicts;
  uint64_t arena_bytes_reserved = 0;  // of the evaluator that routed it
  size_t symbols = 0;                 // global symbol table size
  const void* evaluator = nullptr;    // identity of that evaluator
};

Observed Observe(const core::MultiQueryEvaluator& evaluator) {
  Observed observed;
  EXPECT_TRUE(evaluator.status().ok()) << evaluator.status();
  for (size_t q = 0; q < kExpressions.size(); ++q) {
    observed.verdicts.push_back(evaluator.Matched(q));
  }
  observed.arena_bytes_reserved =
      evaluator.AggregateStats().arena_bytes_reserved;
  observed.symbols = util::SymbolTable::Global().size();
  observed.evaluator = &evaluator;
  return observed;
}

// The document stream every configuration routes: shapes in a cycle, with
// fresh spellings until kDistinctNames distinct names went by.
const std::vector<std::string>& DistinctNameStream() {
  static const std::vector<std::string> stream = [] {
    std::vector<Shape> shapes;
    for (int s = 0; s < kShapes; ++s) shapes.push_back(MakeShape(s));
    std::vector<std::string> documents;
    for (uint64_t counter = 0; counter < kDistinctNames;) {
      documents.push_back(Render(shapes[documents.size() % kShapes], &counter));
    }
    return documents;
  }();
  return stream;
}

// Checks one configuration's reports over DistinctNameStream(): every
// verdict equals the oracle's, the symbol table does not move after the
// first cycle of shapes, and no evaluator's arena footprint moves once it
// has routed a document of every shape.
void CheckStream(const std::vector<Observed>& observed) {
  const std::vector<std::string>& documents = DistinctNameStream();
  ASSERT_EQ(observed.size(), documents.size());
  struct Warmth {
    std::vector<bool> shapes_seen = std::vector<bool>(kShapes, false);
    int shapes = 0;
    uint64_t reserved = 0;
  };
  std::map<const void*, Warmth> evaluators;
  size_t warm_symbols = 0;
  int mismatches = 0;
  std::vector<int> matched_documents(kExpressions.size(), 0);
  for (size_t d = 0; d < documents.size(); ++d) {
    const std::vector<bool>& oracle = OracleVerdicts(d, documents[d]);
    for (size_t q = 0; q < kExpressions.size(); ++q) {
      matched_documents[q] += oracle[q] ? 1 : 0;
      if (observed[d].verdicts[q] != oracle[q] && ++mismatches <= 5) {
        ADD_FAILURE() << "document " << d << ": " << kExpressions[q]
                      << " matched=" << observed[d].verdicts[q]
                      << ", oracle says " << oracle[q];
      }
    }
    if (d + 1 == kShapes) {
      warm_symbols = observed[d].symbols;
    } else if (d + 1 > kShapes) {
      ASSERT_EQ(observed[d].symbols, warm_symbols) << "after document " << d;
    }
    Warmth& warmth = evaluators[observed[d].evaluator];
    if (warmth.shapes == kShapes) {
      ASSERT_EQ(observed[d].arena_bytes_reserved, warmth.reserved)
          << "after document " << d;
    } else if (!warmth.shapes_seen[d % kShapes]) {
      warmth.shapes_seen[d % kShapes] = true;
      warmth.shapes += 1;
      warmth.reserved = observed[d].arena_bytes_reserved;
    }
  }
  EXPECT_EQ(mismatches, 0);
  // Every query both matched and missed somewhere in the stream.
  for (size_t q = 0; q < kExpressions.size(); ++q) {
    EXPECT_GT(matched_documents[q], 0) << kExpressions[q];
    EXPECT_LT(matched_documents[q], static_cast<int>(documents.size()))
        << kExpressions[q];
  }
  EXPECT_GT(documents.size(), static_cast<size_t>(kShapes));
  // The bound: whatever the stream, the table holds the compiled
  // vocabulary plus the reserved unknown-name symbol.
  util::SymbolTable& symbols = util::SymbolTable::Global();
  EXPECT_LE(symbols.size(), kVocabulary.size() + 1);
  for (const std::string& name : kVocabulary) {
    EXPECT_NE(symbols.Lookup(name), util::kInvalidSymbol) << name;
  }
  EXPECT_EQ(symbols.Lookup("n0"), util::kInvalidSymbol);
  EXPECT_EQ(symbols.Lookup("t1"), util::kInvalidSymbol);
}

void StreamThroughEvaluator(core::EngineOptions options) {
  std::vector<core::Query> queries = CompileAll();
  core::MultiQueryEvaluator evaluator(options);
  for (const core::Query& query : queries) evaluator.AddQuery(query);
  EXPECT_EQ(evaluator.shared_subscription_count() > 0,
            options.enable_shared_index);
  std::vector<Observed> observed;
  for (const std::string& xml : DistinctNameStream()) {
    Status status = xml::ParseString(xml, &evaluator);
    EXPECT_TRUE(status.ok()) << status;
    observed.push_back(Observe(evaluator));
  }
  CheckStream(observed);
  EXPECT_GT(evaluator.AggregateStats().arena_bytes_reserved, 0u);
}

TEST(BoundedVocabularyTest, PerEnginePool) {
  core::EngineOptions options;
  options.enable_shared_index = false;
  StreamThroughEvaluator(options);
}

TEST(BoundedVocabularyTest, SharedIndexPool) {
  core::EngineOptions options;
  options.enable_shared_index = true;
  StreamThroughEvaluator(options);
}

// The same stream through a ParallelRouter: its workers' parsers resolve
// names concurrently, each into its own evaluator.
class BoundedVocabularyRouterTest : public ::testing::TestWithParam<int> {};

TEST_P(BoundedVocabularyRouterTest, ParallelRouter) {
  std::vector<core::Query> queries = CompileAll();
  std::vector<Observed> observed;
  core::ParallelRouter router(
      GetParam(), [&](size_t document, const core::MultiQueryEvaluator& e) {
        EXPECT_EQ(document, observed.size());
        observed.push_back(Observe(e));
      });
  for (const core::Query& query : queries) router.AddQuery(query);
  for (const std::string& xml : DistinctNameStream()) router.Submit(xml);
  router.Drain();
  CheckStream(observed);
  const size_t cores = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_EQ(router.worker_count(),
            std::min(static_cast<size_t>(GetParam()), cores));
}

INSTANTIATE_TEST_SUITE_P(Workers, BoundedVocabularyRouterTest,
                         ::testing::Values(1, 2, 4));

}  // namespace
}  // namespace xaos
