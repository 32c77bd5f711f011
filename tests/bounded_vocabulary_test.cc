// Bounded symbol vocabulary: a long-lived router fed documents whose
// element and attribute names are almost all new must keep the global
// symbol table at the compiled query vocabulary plus the reserved
// unknown-name symbol, and its matching arenas at a fixed footprint once
// warm. Each configuration — a per-engine pool, a shared-index pool, and a
// ParallelFleet at 1, 2 and 4 workers — streams over a million distinct
// names through one reused evaluator, and every verdict must equal the
// brute-force oracle's. In the TSan job's list: the fleet's parse thread
// resolves names while its workers replay.

#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "baseline/brute_force_matcher.h"
#include "core/batched_dispatch.h"
#include "core/multi_engine.h"
#include "core/parallel_fleet.h"
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
const std::vector<bool>& OracleVerdicts(int document, const std::string& xml) {
  static std::vector<std::pair<size_t, std::vector<bool>>> cache;
  const size_t hash = std::hash<std::string>{}(xml);
  if (static_cast<size_t>(document) == cache.size()) {
    cache.emplace_back(hash, BruteForceVerdicts(xml));
  }
  EXPECT_EQ(cache[static_cast<size_t>(document)].first, hash);
  return cache[static_cast<size_t>(document)].second;
}

// What a configuration reports after each document.
struct Observed {
  std::vector<bool> verdicts;
  uint64_t arena_bytes_reserved = 0;
};

// Streams documents through `run` until kDistinctNames fresh names went by,
// checking verdicts against the oracle on every document and that neither
// the symbol table nor the arena footprint moves after the first cycle of
// shapes.
template <typename Run>
void StreamDistinctNames(Run&& run) {
  util::SymbolTable& symbols = util::SymbolTable::Global();
  std::vector<Shape> shapes;
  for (int s = 0; s < kShapes; ++s) shapes.push_back(MakeShape(s));

  uint64_t counter = 0;
  size_t warm_symbols = 0;
  uint64_t warm_reserved = 0;
  int mismatches = 0;
  int documents = 0;
  std::vector<int> matched_documents(kExpressions.size(), 0);
  for (; counter < kDistinctNames; ++documents) {
    const std::string xml = Render(shapes[documents % kShapes], &counter);
    const Observed observed = run(xml);
    const std::vector<bool>& oracle = OracleVerdicts(documents, xml);
    for (size_t q = 0; q < kExpressions.size(); ++q) {
      matched_documents[q] += oracle[q] ? 1 : 0;
      if (observed.verdicts[q] != oracle[q] && ++mismatches <= 5) {
        ADD_FAILURE() << "document " << documents << ": " << kExpressions[q]
                      << " matched=" << observed.verdicts[q]
                      << ", oracle says " << oracle[q];
      }
    }
    if (documents + 1 == kShapes) {
      warm_symbols = symbols.size();
      warm_reserved = observed.arena_bytes_reserved;
    } else if (documents + 1 > kShapes) {
      ASSERT_EQ(symbols.size(), warm_symbols) << "after document " << documents;
      ASSERT_EQ(observed.arena_bytes_reserved, warm_reserved)
          << "after document " << documents;
    }
  }
  EXPECT_EQ(mismatches, 0);
  // Every query both matched and missed somewhere in the stream.
  for (size_t q = 0; q < kExpressions.size(); ++q) {
    EXPECT_GT(matched_documents[q], 0) << kExpressions[q];
    EXPECT_LT(matched_documents[q], documents) << kExpressions[q];
  }
  EXPECT_GE(counter, kDistinctNames);
  EXPECT_GT(documents, kShapes);
  // The bound: whatever the stream, the table holds the compiled
  // vocabulary plus the reserved unknown-name symbol.
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
  // The production event path: captured batches, devirtualized replay.
  core::BatchedDispatcher dispatcher(&evaluator);
  StreamDistinctNames([&](const std::string& xml) {
    Observed observed;
    Status status = xml::ParseString(xml, &dispatcher);
    EXPECT_TRUE(status.ok()) << status;
    EXPECT_TRUE(evaluator.status().ok()) << evaluator.status();
    for (size_t q = 0; q < queries.size(); ++q) {
      observed.verdicts.push_back(evaluator.Matched(q));
    }
    observed.arena_bytes_reserved =
        evaluator.AggregateStats().arena_bytes_reserved;
    return observed;
  });
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

class BoundedVocabularyFleetTest : public ::testing::TestWithParam<int> {};

TEST_P(BoundedVocabularyFleetTest, ParallelFleet) {
  std::vector<core::Query> queries = CompileAll();
  core::ParallelFleetOptions options;
  options.num_workers = GetParam();
  core::ParallelFleet fleet(options);
  for (const core::Query& query : queries) fleet.AddQuery(query);
  StreamDistinctNames([&](const std::string& xml) {
    Observed observed;
    Status status = xml::ParseString(xml, &fleet);
    EXPECT_TRUE(status.ok()) << status;
    EXPECT_TRUE(fleet.status().ok()) << fleet.status();
    for (size_t q = 0; q < queries.size(); ++q) {
      observed.verdicts.push_back(fleet.Matched(q));
    }
    observed.arena_bytes_reserved = fleet.AggregateStats().arena_bytes_reserved;
    return observed;
  });
  EXPECT_EQ(fleet.worker_count(), static_cast<size_t>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Workers, BoundedVocabularyFleetTest,
                         ::testing::Values(1, 2, 4));

}  // namespace
}  // namespace xaos
