// Pins every engine's per-document counters, document by document, to
// engine_counters.golden, which was recorded from commit 9310997 — the last
// engine that held its matching structures in shared_ptr/weak_ptr and
// reset, finalized and read every engine at every document boundary. The
// storage behind the algorithm may change; what it computes may not: every
// count below, for engines a document reaches and for the ones it never
// reaches alike. Byte figures (structure_memory, arena_*) are not pinned.
//
// Two pools, both through the production path (SaxParser into one
// MultiQueryEvaluator, AbortDocument on a rejected document):
//   * hostile: 300 distinct random 6-node-test paths over 26 tag names
//     (the paper's generator) and 16 generated documents carrying unknown
//     names, one malformed and one over the depth limit;
//   * axes: backward-axis, sibling-axis and earliest-emission queries over
//     generated documents.
// Accepted documents are also checked against baseline::BruteForceMatch,
// verdicts and items.

#include <fstream>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "baseline/brute_force_matcher.h"
#include "baseline/compare.h"
#include "core/multi_engine.h"
#include "dom/dom_builder.h"
#include "gen/random_workload.h"
#include "gtest/gtest.h"
#include "xml/sax_parser.h"
#include "xpath/ast.h"

namespace xaos {
namespace {

constexpr int kMaxDepth = 128;

struct Pool {
  std::string name;
  std::vector<std::string> queries;
  std::vector<std::string> documents;
};

// Documents generated for `paths`, each opening with four leaf elements
// whose element and attribute names no query mentions.
std::vector<std::string> Documents(
    const std::vector<xpath::LocationPath>& paths, int count, int alphabet,
    size_t elements, std::mt19937_64& rng) {
  std::vector<std::string> out;
  gen::RandomDocOptions options;
  options.alphabet = alphabet;
  options.target_elements = elements;
  for (int i = 0; i < count; ++i) {
    const xpath::LocationPath& path =
        paths[static_cast<size_t>(i) * 17 % paths.size()];
    StatusOr<std::string> text = gen::GenerateDocumentForPath(path, options,
                                                              rng);
    EXPECT_TRUE(text.ok()) << text.status();
    if (!text.ok()) return out;
    const size_t root_end = text->find('>') + 1;
    std::string doc = text->substr(0, root_end);
    for (int k = 0; k < 4; ++k) {
      doc += "<u" + std::to_string(k) + "_" + std::to_string(i) + " v" +
             std::to_string(k) + "=\"1\"/>";
    }
    doc += text->substr(root_end);
    out.push_back(std::move(doc));
  }
  return out;
}

Pool HostilePool() {
  Pool pool{"hostile", {}, {}};
  std::mt19937_64 rng(0x686f7374696c65ull);
  gen::RandomQueryOptions query_options;
  query_options.alphabet = 26;
  std::vector<xpath::LocationPath> paths;
  std::set<std::string> seen;
  while (pool.queries.size() < 300) {
    xpath::LocationPath path = gen::GenerateRandomPath(query_options, rng);
    std::string expression = xpath::ToString(path);
    if (!seen.insert(expression).second) continue;
    pool.queries.push_back(std::move(expression));
    paths.push_back(std::move(path));
  }
  pool.documents = Documents(paths, 16, 26, 100, rng);
  if (pool.documents.size() != 16) return pool;
  // Malformed: an end tag three quarters of the way in no longer matches.
  std::string& bad = pool.documents[5];
  bad[bad.find("</", bad.size() * 3 / 4) + 2] = '_';
  // Over the depth limit: a run of unclosed elements in mid-document.
  std::string& deep = pool.documents[13];
  std::string run;
  for (int d = 0; d < 2 * kMaxDepth; ++d) run += "<deep>";
  deep.insert(deep.find('<', deep.size() / 2), run);
  return pool;
}

Pool AxesPool() {
  Pool pool{"axes", {}, {}};
  pool.queries = {
      // Backward axes (optimistic propagation and undo).
      "//c/ancestor::a", "//c/ancestor::b/parent::a", "//b/ancestor-or-self::b",
      "//c/..", "//b[ancestor::a/c]", "//a//b/ancestor::c",
      // Sibling axes (deferred propagation, retraction).
      "//b/following-sibling::c", "//c/preceding-sibling::b",
      "//a[b/following-sibling::c]", "//b[following-sibling::b]/c",
      "//a/b/following-sibling::*",
      // Earliest emission and reclaim: single outputs under confirmed
      // predicates, several outputs, counted predicate slots.
      "//a//c", "/a/b", "//b[c]", "//a[b]//c", "//*[c]", "//a[c and b]/b",
      "//a[.//c]/b[d]", "//b//d | //c//a",
  };
  std::mt19937_64 rng(0x61786573ull);
  gen::RandomQueryOptions query_options;
  query_options.alphabet = 4;
  query_options.allow_siblings = true;
  std::vector<xpath::LocationPath> paths;
  std::set<std::string> seen(pool.queries.begin(), pool.queries.end());
  while (paths.size() < 40) {
    xpath::LocationPath path = gen::GenerateRandomPath(query_options, rng);
    std::string expression = xpath::ToString(path);
    if (!seen.insert(expression).second) continue;
    pool.queries.push_back(std::move(expression));
    paths.push_back(std::move(path));
  }
  pool.documents = Documents(paths, 8, 4, 60, rng);
  return pool;
}

// Runs `pool` and returns its counter dump: per document its status, then
// one line per engine.
std::string RunPool(const Pool& pool) {
  core::EngineOptions options;
  options.enable_shared_index = false;  // every query on an engine
  core::MultiQueryEvaluator evaluator(options);
  std::vector<core::Query> queries;
  for (const std::string& expression : pool.queries) {
    StatusOr<core::Query> query = core::Query::Compile(expression);
    EXPECT_TRUE(query.ok()) << expression << ": " << query.status();
    if (!query.ok()) return "";
    evaluator.AddQuery(*query);
    queries.push_back(std::move(*query));
  }
  xml::ParserOptions parser_options;
  parser_options.limits.max_depth = kMaxDepth;
  parser_options.projection_filter = evaluator.projection_filter();

  std::ostringstream dump;
  for (size_t d = 0; d < pool.documents.size(); ++d) {
    const std::string& text = pool.documents[d];
    Status status = xml::ParseString(text, &evaluator, parser_options);
    if (!status.ok()) evaluator.AbortDocument(status);
    dump << pool.name << " document " << d << ": "
         << StatusCodeToString(evaluator.status().code()) << "\n";
    for (size_t e = 0; e < evaluator.engine_count(); ++e) {
      const core::EngineStats s = evaluator.engines()[e]->stats();
      dump << e << ": " << s.elements_total << " " << s.elements_discarded
           << " " << s.structures_created << " " << s.structures_undone << " "
           << s.structures_live_peak << " " << s.propagations << " "
           << s.optimistic_propagations << " " << s.candidates_emitted_early
           << " " << s.candidates_reclaimed << "\n";
    }
    if (!status.ok()) continue;

    // Verdicts and items against the brute-force matcher.
    StatusOr<dom::Document> doc = dom::ParseToDocument(text);
    EXPECT_TRUE(doc.ok()) << doc.status();
    if (!doc.ok()) continue;
    for (size_t q = 0; q < queries.size(); ++q) {
      bool matched = false;
      std::set<baseline::CanonicalItem> items;
      for (const query::XTree& tree : queries[q].trees()) {
        baseline::BruteForceOutcome outcome =
            baseline::BruteForceMatch(*doc, tree, 20'000'000);
        EXPECT_TRUE(outcome.complete);
        matched = matched || outcome.matched;
        items.insert(outcome.items.begin(), outcome.items.end());
      }
      EXPECT_EQ(evaluator.Matched(q), matched)
          << pool.name << " document " << d << " query " << pool.queries[q];
      EXPECT_EQ(baseline::CanonicalFromResult(evaluator.Result(q)),
                std::vector<baseline::CanonicalItem>(items.begin(),
                                                     items.end()))
          << pool.name << " document " << d << " query " << pool.queries[q];
    }
  }
  return dump.str();
}

TEST(EngineCountersGoldenTest, CountsMatchTheRecordedEngine) {
  const Pool hostile = HostilePool();
  ASSERT_EQ(hostile.documents.size(), 16u);
  const Pool axes = AxesPool();
  const std::string actual = RunPool(hostile) + RunPool(axes);

  std::ifstream in(XAOS_ENGINE_COUNTERS_GOLDEN);
  ASSERT_TRUE(in.good()) << "cannot read " << XAOS_ENGINE_COUNTERS_GOLDEN;
  std::stringstream expected;
  expected << in.rdbuf();
  // Line by line, so a mismatch names its document and engine.
  std::istringstream want(expected.str());
  std::istringstream got(actual);
  std::string want_line;
  std::string got_line;
  std::string document;
  size_t line = 0;
  while (std::getline(want, want_line)) {
    ++line;
    ASSERT_TRUE(std::getline(got, got_line))
        << "dump ends early at golden line " << line;
    if (want_line.find("document") != std::string::npos) document = want_line;
    ASSERT_EQ(got_line, want_line)
        << "line " << line << ", under \"" << document
        << "\" (fields: elements_total elements_discarded structures_created"
           " structures_undone structures_live_peak propagations"
           " optimistic_propagations candidates_emitted_early"
           " candidates_reclaimed)";
  }
  EXPECT_FALSE(std::getline(got, got_line)) << "dump longer than the golden";
}

}  // namespace
}  // namespace xaos
