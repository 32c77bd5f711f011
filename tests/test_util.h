// Shared helpers for the xaos test suite.

#ifndef XAOS_TESTS_TEST_UTIL_H_
#define XAOS_TESTS_TEST_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

#include "baseline/compare.h"
#include "baseline/navigational_engine.h"
#include "core/multi_engine.h"
#include "core/parallel_router.h"
#include "dom/dom_builder.h"
#include "dom/dom_replayer.h"
#include "gtest/gtest.h"
#include "xml/sax_parser.h"

namespace xaos::test {

// Evaluates `xpath` over `xml` with the streaming engine; fails the test on
// error. Returns canonical items (sorted).
inline std::vector<baseline::CanonicalItem> EvalStreaming(
    std::string_view xpath, std::string_view xml,
    core::EngineOptions options = {}) {
  StatusOr<core::QueryResult> result =
      core::EvaluateStreaming(xpath, xml, options);
  EXPECT_TRUE(result.ok()) << result.status();
  if (!result.ok()) return {};
  return baseline::CanonicalFromResult(*result);
}

// Evaluates with the navigational baseline over a DOM built from `xml`.
inline std::vector<baseline::CanonicalItem> EvalBaseline(
    std::string_view xpath, std::string_view xml) {
  StatusOr<dom::Document> doc = dom::ParseToDocument(xml);
  EXPECT_TRUE(doc.ok()) << doc.status();
  if (!doc.ok()) return {};
  baseline::NavigationalEngine engine(&doc.value());
  StatusOr<std::vector<baseline::NodeRef>> refs = engine.Evaluate(xpath);
  EXPECT_TRUE(refs.ok()) << refs.status();
  if (!refs.ok()) return {};
  return baseline::CanonicalFromRefs(doc.value(), *refs);
}

// Names (element tags) of the items, in order.
inline std::vector<std::string> Names(
    const std::vector<baseline::CanonicalItem>& items) {
  std::vector<std::string> names;
  names.reserve(items.size());
  for (const auto& item : items) names.push_back(item.name);
  return names;
}

// Ordinals of the items, in order.
inline std::vector<uint32_t> Ordinals(
    const std::vector<baseline::CanonicalItem>& items) {
  std::vector<uint32_t> ordinals;
  ordinals.reserve(items.size());
  for (const auto& item : items) ordinals.push_back(item.ordinal);
  return ordinals;
}

// The paper's running example document (Figure 2). Element ordinals match
// the paper's ids: X=1, Y=2, W=3, Z=4, V=5, V=6, W=7, W=8, U=9, Y=10,
// Z=11, W=12, U=13.
inline constexpr std::string_view kFigure2Document = R"(<X>
  <Y>
    <W/>
    <Z> <V/> <V/> <W> <W/> </W> </Z>
    <U/>
  </Y>
  <Y>
    <Z> <W/> </Z>
    <U/>
  </Y>
</X>)";

// The paper's running example query (Figure 3):
// /descendant::Y[child::U]/descendant::W[ancestor::Z/child::V].
inline constexpr std::string_view kFigure3Query =
    "/descendant::Y[child::U]/descendant::W[ancestor::Z/child::V]";

// One routed document's outcome, copied out of the evaluator that routed it.
struct RoutedOutcome {
  Status status;
  std::vector<bool> matched;  // per query
  std::vector<std::vector<baseline::CanonicalItem>> items;  // per query
  // The evaluator that routed the document; compared for identity only.
  const core::MultiQueryEvaluator* worker = nullptr;
};

inline RoutedOutcome CopyOutcome(const core::MultiQueryEvaluator& evaluator) {
  RoutedOutcome out;
  out.status = evaluator.status();
  out.worker = &evaluator;
  for (size_t q = 0; q < evaluator.query_count(); ++q) {
    out.matched.push_back(evaluator.Matched(q));
    out.items.push_back(baseline::CanonicalFromResult(evaluator.Result(q)));
  }
  return out;
}

// Routes `documents` through a core::ParallelRouter with `workers` workers
// (projection on, as the router always runs) and returns their outcomes in
// delivery order; an outcome out of submission order fails the test.
inline std::vector<RoutedOutcome> RouteInParallel(
    const std::vector<core::Query>& queries,
    const std::vector<std::string>& documents, int workers,
    core::EngineOptions options = {}, xml::ParserOptions parser_options = {}) {
  std::vector<RoutedOutcome> outcomes;
  core::ParallelRouter router(
      workers,
      [&](size_t document, const core::MultiQueryEvaluator& evaluator) {
        EXPECT_EQ(document, outcomes.size()) << "outcome out of order";
        outcomes.push_back(CopyOutcome(evaluator));
      },
      options, parser_options);
  for (const core::Query& query : queries) router.AddQuery(query);
  for (const std::string& document : documents) router.Submit(document);
  router.Drain();
  return outcomes;
}

// The sequential production path over the same stream: one
// MultiQueryEvaluator, projection on, a rejected document closed with
// AbortDocument.
inline std::vector<RoutedOutcome> RouteSequentially(
    const std::vector<core::Query>& queries,
    const std::vector<std::string>& documents,
    core::EngineOptions options = {}, xml::ParserOptions parser_options = {}) {
  core::MultiQueryEvaluator evaluator(options);
  for (const core::Query& query : queries) evaluator.AddQuery(query);
  parser_options.projection_filter = evaluator.projection_filter();
  std::vector<RoutedOutcome> outcomes;
  for (const std::string& document : documents) {
    Status status = xml::ParseString(document, &evaluator, parser_options);
    if (!status.ok()) evaluator.AbortDocument(status);
    outcomes.push_back(CopyOutcome(evaluator));
  }
  return outcomes;
}

}  // namespace xaos::test

#endif  // XAOS_TESTS_TEST_UTIL_H_
