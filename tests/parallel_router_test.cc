// ParallelRouter tests: routing a stream of documents through N workers must
// be observationally identical to the sequential production path (one
// MultiQueryEvaluator fed by the parser) and to the brute-force
// matcher — same verdicts and canonical items per document and query — with
// every outcome delivered in submission order. Rejected documents carry
// their own Status and leave their worker reusable, workers run batched
// capture's element elision, and the worker count is clamped before any
// thread starts. The TSan CI job runs this binary.

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "baseline/brute_force_matcher.h"
#include "baseline/compare.h"
#include "core/multi_engine.h"
#include "core/parallel_router.h"
#include "dom/dom_builder.h"
#include "gen/random_workload.h"
#include "gen/xmark_generator.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "xml/sax_parser.h"

namespace xaos {
namespace {

using test::RoutedOutcome;

const char kAxisDoc[] =
    "<a k=\"1\"><b><a><c/></a><d/></b><c/>"
    "<b x=\"y\"><c/><a/><e>text</e></b></a>";

const std::vector<std::string> kAxisExpressions = {
    "//a//c",                    // descendant
    "//c/ancestor::a",           // backward axis
    "/a/b/a/c",                  // child spine (shared automaton)
    "/a/b/a/c",                  // byte-identical repeat (alias)
    "//*[c]",                    // wildcard (always-dispatch)
    "//b[@x]",                   // attribute test
    "//c/following-sibling::a",  // sibling (dense stack)
    "//e[text()='text']",        // text test
    "//b[c]/a | //a[c]",         // union
    "//zzz",                     // label absent: never woken
    "//d/parent::b",             // parent
};

std::vector<core::Query> CompileAll(const std::vector<std::string>& exprs) {
  std::vector<core::Query> queries;
  for (const std::string& expression : exprs) {
    StatusOr<core::Query> query = core::Query::Compile(expression);
    EXPECT_TRUE(query.ok()) << expression << ": " << query.status();
    if (query.ok()) queries.push_back(std::move(*query));
  }
  return queries;
}

// Requires two runs over the same stream to agree document by document.
void ExpectSameOutcomes(const std::vector<RoutedOutcome>& expected,
                        const std::vector<RoutedOutcome>& actual,
                        const std::vector<std::string>& expressions,
                        const std::string& route) {
  ASSERT_EQ(expected.size(), actual.size()) << route;
  for (size_t d = 0; d < expected.size(); ++d) {
    EXPECT_EQ(expected[d].status, actual[d].status)
        << route << " document " << d;
    if (!expected[d].status.ok()) continue;
    for (size_t q = 0; q < expressions.size(); ++q) {
      EXPECT_EQ(expected[d].matched[q], actual[d].matched[q])
          << route << " document " << d << " verdict of " << expressions[q];
      EXPECT_EQ(expected[d].items[q], actual[d].items[q])
          << route << " document " << d << " items of " << expressions[q];
    }
  }
}

// The brute-force matcher's verdicts and items for every query over `xml`,
// disjuncts unioned.
RoutedOutcome BruteForce(const std::vector<core::Query>& queries,
                         const std::string& xml) {
  RoutedOutcome out;
  StatusOr<dom::Document> doc = dom::ParseToDocument(xml);
  EXPECT_TRUE(doc.ok()) << doc.status();
  if (!doc.ok()) return out;
  for (const core::Query& query : queries) {
    bool matched = false;
    std::set<baseline::CanonicalItem> items;
    for (const query::XTree& tree : query.trees()) {
      baseline::BruteForceOutcome outcome =
          baseline::BruteForceMatch(*doc, tree);
      EXPECT_TRUE(outcome.complete) << query.expression();
      matched = matched || outcome.matched;
      items.insert(outcome.items.begin(), outcome.items.end());
    }
    out.matched.push_back(matched);
    out.items.emplace_back(items.begin(), items.end());
  }
  return out;
}

// Routes `documents` sequentially and at 1, 2 and 4 workers (clamped to
// the host's cores) and requires identical outcomes.
void ExpectParallelTransparent(const std::vector<std::string>& expressions,
                               const std::vector<std::string>& documents) {
  const std::vector<core::Query> queries = CompileAll(expressions);
  ASSERT_EQ(queries.size(), expressions.size());
  const std::vector<RoutedOutcome> sequential =
      test::RouteSequentially(queries, documents);
  for (int workers : {1, 2, 4}) {
    ExpectSameOutcomes(sequential,
                       test::RouteInParallel(queries, documents, workers),
                       expressions, "workers=" + std::to_string(workers));
  }
}

TEST(ParallelRouterTest, AxisCoverageMatchesSequentialAndBruteForce) {
  const std::vector<std::string> documents = {
      kAxisDoc, "<a><b><c/></b><d/></a>", kAxisDoc, "<r><zzz/></r>",
      "<a><c/><a><b><c/></b></a></a>"};
  ExpectParallelTransparent(kAxisExpressions, documents);

  const std::vector<core::Query> queries = CompileAll(kAxisExpressions);
  const std::vector<RoutedOutcome> routed =
      test::RouteInParallel(queries, documents, 4);
  ASSERT_EQ(routed.size(), documents.size());
  for (size_t d = 0; d < documents.size(); ++d) {
    const RoutedOutcome expected = BruteForce(queries, documents[d]);
    ASSERT_TRUE(routed[d].status.ok()) << routed[d].status;
    EXPECT_EQ(expected.matched, routed[d].matched) << "document " << d;
    EXPECT_EQ(expected.items, routed[d].items) << "document " << d;
  }
}

TEST(ParallelRouterTest, OutcomesArriveInSubmissionOrder) {
  // One large document first, then small ones: the small documents finish
  // on the other workers long before the large one, and must still wait
  // for it at the turnstile.
  std::string large = "<r>";
  for (int i = 0; i < 2000; ++i) large += "<a><b><c/></b></a>";
  large += "</r>";
  std::vector<std::string> documents = {large};
  for (int i = 0; i < 24; ++i) {
    // Small documents alternate between matching //b/c and not.
    documents.push_back(i % 2 == 0 ? "<r><b><c/></b></r>" : "<r><b/></r>");
  }
  const std::vector<std::string> expressions = {"//b/c", "//a/ancestor::r",
                                                "/r/b"};
  const std::vector<core::Query> queries = CompileAll(expressions);
  const std::vector<RoutedOutcome> sequential =
      test::RouteSequentially(queries, documents);
  for (int workers : {2, 4}) {
    // RouteInParallel fails the test on any outcome out of order.
    const std::vector<RoutedOutcome> routed =
        test::RouteInParallel(queries, documents, workers);
    ExpectSameOutcomes(sequential, routed, expressions,
                       "workers=" + std::to_string(workers));
    ASSERT_EQ(routed.size(), documents.size());
    EXPECT_TRUE(routed[0].matched[1]);
    for (size_t d = 1; d < routed.size(); ++d) {
      EXPECT_EQ(routed[d].matched[0], d % 2 == 1) << "document " << d;
    }
  }
}

TEST(ParallelRouterTest, RejectedDocumentsGetTheirOwnStatus) {
  const std::vector<std::string> expressions = {
      "//b/c", "//c/ancestor::a", "/a/b", "//b[@x]", "//e[text()='t']"};
  const std::vector<core::Query> queries = CompileAll(expressions);
  xml::ParserOptions parser_options;
  parser_options.limits.max_depth = 6;

  const std::string good_a = "<a><b x=\"1\"><c/></b><e>t</e></a>";
  const std::string good_b = "<a><d><b><c/></b></d></a>";
  const std::string malformed = "<a><b><c/></a>";
  const std::string too_deep =
      "<a><b><c><d><e><f><g><h/></g></f></e></d></c></b></a>";
  const std::vector<std::string> documents = {
      good_a, malformed, good_b, good_a, too_deep, good_b,
      good_a, malformed, too_deep, good_b, good_a, good_b};

  for (int workers : {1, 2, 4}) {
    const std::string route = "workers=" + std::to_string(workers);
    const std::vector<RoutedOutcome> routed = test::RouteInParallel(
        queries, documents, workers, core::EngineOptions{}, parser_options);
    ASSERT_EQ(routed.size(), documents.size()) << route;
    for (size_t d = 0; d < documents.size(); ++d) {
      if (documents[d] == malformed) {
        EXPECT_EQ(routed[d].status.code(), StatusCode::kParseError)
            << route << " document " << d << ": " << routed[d].status;
        continue;
      }
      if (documents[d] == too_deep) {
        EXPECT_EQ(routed[d].status.code(), StatusCode::kResourceExhausted)
            << route << " document " << d << ": " << routed[d].status;
        continue;
      }
      ASSERT_TRUE(routed[d].status.ok())
          << route << " document " << d << ": " << routed[d].status;
      const RoutedOutcome expected = BruteForce(queries, documents[d]);
      EXPECT_EQ(expected.matched, routed[d].matched)
          << route << " document " << d;
      EXPECT_EQ(expected.items, routed[d].items) << route << " document " << d;
    }
    if (workers == 1) {
      // One worker: the evaluator that aborted serves the next document.
      EXPECT_EQ(routed[1].worker, routed[2].worker);
      EXPECT_EQ(routed[4].worker, routed[5].worker);
    }
  }
}

// Documents that reach no engine between documents that do: each worker's
// engines skip their reset and finalization and must still answer exactly
// like the sequential stack and the brute-force matcher, under every
// per-engine mode.
TEST(ParallelRouterTest, UntouchedEnginesBetweenReachedDocuments) {
  const std::vector<std::string> expressions = {"//a/b", "//c[a]",
                                                "//b/ancestor::a"};
  const std::vector<core::Query> queries = CompileAll(expressions);
  const std::string reached = "<r><a><b/><b/></a><c><a/></c></r>";
  const std::string untouched = "<r><x><y/></x><y/></r>";
  const std::string malformed = "<r><a><b/></a><c><a/></x></r>";
  const std::string crowded =
      "<r><a><a><a><a><a><a><a><a><b/></a></a></a></a></a></a></a></a></r>";
  const std::vector<std::string> documents = {
      reached, untouched, malformed, untouched, crowded, untouched,
      reached, untouched, untouched, reached, crowded, untouched};

  std::atomic<int> sunk{0};
  std::vector<core::EngineOptions> modes(4);
  for (core::EngineOptions& mode : modes) mode.enable_shared_index = false;
  modes[1].stop_after_confirmed_match = true;
  modes[2].max_live_structures = 6;
  modes[3].early_item_sink = [&sunk](const core::OutputItem&) { ++sunk; };
  for (size_t m = 0; m < modes.size(); ++m) {
    const std::string route = "mode " + std::to_string(m);
    const std::vector<RoutedOutcome> sequential =
        test::RouteSequentially(queries, documents, modes[m]);
    const std::vector<RoutedOutcome> routed =
        test::RouteInParallel(queries, documents, 2, modes[m]);
    ExpectSameOutcomes(sequential, routed, expressions, route);
    for (size_t d = 0; d < documents.size(); ++d) {
      if (documents[d] == malformed) {
        EXPECT_EQ(routed[d].status.code(), StatusCode::kParseError) << route;
        continue;
      }
      if (m == 2 && documents[d] == crowded) {
        EXPECT_EQ(routed[d].status.code(), StatusCode::kResourceExhausted)
            << route;
        continue;
      }
      ASSERT_TRUE(routed[d].status.ok())
          << route << " document " << d << ": " << routed[d].status;
      const RoutedOutcome expected = BruteForce(queries, documents[d]);
      EXPECT_EQ(expected.matched, routed[d].matched)
          << route << " document " << d;
      if (m != 1) {  // stop_after_confirmed_match reports no items
        EXPECT_EQ(expected.items, routed[d].items)
            << route << " document " << d;
      }
    }
  }
  EXPECT_GT(sunk.load(), 0);
}

TEST(ParallelRouterTest, WorkersElide) {
  // Engine-backed, text-free queries without wildcards or sibling axes:
  // elision is exact, so <x> and <y> get no records.
  const std::vector<std::string> expressions = {"//c/ancestor::a",
                                                "//b[c]"};
  const std::vector<core::Query> queries = CompileAll(expressions);
  core::EngineOptions options;
  options.enable_shared_index = false;
  std::vector<std::string> documents;
  for (int i = 0; i < 8; ++i) {
    documents.push_back("<a><x><y/><b><y><c/></y></b></x><c/><x/></a>");
  }

  core::ParallelRouter router(
      4, [](size_t, const core::MultiQueryEvaluator& evaluator) {
        EXPECT_TRUE(evaluator.status().ok()) << evaluator.status();
        EXPECT_EQ((std::vector<size_t>{0}), evaluator.MatchedQueries());
      },
      options);
  for (const core::Query& query : queries) router.AddQuery(query);
  for (const std::string& document : documents) router.Submit(document);
  router.Drain();
  EXPECT_GT(router.events_elided(), 0u);
  for (size_t w = 0; w < router.worker_count(); ++w) {
    EXPECT_EQ(router.evaluator(w).shared_subscription_count(), 0u);
  }
}

TEST(ParallelRouterTest, WorkerCountIsClampedBeforeThreadsStart) {
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  auto ignore = [](size_t, const core::MultiQueryEvaluator&) {};
  // No document is submitted, so none of these starts a thread.
  EXPECT_EQ(core::ParallelRouter(1'000'000, ignore).worker_count(), cores);
  EXPECT_EQ(core::ParallelRouter(0, ignore).worker_count(), 1u);
  EXPECT_EQ(core::ParallelRouter(-3, ignore).worker_count(), 1u);
  EXPECT_EQ(core::ParallelRouter(1, ignore).worker_count(), 1u);
}

TEST(ParallelRouterTest, MatchedQueriesAscending) {
  const std::vector<std::string> expressions = {"//b/c", "//zzz", "//a",
                                                "//d", "//b/c"};
  const std::vector<core::Query> queries = CompileAll(expressions);
  std::vector<std::vector<size_t>> matched;
  {
    core::ParallelRouter router(
        2, [&](size_t, const core::MultiQueryEvaluator& evaluator) {
          matched.push_back(evaluator.MatchedQueries());
        });
    for (const core::Query& query : queries) router.AddQuery(query);
    router.Submit("<a><b><c/></b><d/></a>");
    router.Submit("<r><d/></r>");
  }  // the destructor drains
  ASSERT_EQ(matched.size(), 2u);
  EXPECT_EQ((std::vector<size_t>{0, 2, 3, 4}), matched[0]);
  EXPECT_EQ((std::vector<size_t>{3}), matched[1]);
}

// Random workloads, cross-producted as in multi_engine_test: every
// generated query over every generated document, sequential vs routed at
// 1/2/4 workers.
class RandomParallelRouterTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomParallelRouterTest, ParallelTransparent) {
  uint64_t seed = GetParam();
  gen::RandomQueryOptions query_options;
  gen::RandomDocOptions doc_options;
  doc_options.target_elements = 300;
  doc_options.max_noise_depth = 6;

  std::vector<std::string> expressions;
  std::vector<std::string> documents;
  for (uint64_t i = 0; i < 4; ++i) {
    auto workload =
        gen::GenerateWorkload(query_options, doc_options, seed * 16 + i);
    ASSERT_TRUE(workload.ok()) << workload.status();
    expressions.push_back(workload->expression);
    documents.push_back(workload->document);
  }
  ExpectParallelTransparent(expressions, documents);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomParallelRouterTest,
                         ::testing::Range<uint64_t>(0, 12));

TEST(ParallelRouterTest, XMarkSmoke) {
  std::vector<std::string> documents;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    gen::XMarkOptions doc_options;
    doc_options.scale = 0.002;
    doc_options.seed = seed;
    documents.push_back(gen::GenerateXMark(doc_options));
  }
  ExpectParallelTransparent(
      {"/site/regions//item/name", "//person/name", "//category/description",
       "//item[payment]/name", "//zzz_absent"},
      documents);
}

}  // namespace
}  // namespace xaos
