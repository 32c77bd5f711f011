// Earliest answering: differential tests asserting that emitting each
// output item at the earliest provable event (EngineOptions::
// enable_earliest_emission, with eager structure reclamation) leaves the
// final QueryResult byte-identical — same document order, same duplicates
// policy, same captured subtrees — to the collect-at-end engine, across
// handpicked axis corpora, random workloads, chunked feeds and the
// parallel router; plus bounded-memory assertions that peak buffered state
// tracks open-path depth rather than node count.

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/multi_engine.h"
#include "core/parallel_router.h"
#include "core/xaos_engine.h"
#include "gen/random_workload.h"
#include "gtest/gtest.h"
#include "query/xtree_builder.h"
#include "test_util.h"
#include "xml/sax_parser.h"

namespace xaos {
namespace {

// Renders a QueryResult into a strict byte-comparison form: matched flag
// plus every item's identity, document position and payload, in result
// order (NOT canonical/sorted order — earliest emission must preserve
// document order exactly).
std::vector<std::string> Signature(const core::QueryResult& result) {
  std::vector<std::string> out;
  out.push_back(result.matched ? "matched" : "unmatched");
  for (const core::OutputItem& item : result.items) {
    out.push_back(item.info.ToString() + "/id=" +
                  std::to_string(item.info.id) + "/name=" + item.info.name +
                  "/value=" + item.info.value +
                  "/capture=" + item.captured_xml);
  }
  return out;
}

// Evaluates `expression` over `xml` twice — earliest emission off (the
// collect-at-end oracle) and on — and requires byte-identical results.
// Extra option toggles (capture, boolean submatchings, ...) come in via
// `base`, applied to both runs.
void ExpectTransparent(const std::string& expression, const std::string& xml,
                       core::EngineOptions base = {}) {
  core::EngineOptions off = base;
  off.enable_earliest_emission = false;
  core::EngineOptions on = base;
  on.enable_earliest_emission = true;

  StatusOr<core::QueryResult> oracle =
      core::EvaluateStreaming(expression, xml, off);
  ASSERT_TRUE(oracle.ok()) << expression << ": " << oracle.status();
  StatusOr<core::QueryResult> earliest =
      core::EvaluateStreaming(expression, xml, on);
  ASSERT_TRUE(earliest.ok()) << expression << ": " << earliest.status();
  EXPECT_EQ(Signature(*oracle), Signature(*earliest)) << expression;
}

// Axis corpus exercising every structural shape the anchoring logic
// handles: forward chains, backward pulls, predicates (counted subtrees),
// unions, wildcards, self-recursion and sibling constraints (which block
// reclamation but must not change results).
const char* const kAxisCorpus[] = {
    "//a//c",
    "//c/ancestor::a",
    "//c/ancestor::b/parent::a",
    "//a[b]//c",
    "//b[c]/a | //a[c]",
    "//c/ancestor::b[parent::a]",
    "//a/descendant::a",
    "//b/ancestor-or-self::b",
    "/a/b/a/c",
    "//*[c]",
    "//c/..",
    "//c/following-sibling::a",
    "//b/preceding-sibling::c",
    "//a[c]/b",
    "//b[@x]",
    "//e[text()='text']",
};

const char kAxisDocument[] =
    "<a k=\"1\"><b><a><c/></a><d/></b><c/>"
    "<b x=\"y\"><c/><a/><e>text</e></b>"
    "<a><b><c/><c/></b><b/></a></a>";

TEST(EarliestEmissionTest, AxisCorpusTransparent) {
  for (const char* expression : kAxisCorpus) {
    ExpectTransparent(expression, kAxisDocument);
  }
}

TEST(EarliestEmissionTest, Figure2Transparent) {
  ExpectTransparent(std::string(test::kFigure3Query),
                    std::string(test::kFigure2Document));
  ExpectTransparent("//W[ancestor::Z/child::V]",
                    std::string(test::kFigure2Document));
  ExpectTransparent("//Y[child::U]", std::string(test::kFigure2Document));
}

TEST(EarliestEmissionTest, CaptureModeTransparent) {
  core::EngineOptions capture;
  capture.capture_output_subtrees = true;
  // Captured subtrees are only complete at the output element's close, so
  // capture mode defers early emission to the close event — results must
  // still match the oracle byte for byte, including nested outputs where
  // the outer capture finishes after the inner one was emitted.
  ExpectTransparent("//a//c", kAxisDocument, capture);
  ExpectTransparent("//b", kAxisDocument, capture);
  ExpectTransparent("//a[b]//c", kAxisDocument, capture);
  ExpectTransparent("//x", "<r><x><x>inner</x></x></r>", capture);
}

TEST(EarliestEmissionTest, BooleanSubmatchingsOffTransparent) {
  core::EngineOptions stored;
  stored.enable_boolean_submatchings = false;
  for (const char* expression : kAxisCorpus) {
    ExpectTransparent(expression, kAxisDocument, stored);
  }
}

TEST(EarliestEmissionTest, StopAfterConfirmedMatchTransparent) {
  core::EngineOptions boolean_only;
  boolean_only.stop_after_confirmed_match = true;
  // The inert fast path must not leak early-emitted items into the
  // boolean-only result (matched == true, items empty on both sides).
  ExpectTransparent("//a//c", kAxisDocument, boolean_only);
  core::EngineOptions on = boolean_only;
  on.enable_earliest_emission = true;
  StatusOr<core::QueryResult> result =
      core::EvaluateStreaming("//a//c", kAxisDocument, on);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->matched);
  EXPECT_TRUE(result->items.empty());
}

TEST(EarliestEmissionTest, RandomWorkloadsTransparent) {
  gen::RandomQueryOptions query_options;
  gen::RandomDocOptions doc_options;
  doc_options.target_elements = 500;
  doc_options.full_embed_probability = 0.05;
  doc_options.partial_embed_probability = 0.08;
  doc_options.max_noise_depth = 7;
  for (uint64_t seed = 0; seed < 60; ++seed) {
    auto workload = gen::GenerateWorkload(query_options, doc_options, seed);
    ASSERT_TRUE(workload.ok()) << workload.status();
    ExpectTransparent(workload->expression, workload->document);
  }
}

TEST(EarliestEmissionTest, RandomSiblingWorkloadsTransparent) {
  // Sibling axes mark x-nodes reclaim-blocked; the differential still has
  // to hold on workloads that mix them with backward axes.
  gen::RandomQueryOptions query_options;
  query_options.allow_siblings = true;
  gen::RandomDocOptions doc_options;
  doc_options.target_elements = 400;
  doc_options.max_noise_depth = 6;
  for (uint64_t seed = 100; seed < 130; ++seed) {
    auto workload = gen::GenerateWorkload(query_options, doc_options, seed);
    ASSERT_TRUE(workload.ok()) << workload.status();
    ExpectTransparent(workload->expression, workload->document);
  }
}

// Feeds `xml` to a StreamingEvaluator through SaxParser::Feed in
// `chunk`-byte pieces; returns the result.
core::QueryResult EvaluateChunked(const core::Query& query,
                                  const std::string& xml, size_t chunk,
                                  core::EngineOptions options) {
  core::StreamingEvaluator evaluator(query, options);
  xml::SaxParser parser(&evaluator);
  std::string_view rest = xml;
  Status status;
  while (!rest.empty() && status.ok()) {
    size_t n = std::min(chunk, rest.size());
    status = parser.Feed(rest.substr(0, n));
    rest.remove_prefix(n);
  }
  if (status.ok()) status = parser.Finish();
  EXPECT_TRUE(status.ok()) << status;
  EXPECT_TRUE(evaluator.status().ok()) << evaluator.status();
  return evaluator.Result();
}

TEST(EarliestEmissionTest, ChunkedFeedTransparent) {
  // Earliest emission decides per SAX event; chunk boundaries inside tags
  // and text must not perturb the emission points or the final bytes.
  core::EngineOptions off;
  off.enable_earliest_emission = false;
  core::EngineOptions on;
  on.enable_earliest_emission = true;
  const std::string xml = kAxisDocument;
  for (const char* expression :
       {"//a//c", "//c/ancestor::a", "//b[c]/a | //a[c]", "//*[c]"}) {
    StatusOr<core::Query> query = core::Query::Compile(expression);
    ASSERT_TRUE(query.ok()) << query.status();
    core::QueryResult oracle = EvaluateChunked(*query, xml, xml.size(), off);
    for (size_t chunk : {size_t{1}, size_t{7}, size_t{64}}) {
      core::QueryResult chunked = EvaluateChunked(*query, xml, chunk, on);
      EXPECT_EQ(Signature(oracle), Signature(chunked))
          << expression << " chunk=" << chunk;
    }
  }
}

TEST(EarliestEmissionTest, ParallelRouterTransparent) {
  const std::vector<std::string> expressions = {
      "//a//c", "//c/ancestor::a", "/a/b/a/c",      "//*[c]",
      "//b[@x]", "//c/..",         "//b[c]/a | //a[c]",
  };
  std::vector<core::Query> queries;
  for (const std::string& expression : expressions) {
    StatusOr<core::Query> query = core::Query::Compile(expression);
    ASSERT_TRUE(query.ok()) << expression << ": " << query.status();
    queries.push_back(std::move(*query));
  }

  // Oracle: sequential evaluator with earliest emission off.
  core::EngineOptions off;
  off.enable_earliest_emission = false;
  core::MultiQueryEvaluator sequential(off);
  for (const core::Query& query : queries) sequential.AddQuery(query);
  ASSERT_TRUE(xml::ParseString(kAxisDocument, &sequential).ok());
  std::vector<std::vector<std::string>> expected;
  for (size_t q = 0; q < queries.size(); ++q) {
    expected.push_back(Signature(sequential.Result(q)));
  }

  core::EngineOptions on;
  on.enable_earliest_emission = true;
  for (int workers : {1, 2, 4}) {
    int routed = 0;
    core::ParallelRouter router(
        workers,
        [&](size_t, const core::MultiQueryEvaluator& evaluator) {
          ++routed;
          ASSERT_TRUE(evaluator.status().ok()) << evaluator.status();
          for (size_t q = 0; q < queries.size(); ++q) {
            EXPECT_EQ(sequential.Matched(q), evaluator.Matched(q))
                << expressions[q] << " at " << workers << " workers";
            EXPECT_EQ(expected[q], Signature(evaluator.Result(q)))
                << expressions[q] << " at " << workers << " workers";
          }
        },
        on);
    for (const core::Query& query : queries) router.AddQuery(query);
    // Several copies in flight at once, so every worker routes some.
    for (int d = 0; d < 8; ++d) router.Submit(kAxisDocument);
    router.Drain();
    EXPECT_EQ(routed, 8);
  }
}

// A wide document: `count` closed <b><c/></b> subtrees at each of `depth`
// levels of an <a> spine. Total elements grow with depth*count while the
// open-path state at any moment is O(depth).
std::string WideDeepDocument(int depth, int count) {
  std::string xml;
  for (int d = 0; d < depth; ++d) {
    xml += "<a>";
    for (int i = 0; i < count; ++i) xml += "<b><c/></b>";
  }
  for (int d = 0; d < depth; ++d) xml += "</a>";
  return xml;
}

TEST(EarliestEmissionTest, PeakBoundedByOpenDepthNotNodeCount) {
  // //b/c over 20 levels x 100 subtrees = 2000 matches. With earliest
  // emission, every closed <b><c/></b> is emitted and reclaimed at its
  // close once the root is anchored, so the buffered-candidate peak is a
  // small constant; without it, all 2000 c-structures (plus their parents)
  // stay buffered until end of document.
  const std::string xml = WideDeepDocument(20, 100);
  auto trees = query::CompileToXTrees("//b/c");
  ASSERT_TRUE(trees.ok());

  core::EngineOptions on;
  on.enable_earliest_emission = true;
  core::XaosEngine earliest(&trees->front(), on);
  ASSERT_TRUE(xml::ParseString(xml, &earliest).ok());

  core::EngineOptions off;
  off.enable_earliest_emission = false;
  core::XaosEngine buffered(&trees->front(), off);
  ASSERT_TRUE(xml::ParseString(xml, &buffered).ok());

  ASSERT_EQ(earliest.result().items.size(), 2000u);
  ASSERT_EQ(buffered.result().items.size(), 2000u);

  EXPECT_GT(buffered.stats().structures_live_peak, 1000u);
  EXPECT_LT(earliest.stats().structures_live_peak, 64u);
  EXPECT_LT(earliest.stats().structure_memory.peak_bytes,
            buffered.stats().structure_memory.peak_bytes / 10);
  EXPECT_EQ(earliest.stats().candidates_emitted_early, 2000u);
  EXPECT_GE(earliest.stats().candidates_reclaimed, 2000u);
  EXPECT_EQ(buffered.stats().candidates_reclaimed, 0u);
}

TEST(EarliestEmissionTest, DeepRecursionPeakTracksOpenDepth) {
  // Self-recursive query over a deep spine of non-matching <x> elements
  // carrying closed <a><a/></a> teeth at every level. Each tooth is
  // confirmed at its close and reclaimed, so the buffered peak tracks the
  // open spine, not the 2000 matches. (An *open* ancestor can never be
  // confirmed — confirmation requires the element closed — so matches
  // whose proof chain runs through a still-open element legitimately wait;
  // this document keeps every proof chain closed.)
  std::string xml;
  for (int d = 0; d < 8; ++d) {
    xml += "<x>";
    for (int i = 0; i < 250; ++i) xml += "<a><a/></a>";
  }
  for (int d = 0; d < 8; ++d) xml += "</x>";
  auto trees = query::CompileToXTrees("//a//a");
  ASSERT_TRUE(trees.ok());

  core::EngineOptions on;
  on.enable_earliest_emission = true;
  core::XaosEngine engine(&trees->front(), on);
  ASSERT_TRUE(xml::ParseString(xml, &engine).ok());
  ASSERT_EQ(engine.result().items.size(), 2000u);
  EXPECT_LT(engine.stats().structures_live_peak, 64u);
}

TEST(EarliestEmissionTest, SinkDeliversExactlyTheFinalItems) {
  const std::string xml = WideDeepDocument(4, 50);
  core::EngineOptions on;
  on.enable_earliest_emission = true;
  std::vector<core::ElementId> sink_ids;
  on.early_item_sink = [&sink_ids](const core::OutputItem& item) {
    sink_ids.push_back(item.info.id);
  };
  StatusOr<core::QueryResult> result =
      core::EvaluateStreaming("//b/c", xml, on);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->items.size(), 200u);
  // Every item reached the sink exactly once, in the same (document)
  // order as the final result.
  EXPECT_EQ(sink_ids, result->ItemIds());
}

TEST(EarliestEmissionTest, OutputTuplesSingletonFallback) {
  // After reclamation the matching graph is gone, so tuple enumeration
  // falls back to singleton tuples synthesized from the (single-output)
  // result — same elements, complete.
  const std::string xml = WideDeepDocument(3, 20);
  auto trees = query::CompileToXTrees("//b/c");
  ASSERT_TRUE(trees.ok());
  core::EngineOptions on;
  on.enable_earliest_emission = true;
  core::XaosEngine engine(&trees->front(), on);
  ASSERT_TRUE(xml::ParseString(xml, &engine).ok());
  ASSERT_GT(engine.stats().candidates_reclaimed, 0u);

  core::TupleEnumeration tuples = engine.OutputTuples();
  EXPECT_TRUE(tuples.complete);
  ASSERT_EQ(tuples.tuples.size(), engine.result().items.size());
  for (size_t i = 0; i < tuples.tuples.size(); ++i) {
    ASSERT_EQ(tuples.tuples[i].size(), 1u);
    EXPECT_EQ(tuples.tuples[i][0].id, engine.result().items[i].info.id);
  }
}

TEST(EarliestEmissionTest, EngineReusableAcrossDocuments) {
  // Early-emission state (emitted ids, pending early items) must reset per
  // document, including after a non-matching document.
  auto trees = query::CompileToXTrees("//b/c");
  ASSERT_TRUE(trees.ok());
  core::EngineOptions on;
  on.enable_earliest_emission = true;
  core::XaosEngine engine(&trees->front(), on);

  ASSERT_TRUE(xml::ParseString("<a><b><c/></b><b><c/></b></a>", &engine).ok());
  EXPECT_EQ(engine.result().items.size(), 2u);
  ASSERT_TRUE(xml::ParseString("<a><b/></a>", &engine).ok());
  EXPECT_FALSE(engine.result().matched);
  EXPECT_TRUE(engine.result().items.empty());
  ASSERT_TRUE(xml::ParseString("<a><b><c/></b></a>", &engine).ok());
  EXPECT_EQ(engine.result().items.size(), 1u);
}

}  // namespace
}  // namespace xaos
