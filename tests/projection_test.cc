// Document projection tests: static analysis (ProjectionSpec), the
// parser-side skip scanner, and the end-to-end guarantee that projection
// never changes results — for the streaming evaluator, the multi-query
// evaluator, and the parallel fleet — while enforcing parser limits and
// surviving chunk boundaries and aborts inside skipped regions.

#include <string>
#include <string_view>
#include <vector>

#include "baseline/compare.h"
#include "core/multi_engine.h"
#include "core/parallel_fleet.h"
#include "gen/random_workload.h"
#include "gen/xmark_generator.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "query/projection.h"
#include "query/xtree_builder.h"
#include "xml/sax_parser.h"

namespace xaos {
namespace {

using baseline::CanonicalItem;
using query::ProjectionSpec;

// --- static analysis --------------------------------------------------------

ProjectionSpec AnalyzeExpression(const std::string& expression) {
  auto trees = query::CompileToXTrees(expression);
  EXPECT_TRUE(trees.ok()) << trees.status();
  if (!trees.ok()) return ProjectionSpec::KeepAll("compile failure");
  return ProjectionSpec::Analyze(*trees);
}

TEST(ProjectionSpecTest, RootedChildPath) {
  ProjectionSpec spec = AnalyzeExpression("/site/catgraph/edge");
  ASSERT_FALSE(spec.keep_all) << spec.keep_all_reason;
  EXPECT_EQ(spec.ToString(), "levels=3 [site; catgraph; edge]");
  EXPECT_EQ(spec.seed_symbols.size(), 1u);  // only the level-1 name seeds
}

TEST(ProjectionSpecTest, AnchoredDescendantBecomesPortal) {
  ProjectionSpec spec = AnalyzeExpression("/a//b");
  ASSERT_FALSE(spec.keep_all) << spec.keep_all_reason;
  // `a` keeps its whole subtree (".."): the descendant step anchors there.
  EXPECT_EQ(spec.ToString(), "levels=1 [a..]");
}

TEST(ProjectionSpecTest, UnanchoredDescendantKeepsAll) {
  ProjectionSpec spec = AnalyzeExpression("//a");
  EXPECT_TRUE(spec.keep_all);
  EXPECT_NE(spec.keep_all_reason.find("unanchored"), std::string::npos)
      << spec.keep_all_reason;
}

TEST(ProjectionSpecTest, SiblingAxesKeepAll) {
  ProjectionSpec spec = AnalyzeExpression("/a/b/following-sibling::c");
  EXPECT_TRUE(spec.keep_all);
  EXPECT_NE(spec.keep_all_reason.find("sibling"), std::string::npos)
      << spec.keep_all_reason;
}

TEST(ProjectionSpecTest, FixedDepthWildcard) {
  ProjectionSpec spec = AnalyzeExpression("/a/*/c");
  ASSERT_FALSE(spec.keep_all) << spec.keep_all_reason;
  ASSERT_EQ(spec.levels.size(), 3u);
  EXPECT_FALSE(spec.levels[0].any_name);
  EXPECT_TRUE(spec.levels[1].any_name);
  EXPECT_FALSE(spec.levels[1].any_keep_subtree);
  EXPECT_EQ(spec.ToString(), "levels=3 [a; *; c]");
}

TEST(ProjectionSpecTest, TextAndAttributeNeeds) {
  util::Symbol b = util::SymbolTable::Global().Intern("b");
  ProjectionSpec text_spec = AnalyzeExpression("/a/b/text()");
  ASSERT_FALSE(text_spec.keep_all) << text_spec.keep_all_reason;
  ASSERT_EQ(text_spec.levels.size(), 2u);
  EXPECT_TRUE(text_spec.levels[1].names.at(b).needs_text);
  EXPECT_FALSE(text_spec.levels[1].names.at(b).needs_attributes);

  ProjectionSpec attr_spec = AnalyzeExpression("/a/b/@id");
  ASSERT_FALSE(attr_spec.keep_all) << attr_spec.keep_all_reason;
  ASSERT_EQ(attr_spec.levels.size(), 2u);
  EXPECT_TRUE(attr_spec.levels[1].names.at(b).needs_attributes);
}

TEST(ProjectionSpecTest, BackwardAxisDegradesSoundly) {
  // The parent-axis x-node becomes parentless after dag reversal and is
  // re-anchored under Root with a descendant edge — keep-all, never wrong.
  ProjectionSpec spec = AnalyzeExpression("/a/b/parent::a");
  EXPECT_TRUE(spec.keep_all);
}

TEST(ProjectionSpecTest, UnionAcrossQueries) {
  ProjectionSpec spec = AnalyzeExpression("/a/b");
  spec.UnionWith(AnalyzeExpression("/a/c//d"));
  ASSERT_FALSE(spec.keep_all) << spec.keep_all_reason;
  EXPECT_EQ(spec.ToString(), "levels=2 [a; b,c..]");

  spec.UnionWith(AnalyzeExpression("//e"));
  EXPECT_TRUE(spec.keep_all);  // keep-all absorbs
}

TEST(ProjectionSpecTest, SubtreeCaptureKeepsAll) {
  auto query = core::Query::Compile("/a/b");
  ASSERT_TRUE(query.ok());
  core::EngineOptions options;
  options.capture_output_subtrees = true;
  core::StreamingEvaluator evaluator(*query, options);
  EXPECT_TRUE(evaluator.projection_spec().keep_all);
}

// --- end-to-end differential helpers ---------------------------------------

struct RunOutcome {
  Status status;  // first failure: parse, limit, or engine
  bool matched = false;
  std::vector<CanonicalItem> items;
};

RunOutcome RunStreaming(const std::string& expression, const std::string& xml,
                        bool projection, size_t chunk_size = 0,
                        xml::ParserLimits limits = {}) {
  RunOutcome out;
  auto query = core::Query::Compile(expression);
  if (!query.ok()) {
    out.status = query.status();
    return out;
  }
  core::StreamingEvaluator evaluator(*query);
  xml::ParserOptions options;
  options.limits = limits;
  if (projection) options.projection_filter = evaluator.projection_filter();
  xml::SaxParser parser(&evaluator, options);
  Status status = Status::Ok();
  if (chunk_size == 0) {
    status = parser.Feed(xml);
  } else {
    std::string_view view(xml);
    for (size_t i = 0; i < view.size() && status.ok(); i += chunk_size) {
      status = parser.Feed(view.substr(i, chunk_size));
    }
  }
  if (status.ok()) status = parser.Finish();
  if (!status.ok()) {
    evaluator.AbortDocument(status);
    out.status = status;
    return out;
  }
  out.status = evaluator.status();
  core::QueryResult result = evaluator.Result();
  out.matched = result.matched;
  out.items = baseline::CanonicalFromResult(result);
  return out;
}

// Projection must be invisible whenever the unprojected parse succeeds:
// same verdict, same items (which encodes node-id/ordinal parity), in
// one-shot and tiny-chunk feeds alike.
void ExpectProjectionInvisible(const std::string& expression,
                               const std::string& xml) {
  RunOutcome off = RunStreaming(expression, xml, /*projection=*/false);
  ASSERT_TRUE(off.status.ok())
      << off.status << " for " << expression << " over " << xml;
  for (size_t chunk : {size_t{0}, size_t{1}, size_t{7}}) {
    RunOutcome on = RunStreaming(expression, xml, /*projection=*/true, chunk);
    EXPECT_TRUE(on.status.ok())
        << on.status << " (chunk=" << chunk << ") for " << expression;
    EXPECT_EQ(on.matched, off.matched)
        << expression << " over " << xml << " chunk=" << chunk;
    EXPECT_EQ(on.items, off.items)
        << expression << " over " << xml << " chunk=" << chunk;
  }
}

TEST(ProjectionDifferentialTest, AxisCorpus) {
  const std::string doc = "<a><b><a><c/></a></b><c/><b><c/><a/></b></a>";
  for (const char* expression : {
           "/a/b/a/c",
           "/a/c",
           "/a/b//c",
           "/a/*/a",
           "/a/b/a//c",
           "//a//c",  // keep-all: must still agree
           "//c/ancestor::a",
           "/a/b[c]/a | /a/c",
           "/a/d/e",  // no match: everything below /a/d skippable
       }) {
    ExpectProjectionInvisible(expression, doc);
  }
}

TEST(ProjectionDifferentialTest, SkippedRegionContents) {
  // Constructs inside skipped subtrees that a naive scanner would trip on:
  // markup in CDATA/comments/PIs, '>' in attribute values, entity refs,
  // nested same-name elements, whitespace-only runs, self-closing roots.
  for (const char* doc : {
           "<doc><skip>text &amp; more<inner>x</inner></skip><keep>v</keep>"
           "</doc>",
           "<doc><skip><![CDATA[</skip><oops>]]></skip><keep>v</keep></doc>",
           "<doc><skip><!-- <skip> </skip> --></skip><keep>v</keep></doc>",
           "<doc><skip><?pi data > more?></skip><keep>v</keep></doc>",
           "<doc><skip/><keep>v</keep></doc>",
           "<doc><skip att=\"a>b\"><inner a='1' b='2'/></skip>"
           "<keep attr=\"z\">v</keep></doc>",
           "<doc><skip><skip><skip/></skip></skip><keep>v</keep></doc>",
           "<doc><skip>  <i/>  </skip><keep>v</keep></doc>",
           "<doc><skip>&#32;&#x20;</skip><keep>v</keep></doc>",
           "<doc><skip>a<![CDATA[b]]>c</skip><keep>v</keep></doc>",
           "<doc>pre<skip>s</skip>mid<keep>v</keep>post</doc>",
       }) {
    for (const char* expression :
         {"/doc/keep", "/doc/keep/text()", "/doc/keep/@attr", "/doc//keep"}) {
      ExpectProjectionInvisible(expression, doc);
    }
  }
}

TEST(ProjectionDifferentialTest, WatermarkKeepsPortalSubtrees) {
  // `k` is a portal (keep_subtree): everything below any `k` stays, while
  // `s` subtrees at the same depth are skipped — including between two kept
  // `k` siblings, which exercises watermark replacement.
  const std::string doc =
      "<a><k><x/><y><x/></y></k><s><x/></s><k><q><x/></q></k><s/></a>";
  ExpectProjectionInvisible("/a/k//x", doc);
  ExpectProjectionInvisible("/a/k//x | /a/k", doc);
}

TEST(ProjectionDifferentialTest, RandomWorkloads) {
  gen::RandomQueryOptions query_options;
  gen::RandomDocOptions doc_options;
  doc_options.target_elements = 400;
  doc_options.max_noise_depth = 7;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    auto workload = gen::GenerateWorkload(query_options, doc_options, seed);
    ASSERT_TRUE(workload.ok()) << workload.status();
    // The generated expression itself (anchored at "//": keep-all) plus
    // rooted probes that actually skip on these documents.
    for (const char* expression :
         {"", "/*/A", "/*/A//B", "/*/*/C", "/*/*//D", "/*/*/*/E"}) {
      std::string expr = *expression != '\0' ? expression
                                             : workload->expression;
      ExpectProjectionInvisible(expr, workload->document);
    }
  }
}

// --- multi-query and parallel configurations --------------------------------

std::vector<std::string> XMarkQueries() {
  return {
      "/site/catgraph/edge",
      "/site/categories/category/name",
      "/site/people/person/address/city",
      "/site/regions//item/name",
      "/site/closed_auctions/closed_auction/price",
  };
}

TEST(ProjectionMultiQueryTest, MatchesUnprojectedEvaluator) {
  std::string doc = gen::GenerateXMark({.scale = 0.002, .seed = 7});
  std::vector<std::string> expressions = XMarkQueries();

  core::MultiQueryEvaluator with, without;
  for (const std::string& expression : expressions) {
    auto query = core::Query::Compile(expression);
    ASSERT_TRUE(query.ok()) << query.status();
    with.AddQuery(*query);
    without.AddQuery(*query);
  }
  xml::ParserOptions options;
  options.projection_filter = with.projection_filter();
  ASSERT_FALSE(with.projection_spec().keep_all)
      << with.projection_spec().keep_all_reason;
  ASSERT_TRUE(xml::ParseString(doc, &with, options).ok());
  ASSERT_TRUE(xml::ParseString(doc, &without).ok());

  bool any_matched = false;
  for (size_t q = 0; q < expressions.size(); ++q) {
    EXPECT_EQ(with.Matched(q), without.Matched(q)) << expressions[q];
    any_matched |= without.Matched(q);
    EXPECT_EQ(baseline::CanonicalFromResult(with.Result(q)),
              baseline::CanonicalFromResult(without.Result(q)))
        << expressions[q];
  }
  EXPECT_TRUE(any_matched);  // the XMark probes are not vacuous

  // The evaluators are reusable: a second document through the same filter.
  std::string doc2 = gen::GenerateXMark({.scale = 0.001, .seed = 8});
  ASSERT_TRUE(xml::ParseString(doc2, &with, options).ok());
  ASSERT_TRUE(xml::ParseString(doc2, &without).ok());
  for (size_t q = 0; q < expressions.size(); ++q) {
    EXPECT_EQ(baseline::CanonicalFromResult(with.Result(q)),
              baseline::CanonicalFromResult(without.Result(q)))
        << expressions[q];
  }
}

TEST(ProjectionMultiQueryTest, ZeroQueriesSkipsEverything) {
  // An empty union is keep-nothing: the whole document (even the root) is
  // skipped, and the parse still succeeds.
  core::MultiQueryEvaluator evaluator;
  xml::ParserOptions options;
  options.projection_filter = evaluator.projection_filter();
  ASSERT_FALSE(evaluator.projection_spec().keep_all);
  EXPECT_TRUE(evaluator.projection_spec().levels.empty());
  EXPECT_TRUE(
      xml::ParseString("<a><b>t</b><!-- c --></a>", &evaluator, options).ok());
  EXPECT_TRUE(evaluator.status().ok());
}

TEST(ProjectionMultiQueryTest, KeepAllQueryDisablesSkipping) {
  core::MultiQueryEvaluator evaluator;
  auto rooted = core::Query::Compile("/site/catgraph/edge");
  auto anchored = core::Query::Compile("//person");
  ASSERT_TRUE(rooted.ok() && anchored.ok());
  evaluator.AddQuery(*rooted);
  evaluator.AddQuery(*anchored);
  // A keep-all union yields no filter at all: the parser runs unprojected
  // instead of paying a per-tag callback that never skips.
  EXPECT_EQ(evaluator.projection_filter(), nullptr);
  EXPECT_TRUE(evaluator.projection_spec().keep_all);

  std::string doc = gen::GenerateXMark({.scale = 0.001, .seed = 3});
  xml::ParserOptions options;
  options.projection_filter = evaluator.projection_filter();
  ASSERT_TRUE(xml::ParseString(doc, &evaluator, options).ok());
  EXPECT_TRUE(evaluator.Matched(1));
}

class ProjectionParallelFleetTest : public ::testing::TestWithParam<int> {};

TEST_P(ProjectionParallelFleetTest, MatchesSequentialUnprojected) {
  std::string doc = gen::GenerateXMark({.scale = 0.002, .seed = 11});
  std::vector<std::string> expressions = XMarkQueries();

  core::ParallelFleetOptions fleet_options;
  fleet_options.num_workers = GetParam();
  fleet_options.max_batch_events = 64;  // several batches per document
  core::ParallelFleet fleet(fleet_options);
  core::MultiQueryEvaluator reference;
  for (const std::string& expression : expressions) {
    auto query = core::Query::Compile(expression);
    ASSERT_TRUE(query.ok()) << query.status();
    fleet.AddQuery(*query);
    reference.AddQuery(*query);
  }
  xml::ParserOptions options;
  options.projection_filter = fleet.projection_filter();
  ASSERT_FALSE(fleet.projection_spec().keep_all);

  // Two documents back to back: per-document reset runs through the fleet.
  for (uint64_t seed : {11u, 12u}) {
    std::string text = gen::GenerateXMark({.scale = 0.002, .seed = seed});
    ASSERT_TRUE(xml::ParseString(text, &fleet, options).ok());
    ASSERT_TRUE(fleet.status().ok()) << fleet.status();
    ASSERT_TRUE(xml::ParseString(text, &reference).ok());
    for (size_t q = 0; q < expressions.size(); ++q) {
      EXPECT_EQ(fleet.Matched(q), reference.Matched(q)) << expressions[q];
      EXPECT_EQ(baseline::CanonicalFromResult(fleet.Result(q)),
                baseline::CanonicalFromResult(reference.Result(q)))
          << expressions[q];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, ProjectionParallelFleetTest,
                         ::testing::Values(1, 2, 4));

// --- limits, chunking, aborts -----------------------------------------------

TEST(ProjectionLimitsTest, DepthLimitEnforcedInsideSkip) {
  // The skipped subtree nests past max_depth; both modes must reject with
  // kResourceExhausted.
  std::string doc = "<a><skip><d><d><d><d><d><d/></d></d></d></d></d>"
                    "</skip><keep/></a>";
  xml::ParserLimits limits;
  limits.max_depth = 4;
  RunOutcome off =
      RunStreaming("/a/keep", doc, /*projection=*/false, 0, limits);
  RunOutcome on = RunStreaming("/a/keep", doc, /*projection=*/true, 0, limits);
  EXPECT_EQ(off.status.code(), StatusCode::kResourceExhausted) << off.status;
  EXPECT_EQ(on.status.code(), StatusCode::kResourceExhausted) << on.status;
  // And across chunk boundaries mid-skip.
  RunOutcome chunked =
      RunStreaming("/a/keep", doc, /*projection=*/true, 3, limits);
  EXPECT_EQ(chunked.status.code(), StatusCode::kResourceExhausted);
}

TEST(ProjectionLimitsTest, TotalBytesEnforcedMidSkip) {
  std::string doc = "<a><skip>" + std::string(4096, 'x') + "</skip><keep/></a>";
  xml::ParserLimits limits;
  limits.max_total_bytes = 256;
  RunOutcome on = RunStreaming("/a/keep", doc, /*projection=*/true, 64, limits);
  EXPECT_EQ(on.status.code(), StatusCode::kResourceExhausted) << on.status;
}

TEST(ProjectionLimitsTest, DeepSkipsWithinLimitStillPass) {
  std::string doc = "<a><skip><d><d><d/></d></d></skip><keep/></a>";
  xml::ParserLimits limits;
  limits.max_depth = 10;
  RunOutcome on = RunStreaming("/a/keep", doc, /*projection=*/true, 0, limits);
  ASSERT_TRUE(on.status.ok()) << on.status;
  EXPECT_TRUE(on.matched);
}

TEST(ProjectionAbortTest, TruncatedInsideSkipFailsAndEvaluatorRecovers) {
  auto query = core::Query::Compile("/a/keep");
  ASSERT_TRUE(query.ok());
  core::StreamingEvaluator evaluator(*query);
  xml::ParserOptions options;
  options.projection_filter = evaluator.projection_filter();
  {
    xml::SaxParser parser(&evaluator, options);
    ASSERT_TRUE(parser.Feed("<a><skip><inner>half").ok());
    Status status = parser.Finish();
    ASSERT_FALSE(status.ok());
    evaluator.AbortDocument(status);
    EXPECT_FALSE(evaluator.status().ok());
  }
  // The same evaluator (and gate) must work for the next document.
  {
    xml::SaxParser parser(&evaluator, options);
    ASSERT_TRUE(parser.Feed("<a><skip><x/></skip><keep/></a>").ok());
    ASSERT_TRUE(parser.Finish().ok());
    EXPECT_TRUE(evaluator.status().ok());
    EXPECT_TRUE(evaluator.Result().matched);
  }
}

TEST(ProjectionAbortTest, ParallelFleetAbortDuringSkipRecovers) {
  auto query = core::Query::Compile("/a/keep");
  ASSERT_TRUE(query.ok());
  core::ParallelFleetOptions fleet_options;
  fleet_options.num_workers = 2;
  core::ParallelFleet fleet(fleet_options);
  fleet.AddQuery(*query);
  xml::ParserOptions options;
  options.projection_filter = fleet.projection_filter();
  {
    xml::SaxParser parser(&fleet, options);
    ASSERT_TRUE(parser.Feed("<a><skip><inner a='").ok());
    Status status = parser.Finish();
    ASSERT_FALSE(status.ok());
    fleet.AbortDocument(status);
    EXPECT_FALSE(fleet.status().ok());
  }
  {
    xml::SaxParser parser(&fleet, options);
    ASSERT_TRUE(parser.Feed("<a><skip/><keep/></a>").ok());
    ASSERT_TRUE(parser.Finish().ok());
    EXPECT_TRUE(fleet.status().ok()) << fleet.status();
    EXPECT_TRUE(fleet.Matched(0));
  }
}

// Incompatible parser options must disable projection, not corrupt results.
TEST(ProjectionOptionsTest, IncompatibleOptionsIgnoreFilter) {
  auto query = core::Query::Compile("/a/keep");
  ASSERT_TRUE(query.ok());
  const std::string doc = "<a><skip><i/></skip><keep/></a>";
  for (int mode = 0; mode < 3; ++mode) {
    core::StreamingEvaluator evaluator(*query);
    xml::ParserOptions options;
    options.projection_filter = evaluator.projection_filter();
    if (mode == 0) options.coalesce_text = false;
    if (mode == 1) options.report_comments = true;
    if (mode == 2) options.report_processing_instructions = true;
    ASSERT_TRUE(xml::ParseString(doc, &evaluator, options).ok());
    EXPECT_TRUE(evaluator.Result().matched);
  }
}

TEST(ProjectionMetricsTest, CountersAdvanceOnSkips) {
  obs::SetEnabled(true);  // no-op when compiled out
  if (!obs::Enabled()) GTEST_SKIP() << "observability compiled out";
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  obs::Counter* subtrees =
      registry.GetCounter("xaos_projection_subtrees_skipped_total");
  obs::Counter* bytes =
      registry.GetCounter("xaos_projection_bytes_skipped_total");
  uint64_t subtrees_before = subtrees->Value();
  uint64_t bytes_before = bytes->Value();

  RunOutcome on = RunStreaming(
      "/a/keep", "<a><skip><x>text</x></skip><skip/><keep/></a>",
      /*projection=*/true);
  ASSERT_TRUE(on.status.ok()) << on.status;
  EXPECT_EQ(subtrees->Value() - subtrees_before, 2u);
  EXPECT_GT(bytes->Value() - bytes_before, 0u);
  obs::SetEnabled(false);
}

}  // namespace
}  // namespace xaos
