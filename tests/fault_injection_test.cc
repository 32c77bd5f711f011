// Fault-injection coverage: every prefix of a corpus document (exhaustive
// chop), single-byte corruption sweeps and adversarial chunk schedules must
// yield a clean error-or-success — never a hang, crash, or invariant
// violation — and a mid-stream failure must propagate through
// StreamingEvaluator and ParallelRouter (1/2/4 workers) via AbortDocument,
// leaving the evaluator or worker reusable for the next document.

#include <string>
#include <vector>

#include "core/multi_engine.h"
#include "core/parallel_router.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "xml/fault_injection.h"
#include "xml/sax_event.h"
#include "xml/sax_parser.h"

namespace xaos {
namespace {

// A corpus document exercising every token kind the parser holds back
// across chunk boundaries: attributes with references, comments, CDATA,
// PIs, nested elements, brackets in text.
const char kCorpusDoc[] =
    "<?xml version=\"1.0\"?><!-- preamble --><root a=\"1&amp;2\">"
    "<b><c x='y'>text ] and ]] brackets</c><![CDATA[raw <markup> ]]>"
    "<?pi data?></b><d/>&lt;tail&gt;</root>";

// Asserts stream invariants (balance, nesting) even on failing parses.
class InvariantHandler : public xml::ContentHandler {
 public:
  void StartDocument() override {
    EXPECT_FALSE(started_);
    started_ = true;
  }
  void EndDocument() override {
    EXPECT_TRUE(started_);
    EXPECT_EQ(depth_, 0);
  }
  void StartElement(const xml::QName& name, xml::AttributeSpan) override {
    EXPECT_TRUE(started_);
    EXPECT_FALSE(name.text.empty());
    ++depth_;
  }
  void EndElement(std::string_view) override {
    EXPECT_GT(depth_, 0);
    --depth_;
  }
  void Characters(std::string_view text) override {
    EXPECT_GT(depth_, 0);
    EXPECT_FALSE(text.empty());
  }

 private:
  bool started_ = false;
  int depth_ = 0;
};

TEST(FaultInjectionTest, ExhaustiveChop) {
  const std::string doc = kCorpusDoc;
  // Every proper prefix must fail cleanly (the document is only complete
  // at full length); the full document must parse.
  for (size_t cut = 0; cut < doc.size(); ++cut) {
    xml::FaultSpec spec;
    spec.truncate_at = cut;
    spec.chunk_bytes = 3;  // also stress chunk-boundary holdbacks
    xml::FaultInjectingSource source(doc, spec);
    ASSERT_EQ(source.effective_document().size(), cut);
    InvariantHandler handler;
    Status status = source.Parse(&handler);
    EXPECT_FALSE(status.ok()) << "prefix of length " << cut << " parsed OK";
  }
  xml::FaultInjectingSource full(doc, xml::FaultSpec{});
  InvariantHandler handler;
  EXPECT_TRUE(full.Parse(&handler).ok());
}

TEST(FaultInjectionTest, SingleByteCorruptionSweep) {
  const std::string doc = kCorpusDoc;
  for (size_t at = 0; at < doc.size(); ++at) {
    for (uint8_t mask : {uint8_t{0xFF}, uint8_t{0x01}, uint8_t{0x20}}) {
      xml::FaultSpec spec;
      spec.corrupt_at = at;
      spec.corrupt_mask = mask;
      xml::FaultInjectingSource source(doc, spec);
      InvariantHandler handler;
      source.Parse(&handler);  // ok-ness irrelevant; must not crash/hang
    }
  }
}

TEST(FaultInjectionTest, CorruptionMaskZeroLeavesDocumentIntact) {
  xml::FaultSpec spec;
  spec.corrupt_at = 5;
  spec.corrupt_mask = 0;
  xml::FaultInjectingSource source(kCorpusDoc, spec);
  EXPECT_EQ(source.effective_document(), std::string_view(kCorpusDoc));
  InvariantHandler handler;
  EXPECT_TRUE(source.Parse(&handler).ok());
}

TEST(FaultInjectionTest, AdversarialChunkSchedulesAgreeWithOneShot) {
  const std::string doc = kCorpusDoc;
  xml::EventRecorder reference;
  ASSERT_TRUE(xml::ParseString(doc, &reference).ok());

  std::vector<std::vector<size_t>> schedules = {
      {1},                     // byte at a time
      {1, 2, 3, 5, 7, 11},     // coprime-ish cycle
      {64, 1, 1, 1},           // big gulp then dribble
      {0, 2},                  // zero entries clamp to 1
  };
  for (const std::vector<size_t>& schedule : schedules) {
    xml::FaultSpec spec;
    spec.chunk_sizes = schedule;
    xml::FaultInjectingSource source(doc, spec);
    xml::EventRecorder chunked;
    ASSERT_TRUE(source.Parse(&chunked).ok());
    EXPECT_EQ(chunked.events(), reference.events());
  }
}

TEST(FaultInjectionTest, StreamingEvaluatorAbortAndReuse) {
  StatusOr<core::Query> query = core::Query::Compile("//b/c");
  ASSERT_TRUE(query.ok());
  core::StreamingEvaluator evaluator(*query);

  // Mismatched end tag mid-stream, after some matching structure exists.
  xml::FaultSpec spec;
  spec.chunk_bytes = 4;
  xml::FaultInjectingSource bad("<a><b><c/></b><oops></a>", spec);
  Status status = bad.Parse(&evaluator);
  ASSERT_FALSE(status.ok());
  evaluator.AbortDocument(status);
  EXPECT_EQ(evaluator.status(), status);

  // The same evaluator then handles a valid document correctly.
  ASSERT_TRUE(xml::ParseString("<a><b><c/></b></a>", &evaluator).ok());
  EXPECT_TRUE(evaluator.status().ok());
  EXPECT_TRUE(evaluator.Result().matched);
}

TEST(FaultInjectionTest, StreamingEvaluatorSurfacesLimitRejection) {
  StatusOr<core::Query> query = core::Query::Compile("//b/c");
  ASSERT_TRUE(query.ok());
  core::StreamingEvaluator evaluator(*query);

  xml::ParserOptions options;
  options.limits.max_depth = 2;
  xml::FaultInjectingSource deep("<a><b><c/></b></a>", xml::FaultSpec{});
  Status status = deep.Parse(&evaluator, options);
  ASSERT_EQ(status.code(), StatusCode::kResourceExhausted);
  evaluator.AbortDocument(status);
  EXPECT_EQ(evaluator.status().code(), StatusCode::kResourceExhausted);

  ASSERT_TRUE(xml::ParseString("<a><b><c/></b></a>", &evaluator).ok());
  EXPECT_TRUE(evaluator.status().ok());
  EXPECT_TRUE(evaluator.Result().matched);
}

// Mid-stream failures through the parallel router: a mismatched end tag
// after many events, a clean EOF mid-document and a depth-limit rejection
// each abort only their own document, with the cause the sequential path
// reports, and the worker that aborted goes on routing valid documents.
void RunParallelAbort(int workers) {
  StatusOr<core::Query> match = core::Query::Compile("//b/c");
  StatusOr<core::Query> miss = core::Query::Compile("//zzz");
  ASSERT_TRUE(match.ok());
  ASSERT_TRUE(miss.ok());
  const std::vector<core::Query> queries = {*match, *miss};

  std::string bad = "<a>";
  for (int i = 0; i < 200; ++i) bad += "<b><c/></b>";
  bad += "<b></a>";  // mismatched end tag
  std::string deep = "<a>";
  for (int i = 0; i < 64; ++i) deep += "<b>";
  const std::vector<std::string> documents = {
      bad,  bad.substr(0, bad.size() / 2), "<a><b><c/></b></a>",
      deep, "<a><c/><b/></a>",             bad,
      "<a><b><c/></b></a>"};
  xml::ParserOptions parser_options;
  parser_options.limits.max_depth = 8;

  const std::vector<test::RoutedOutcome> sequential = test::RouteSequentially(
      queries, documents, core::EngineOptions{}, parser_options);
  const std::vector<test::RoutedOutcome> routed = test::RouteInParallel(
      queries, documents, workers, core::EngineOptions{}, parser_options);
  ASSERT_EQ(routed.size(), documents.size());
  EXPECT_EQ(routed[0].status.code(), StatusCode::kParseError);
  EXPECT_FALSE(routed[1].status.ok());
  EXPECT_EQ(routed[3].status.code(), StatusCode::kResourceExhausted);
  for (size_t d = 0; d < documents.size(); ++d) {
    EXPECT_EQ(routed[d].status, sequential[d].status) << "document " << d;
  }
  for (size_t d : {2u, 6u}) {
    ASSERT_TRUE(routed[d].status.ok()) << routed[d].status;
    EXPECT_TRUE(routed[d].matched[0]) << "document " << d;
    EXPECT_FALSE(routed[d].matched[1]) << "document " << d;
  }
  ASSERT_TRUE(routed[4].status.ok()) << routed[4].status;
  EXPECT_FALSE(routed[4].matched[0]);
}

TEST(FaultInjectionTest, ParallelRouterMalformedMidStream1Worker) {
  RunParallelAbort(1);
}
TEST(FaultInjectionTest, ParallelRouterMalformedMidStream2Workers) {
  RunParallelAbort(2);
}
TEST(FaultInjectionTest, ParallelRouterMalformedMidStream4Workers) {
  RunParallelAbort(4);
}

// Exhaustive chop against the full evaluator stack: no prefix may hang or
// corrupt engine state, and the evaluator must stay usable throughout.
TEST(FaultInjectionTest, ChopThroughStreamingEvaluator) {
  StatusOr<core::Query> query = core::Query::Compile("//b/c | //root/d");
  ASSERT_TRUE(query.ok());
  core::StreamingEvaluator evaluator(*query);
  const std::string doc = kCorpusDoc;
  for (size_t cut = 0; cut < doc.size(); cut += 3) {
    xml::FaultSpec spec;
    spec.truncate_at = cut;
    xml::FaultInjectingSource source(doc, spec);
    Status status = source.Parse(&evaluator);
    EXPECT_FALSE(status.ok());
    evaluator.AbortDocument(status);
    EXPECT_FALSE(evaluator.status().ok());
  }
  xml::FaultInjectingSource full(doc, xml::FaultSpec{});
  ASSERT_TRUE(full.Parse(&evaluator).ok());
  EXPECT_TRUE(evaluator.status().ok());
  EXPECT_TRUE(evaluator.Result().matched);
}

}  // namespace
}  // namespace xaos
