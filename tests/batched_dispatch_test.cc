// Batched dispatch tests. Verdicts and document-order items of both
// feeding routes — BatchedDispatcher -> ReplayBatch -> EngineFleet::ReplayRun,
// and per-event ContentHandler delivery — are checked against the
// brute-force matcher over the DOM, an independent algorithm, across the
// axis corpus, chunked feeds, single-event batches, random workloads and
// ParallelFleet shardings. The two routes are compared with each other only
// where brute force has no answer: captured XML bytes, the order early
// items reach the earliest-emission sink, node ids, and the dispatch
// counters (engines_skipped, EngineStats) that capture-time element elision
// must leave unchanged. Plus the pool-return double-release regression for
// mid-batch aborts, the projection filter's reset, and the shared
// matcher's set-interner reset.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "baseline/brute_force_matcher.h"
#include "baseline/compare.h"
#include "core/batched_dispatch.h"
#include "core/multi_engine.h"
#include "core/parallel_fleet.h"
#include "core/shared_index.h"
#include "dom/dom_builder.h"
#include "gen/random_workload.h"
#include "gtest/gtest.h"
#include "xml/sax_parser.h"

namespace xaos {
namespace {

const char kAxisDoc[] =
    "<a k=\"1\"><b><a><c/></a><d/></b><c/>"
    "<b x=\"y\"><c/><a/><e>text</e></b></a>";

// 16 expressions mixing shared-backend chains, per-engine queries (backward
// axes, predicates, attributes, text) and byte-identical duplicates, so
// every dispatch backend and the alias fan-out run through the batch loop.
const char* const kAxisCorpus[] = {
    "/a/b/c",          "/a/b/c",
    "//a//c",          "//c",
    "/a/*/c",          "//*",
    "//b/a",           "//zzz",
    "//c/ancestor::a", "//b[c]/a | //a[c]",
    "//b[@x]",         "//c/following-sibling::a",
    "//e[text()='text']",
    "//d",             "/a/b//c",
    "//b/e",
};

std::vector<std::string> AxisExpressions() {
  return std::vector<std::string>(kAxisCorpus,
                                  kAxisCorpus + std::size(kAxisCorpus));
}

void ParseInto(const std::string& xml, xml::ContentHandler* handler,
               size_t chunk) {
  if (chunk == 0) {
    ASSERT_TRUE(xml::ParseString(xml, handler).ok());
    return;
  }
  xml::SaxParser parser(handler);
  for (size_t i = 0; i < xml.size(); i += chunk) {
    ASSERT_TRUE(parser.Feed(std::string_view(xml).substr(i, chunk)).ok());
  }
  ASSERT_TRUE(parser.Finish().ok());
}

std::vector<core::Query> CompileAll(
    const std::vector<std::string>& expressions) {
  std::vector<core::Query> queries;
  for (const std::string& expression : expressions) {
    StatusOr<core::Query> query = core::Query::Compile(expression);
    EXPECT_TRUE(query.ok()) << expression << ": " << query.status();
    if (query.ok()) queries.push_back(std::move(*query));
  }
  return queries;
}

// The brute-force matcher's answer for one query: disjuncts unioned.
struct Expected {
  bool matched = false;
  std::vector<baseline::CanonicalItem> items;
};

std::vector<Expected> BruteForce(const std::vector<core::Query>& queries,
                                 const std::string& xml) {
  std::vector<Expected> expected(queries.size());
  StatusOr<dom::Document> doc = dom::ParseToDocument(xml);
  EXPECT_TRUE(doc.ok()) << doc.status();
  if (!doc.ok()) return expected;
  for (size_t q = 0; q < queries.size(); ++q) {
    std::set<baseline::CanonicalItem> items;
    for (const query::XTree& tree : queries[q].trees()) {
      baseline::BruteForceOutcome outcome = baseline::BruteForceMatch(
          *doc, tree, /*max_explored=*/20'000'000);
      EXPECT_TRUE(outcome.complete) << queries[q].expression();
      expected[q].matched = expected[q].matched || outcome.matched;
      items.insert(outcome.items.begin(), outcome.items.end());
    }
    expected[q].items.assign(items.begin(), items.end());
  }
  return expected;
}

// Requires `evaluator`'s verdicts and canonical items to equal the
// brute-force answers.
template <typename Evaluator>
void ExpectEqualsBruteForce(const Evaluator& evaluator,
                            const std::vector<core::Query>& queries,
                            const std::vector<Expected>& expected,
                            const std::string& route) {
  ASSERT_TRUE(evaluator.status().ok()) << route << ": " << evaluator.status();
  for (size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(expected[q].matched, evaluator.Matched(q))
        << route << " verdict for " << queries[q].expression();
    EXPECT_EQ(baseline::CanonicalFromResult(evaluator.Result(q)),
              expected[q].items)
        << route << " items for " << queries[q].expression();
  }
}

// Runs `expressions` over `xml` through a BatchedDispatcher in front of a
// MultiQueryEvaluator and through per-event delivery into another, and
// requires both to equal brute force. `batch_events` shrinks the batch
// budget so documents span many batches; `chunk` feeds the parser in
// chunk-byte slices (0 = one shot).
void ExpectBothRoutesMatchBruteForce(
    const std::vector<std::string>& expressions, const std::string& xml,
    size_t chunk = 0, size_t batch_events = 8) {
  std::vector<core::Query> queries = CompileAll(expressions);
  ASSERT_EQ(queries.size(), expressions.size());
  core::MultiQueryEvaluator batched;
  core::MultiQueryEvaluator per_event;
  for (const core::Query& query : queries) {
    batched.AddQuery(query);
    per_event.AddQuery(query);
  }

  core::BatchedDispatchOptions dispatch_options;
  dispatch_options.max_batch_events = batch_events;
  core::BatchedDispatcher dispatcher(&batched, dispatch_options);
  ParseInto(xml, &dispatcher, chunk);
  ParseInto(xml, &per_event, chunk);
  EXPECT_GT(dispatcher.batches_replayed(), 0u);

  const std::vector<Expected> expected = BruteForce(queries, xml);
  ExpectEqualsBruteForce(batched, queries, expected, "batched");
  ExpectEqualsBruteForce(per_event, queries, expected, "per-event");
  for (size_t q = 0; q < queries.size(); ++q) {
    // Confirmation is monotone and complete by document end.
    EXPECT_EQ(batched.Matched(q), batched.MatchConfirmed(q))
        << expressions[q];
  }
}

TEST(BatchedDifferentialTest, AxisCorpus) {
  ExpectBothRoutesMatchBruteForce(AxisExpressions(), kAxisDoc);
}

TEST(BatchedDifferentialTest, ChunkedFeeds) {
  // Chunked feeds shift where batch publishes land relative to element
  // boundaries; results must not care.
  for (size_t chunk : {1u, 7u, 64u}) {
    ExpectBothRoutesMatchBruteForce(AxisExpressions(), kAxisDoc, chunk);
  }
}

TEST(BatchedDifferentialTest, SingleEventBatches) {
  // Degenerate budget: one event per batch maximizes boundary crossings.
  ExpectBothRoutesMatchBruteForce(AxisExpressions(), kAxisDoc, /*chunk=*/0,
                                  /*batch_events=*/1);
}

TEST(BatchedDifferentialTest, CapturesAreByteIdentical) {
  // Subtree capture disables the shared backend and keeps engines in the
  // always-dispatch set; captured XML must match byte-for-byte (brute force
  // yields no captures, so the per-event route is the reference here).
  std::vector<std::string> expressions = {"//b/c", "//e", "/a/b"};
  std::vector<core::Query> queries = CompileAll(expressions);
  ASSERT_EQ(queries.size(), expressions.size());
  core::EngineOptions options;
  options.capture_output_subtrees = true;
  core::MultiQueryEvaluator batched(options);
  core::MultiQueryEvaluator per_event(options);
  for (const core::Query& query : queries) {
    batched.AddQuery(query);
    per_event.AddQuery(query);
  }
  core::BatchedDispatchOptions dispatch_options;
  dispatch_options.max_batch_events = 4;
  core::BatchedDispatcher dispatcher(&batched, dispatch_options);
  ParseInto(kAxisDoc, &dispatcher, 0);
  ParseInto(kAxisDoc, &per_event, 0);
  for (size_t q = 0; q < queries.size(); ++q) {
    core::QueryResult expected = per_event.Result(q);
    core::QueryResult actual = batched.Result(q);
    ASSERT_EQ(expected.items.size(), actual.items.size()) << expressions[q];
    for (size_t i = 0; i < expected.items.size(); ++i) {
      EXPECT_EQ(expected.items[i].info.id, actual.items[i].info.id);
      EXPECT_EQ(expected.items[i].captured_xml, actual.items[i].captured_xml)
          << expressions[q] << " item " << i;
    }
  }
}

TEST(BatchedDifferentialTest, EarliestEmissionOrderMatches) {
  // Early items reach the sink in the same order on both routes: batched
  // replay feeds engines one at a time, but buffers their early items and
  // releases them in per-event order. Brute force has no notion of
  // emission order.
  StatusOr<core::Query> query = core::Query::Compile("//b | //c");
  ASSERT_TRUE(query.ok());
  auto run = [&](const std::string& xml, bool batched_path,
                 size_t batch_events) {
    std::vector<core::ElementId> emitted;
    core::EngineOptions options;
    options.enable_shared_index = false;  // the sink is an engine feature
    options.early_item_sink = [&](const core::OutputItem& item) {
      emitted.push_back(item.info.id);
    };
    core::MultiQueryEvaluator evaluator(options);
    evaluator.AddQuery(*query);
    if (batched_path) {
      core::BatchedDispatchOptions dispatch_options;
      dispatch_options.max_batch_events = batch_events;
      core::BatchedDispatcher dispatcher(&evaluator, dispatch_options);
      ParseInto(xml, &dispatcher, 0);
    } else {
      ParseInto(xml, &evaluator, 0);
    }
    return emitted;
  };
  std::vector<core::ElementId> per_event = run(kAxisDoc, false, 0);
  EXPECT_FALSE(per_event.empty());
  EXPECT_EQ(per_event, run(kAxisDoc, true, 4));

  // Both disjunct engines emit within one batch; the //b engine comes
  // first in the fleet, yet the //c item of the earlier event goes first.
  const std::string interleaved = "<r><c/><b/><c/></r>";
  const std::vector<core::ElementId> expected = {2, 3, 4};
  EXPECT_EQ(run(interleaved, false, 0), expected);
  EXPECT_EQ(run(interleaved, true, 256), expected);
}

TEST(BatchedDifferentialTest, StopAfterConfirmedMatchSkipsAlike) {
  // Engines that turn inert mid-run (stop_after_confirmed_match) have
  // their remaining starts counted as skipped, exactly as per-event
  // delivery skips them.
  std::vector<std::string> expressions = AxisExpressions();
  std::string doc = "<a>";
  for (int i = 0; i < 40; ++i) {
    doc += "<b x=\"y\"><c/><a><c/></a><e>text</e></b><d/>";
  }
  doc += "</a>";
  std::vector<core::Query> queries = CompileAll(expressions);
  ASSERT_EQ(queries.size(), expressions.size());
  const std::vector<Expected> expected = BruteForce(queries, doc);
  for (size_t batch_events : {1u, 8u, 256u}) {
    core::EngineOptions options;
    options.enable_shared_index = false;
    options.stop_after_confirmed_match = true;
    core::MultiQueryEvaluator batched(options);
    core::MultiQueryEvaluator per_event(options);
    for (const core::Query& query : queries) {
      batched.AddQuery(query);
      per_event.AddQuery(query);
    }
    core::BatchedDispatchOptions dispatch_options;
    dispatch_options.max_batch_events = batch_events;
    core::BatchedDispatcher dispatcher(&batched, dispatch_options);
    // Two documents: inertness must reset between them.
    for (int round = 0; round < 2; ++round) {
      ParseInto(doc, &dispatcher, 0);
      ParseInto(doc, &per_event, 0);
      for (size_t q = 0; q < queries.size(); ++q) {
        EXPECT_EQ(expected[q].matched, batched.Matched(q))
            << expressions[q] << " batch_events=" << batch_events;
        EXPECT_EQ(expected[q].matched, per_event.Matched(q))
            << expressions[q];
      }
      EXPECT_GT(per_event.engines_skipped(), 0u);
      EXPECT_EQ(per_event.engines_skipped(), batched.engines_skipped())
          << "batch_events=" << batch_events << " round " << round;
    }
  }
}

TEST(BatchedDifferentialTest, ReplayScratchStaysUnderCap) {
  // 300 engines all mentioning <b>: a 256-event batch would record ~75k
  // deliveries in one run; the run is split at the cap instead.
  core::EngineOptions options;
  options.enable_shared_index = false;
  core::MultiQueryEvaluator batched(options);
  core::MultiQueryEvaluator per_event(options);
  for (int i = 0; i < 300; ++i) {
    StatusOr<core::Query> query =
        core::Query::Compile("//b/c" + std::to_string(i));
    ASSERT_TRUE(query.ok());
    batched.AddQuery(*query);
    per_event.AddQuery(*query);
  }
  std::string doc = "<r>";
  for (int i = 0; i < 300; ++i) {
    doc += i % 7 == 0 ? "<b><c" + std::to_string(i) + "/></b>" : "<b/>";
  }
  doc += "</r>";
  core::BatchedDispatchOptions dispatch_options;
  dispatch_options.max_batch_events = 256;
  core::BatchedDispatcher dispatcher(&batched, dispatch_options);
  ParseInto(doc, &dispatcher, 0);
  ParseInto(doc, &per_event, 0);
  const size_t peak = batched.fleet().run_deliveries_peak();
  EXPECT_GT(peak, 0u);
  EXPECT_LE(peak, core::EngineFleet::kMaxRunDeliveries);
  for (size_t q = 0; q < 300; ++q) {
    EXPECT_EQ(q % 7 == 0, batched.Matched(q)) << q;
    EXPECT_EQ(q % 7 == 0, per_event.Matched(q)) << q;
  }
  EXPECT_EQ(per_event.engines_skipped(), batched.engines_skipped());
}

TEST(BatchedDifferentialTest, FlushExposesMidStreamVerdicts) {
  StatusOr<core::Query> query = core::Query::Compile("/a/b/c");
  ASSERT_TRUE(query.ok());
  core::MultiQueryEvaluator evaluator;
  size_t q = evaluator.AddQuery(*query);
  core::BatchedDispatchOptions options;
  options.max_batch_events = 1024;  // nothing publishes on its own
  core::BatchedDispatcher dispatcher(&evaluator, options);
  xml::SaxParser parser(&dispatcher);
  ASSERT_TRUE(parser.Feed("<a><b><c/>").ok());
  dispatcher.Flush();
  EXPECT_TRUE(evaluator.MatchConfirmed(q));
  ASSERT_TRUE(parser.Feed("</b></a>").ok());
  ASSERT_TRUE(parser.Finish().ok());
  EXPECT_TRUE(evaluator.Matched(q));
}

// --- random workloads -------------------------------------------------------

class BatchedRandomDifferentialTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatchedRandomDifferentialTest, MatchesBruteForce) {
  uint64_t seed = GetParam();
  gen::RandomQueryOptions query_options;
  gen::RandomDocOptions doc_options;
  doc_options.target_elements = 300;
  doc_options.max_noise_depth = 6;

  // 3 workloads per seed x 30 seeds = 90 random (query, document) pairs;
  // each document runs the whole expression pool.
  std::vector<std::string> expressions;
  std::vector<std::string> documents;
  for (uint64_t i = 0; i < 3; ++i) {
    auto workload =
        gen::GenerateWorkload(query_options, doc_options, seed * 16 + i);
    ASSERT_TRUE(workload.ok()) << workload.status();
    expressions.push_back(workload->expression);
    documents.push_back(workload->document);
  }
  for (const std::string& document : documents) {
    ExpectBothRoutesMatchBruteForce(expressions, document, /*chunk=*/0,
                                    /*batch_events=*/64);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchedRandomDifferentialTest,
                         ::testing::Range<uint64_t>(0, 30));

// --- ParallelFleet ----------------------------------------------------------

TEST(BatchedParallelTest, WorkersMatchBruteForce) {
  std::vector<std::string> expressions = AxisExpressions();
  for (int i = 0; i < 8; ++i) {
    expressions.push_back("//b/absent_" + std::to_string(i));
    expressions.push_back("/a/b/c");
  }
  std::vector<core::Query> queries = CompileAll(expressions);
  ASSERT_EQ(queries.size(), expressions.size());
  const std::vector<Expected> expected = BruteForce(queries, kAxisDoc);

  for (int workers : {1, 2, 4}) {
    core::ParallelFleetOptions options;
    options.num_workers = workers;
    options.max_batch_events = 4;  // force many batches per document
    core::ParallelFleet fleet(options);
    for (const core::Query& query : queries) fleet.AddQuery(query);
    ASSERT_TRUE(xml::ParseString(kAxisDoc, &fleet).ok());
    ExpectEqualsBruteForce(fleet, queries, expected,
                           "workers=" + std::to_string(workers));
  }
}

TEST(BatchedParallelTest, AdaptivePolicyGrowsAndDecays) {
  core::AdaptiveBatchPolicy policy;
  policy.base = 8;
  policy.cap = 32;
  policy.decay_publishes = 2;
  policy.current = 8;
  EXPECT_EQ(policy.OnPublish(true), 16u);   // stall: double
  EXPECT_EQ(policy.OnPublish(true), 32u);   // stall: double to cap
  EXPECT_EQ(policy.OnPublish(true), 32u);   // capped
  EXPECT_EQ(policy.OnPublish(false), 32u);  // quiet 1/2: hold
  EXPECT_EQ(policy.OnPublish(false), 16u);  // quiet 2/2: halve
  EXPECT_EQ(policy.OnPublish(false), 16u);
  EXPECT_EQ(policy.OnPublish(false), 8u);   // back at base
  EXPECT_EQ(policy.OnPublish(false), 8u);   // never below base
  EXPECT_EQ(policy.OnPublish(false), 8u);
}

TEST(BatchedParallelTest, AdaptiveCoalescingUnderBackPressure) {
  // A slow shard (large pool, tiny rings, tiny base batches) must trigger
  // the policy: by the end of the stream the budget has grown past base.
  std::vector<core::Query> queries;
  for (int i = 0; i < 64; ++i) {
    StatusOr<core::Query> query =
        core::Query::Compile("//b/pool_" + std::to_string(i));
    ASSERT_TRUE(query.ok());
    queries.push_back(std::move(*query));
  }
  std::string doc = "<a>";
  for (int i = 0; i < 4000; ++i) doc += "<b><c/></b>";
  doc += "</a>";

  core::ParallelFleetOptions options;
  options.num_workers = 2;
  options.max_batch_events = 2;
  options.ring_capacity = 2;
  options.max_batch_events_cap = 256;
  // No decay within the stream: whether the rings drain before the last
  // publish is scheduler timing, and decay has its own test above.
  options.adaptive_decay_publishes = SIZE_MAX;
  core::ParallelFleet fleet(options);
  for (const core::Query& query : queries) fleet.AddQuery(query);
  ASSERT_TRUE(xml::ParseString(doc, &fleet).ok());
  ASSERT_TRUE(fleet.status().ok());
  if (fleet.publish_stalls() > 0) {
    EXPECT_GT(fleet.current_batch_events(), 2u);
  }
  // Everything still matched correctly despite resized batches.
  EXPECT_TRUE(fleet.MatchedQueries().empty());
}

// --- mid-batch abort and the pool double-release regression -----------------

TEST(BatchedAbortTest, AbortMidBatchDiscardsBufferedEvents) {
  StatusOr<core::Query> query = core::Query::Compile("/a/b/c");
  ASSERT_TRUE(query.ok());
  core::MultiQueryEvaluator evaluator;
  size_t q = evaluator.AddQuery(*query);
  core::BatchedDispatchOptions options;
  options.max_batch_events = 1024;  // keep the whole document buffered
  core::BatchedDispatcher dispatcher(&evaluator, options);

  xml::SaxParser parser(&dispatcher);
  ASSERT_TRUE(parser.Feed("<a><b><c/></b>").ok());
  dispatcher.AbortDocument(InternalError("producer died"));
  // The buffered partial capture never reached the engines.
  EXPECT_EQ(dispatcher.batches_replayed(), 0u);
  EXPECT_FALSE(evaluator.Matched(q));
  EXPECT_FALSE(evaluator.status().ok());

  // The dispatcher and its pool stay reusable.
  core::BatchedDispatcher fresh_parse_helper(&evaluator);
  ParseInto("<a><b><c/></b></a>", &fresh_parse_helper, 0);
  EXPECT_TRUE(evaluator.Matched(q));
}

TEST(BatchedAbortTest, ReentrantAbortDoesNotDoubleReleaseBatch) {
  // Regression: EventBatcher::PublishCurrent still holds current_ while the
  // sink replays the batch, so an AbortDocument raised from *inside* the
  // replay (here: an earliest-emission sink) re-publishes the same batch
  // pointer. Without the pool guard the batch would enter the free list
  // twice and later be handed to two writers.
  StatusOr<core::Query> query = core::Query::Compile("//c");
  ASSERT_TRUE(query.ok());
  core::EngineOptions options;
  options.enable_shared_index = false;  // engine backend drives the sink
  core::MultiQueryEvaluator evaluator(options);
  size_t q = evaluator.AddQuery(*query);

  core::BatchedDispatchOptions dispatch_options;
  dispatch_options.max_batch_events = 4;
  core::BatchedDispatcher dispatcher(&evaluator, dispatch_options);
  bool aborted = false;
  // Rebuild the evaluator's sink after construction is impossible (options
  // are copied), so drive the abort from the parse loop instead: feed
  // events until the first batch replayed, then abort mid-document.
  xml::SaxParser parser(&dispatcher);
  // 4 events fill the batch: StartDocument, <a>, <x>, <c> — the last one
  // triggers the publish + replay.
  ASSERT_TRUE(parser.Feed("<a><x><c>").ok());
  ASSERT_GE(dispatcher.batches_replayed(), 1u);
  dispatcher.AbortDocument(InternalError("mid-batch failure"));
  aborted = true;
  EXPECT_TRUE(aborted);
  // One distinct batch may sit in the free pool per acquisition; duplicate
  // entries would exceed the number of batches ever created.
  EXPECT_LE(dispatcher.pool_free_for_test(), 2u);

  // Reuse after the abort: correctness proves no two "free" handles alias
  // the same arena.
  for (int doc = 0; doc < 3; ++doc) {
    core::BatchedDispatcher reuse(&evaluator, dispatch_options);
    ParseInto("<a><x><c/></x></a>", &reuse, 0);
    EXPECT_TRUE(evaluator.Matched(q));
  }
}

// --- set-interner reset ----------------------------------------------------

// Shareable chains only: every query runs on the shared automaton.
const char* const kSharedCorpus[] = {"/a/b/c", "//a//c", "/a/*/c", "//c",
                                     "//b/a",  "//d",    "//a/b//d", "//*/c"};

// A single path `depth` elements deep whose tags cycle a, b, c, d, e; each
// level moves the matcher to a configuration the level above has not seen.
std::string DeepDocument(int depth) {
  static const char* const kTags[] = {"a", "b", "c", "d", "e"};
  std::string open;
  std::string close;
  for (int i = 0; i < depth; ++i) {
    const std::string tag = kTags[i % 5];
    open += "<" + tag + ">";
    close = "</" + tag + ">" + close;
  }
  return open + close;
}

// Forwards events to `next` and checks the interner bound after every
// start-element, so mid-document peaks are caught, not just end states.
class BoundCheckingHandler : public xml::ContentHandler {
 public:
  BoundCheckingHandler(xml::ContentHandler* next,
                       core::MultiQueryEvaluator* evaluator, size_t limit)
      : next_(next), evaluator_(evaluator), limit_(limit) {}

  void StartDocument() override {
    depth_ = 0;
    next_->StartDocument();
  }
  void EndDocument() override { next_->EndDocument(); }
  void StartElement(const xml::QName& name,
                    xml::AttributeSpan attributes) override {
    next_->StartElement(name, attributes);
    max_depth_ = std::max(max_depth_, ++depth_);
    const core::SharedMatcher* matcher = evaluator_->shared_matcher_for_test();
    EXPECT_LE(matcher->interned_set_count(), limit_ + 2 * (max_depth_ + 1));
  }
  void EndElement(std::string_view name) override {
    --depth_;
    next_->EndElement(name);
  }
  void Characters(std::string_view text) override { next_->Characters(text); }
  void SkippedSubtree(const xml::SkipReport& report) override {
    next_->SkippedSubtree(report);
  }

  size_t max_depth() const { return max_depth_; }

 private:
  xml::ContentHandler* next_;
  core::MultiQueryEvaluator* evaluator_;
  size_t limit_;
  size_t depth_ = 0;
  size_t max_depth_ = 0;
};

TEST(SharedMatcherResetTest, ResetMidDocumentMatchesBruteForce) {
  constexpr size_t kLimit = 6;
  constexpr int kDepth = 24;  // deeper than the limit: resets mid-document
  const std::vector<core::Query> queries = CompileAll(std::vector<std::string>(
      kSharedCorpus, kSharedCorpus + std::size(kSharedCorpus)));
  const std::string doc = DeepDocument(kDepth);
  const std::vector<Expected> expected = BruteForce(queries, doc);

  for (const bool batched : {true, false}) {
    const std::string route = batched ? "batched" : "per-event";
    core::MultiQueryEvaluator evaluator;
    for (const core::Query& query : queries) evaluator.AddQuery(query);
    ASSERT_EQ(evaluator.shared_subscription_count(), queries.size());
    core::BatchedDispatchOptions dispatch_options;
    dispatch_options.max_batch_events = 1;  // bound checked per event
    core::BatchedDispatcher dispatcher(&evaluator, dispatch_options);
    xml::ContentHandler* entry =
        batched ? static_cast<xml::ContentHandler*>(&dispatcher) : &evaluator;

    // A minimal first document builds the matcher so its limit can be
    // pinned before the deep document arrives.
    ParseInto("<zzz/>", entry, 0);
    core::SharedMatcher* matcher = evaluator.shared_matcher_for_test();
    ASSERT_NE(matcher, nullptr);
    matcher->set_flat_set_limit_for_test(kLimit);

    BoundCheckingHandler checked(entry, &evaluator, kLimit);
    // Twice: the second document starts from the rebased universe.
    for (int round = 0; round < 2; ++round) {
      ParseInto(doc, &checked, 0);
      ExpectEqualsBruteForce(evaluator, queries, expected,
                             route + " round " + std::to_string(round));
    }
    EXPECT_GT(matcher->universe_resets(), 0u) << route;
    EXPECT_EQ(checked.max_depth(), static_cast<size_t>(kDepth));
  }
}

TEST(SharedMatcherResetTest, InternedSetsStayBoundedAcrossDocuments) {
  constexpr size_t kLimit = 64;
  constexpr int kDocuments = 1000;
  std::mt19937 rng(7);
  auto tag = [&](int alphabet) {
    return "t" + std::to_string(std::uniform_int_distribution<int>(
                     0, alphabet - 1)(rng));
  };
  // 48 shareable chains over t0..t23; documents also draw from t24..t39,
  // names no query mentions.
  std::vector<std::string> expressions;
  for (int i = 0; i < 48; ++i) {
    switch (i % 4) {
      case 0: expressions.push_back("//" + tag(24) + "//" + tag(24)); break;
      case 1: expressions.push_back("/" + tag(24) + "/*/" + tag(24)); break;
      case 2: expressions.push_back("//" + tag(24) + "/" + tag(24)); break;
      default:
        expressions.push_back("//*/" + tag(24) + "//" + tag(24) + "/*");
    }
  }
  const std::vector<core::Query> queries = CompileAll(expressions);
  core::MultiQueryEvaluator evaluator;
  for (const core::Query& query : queries) evaluator.AddQuery(query);
  ASSERT_EQ(evaluator.shared_subscription_count(), queries.size());
  core::BatchedDispatchOptions dispatch_options;
  dispatch_options.max_batch_events = 1;
  core::BatchedDispatcher dispatcher(&evaluator, dispatch_options);
  ParseInto("<zzz/>", &dispatcher, 0);
  core::SharedMatcher* matcher = evaluator.shared_matcher_for_test();
  ASSERT_NE(matcher, nullptr);
  matcher->set_flat_set_limit_for_test(kLimit);

  BoundCheckingHandler checked(&dispatcher, &evaluator, kLimit);
  // Random trees of ~40 elements, up to 10 deep.
  auto random_document = [&] {
    std::string doc;
    std::vector<std::string> open;
    for (int n = 0; n < 40; ++n) {
      while (!open.empty() &&
             (open.size() >= 10 || rng() % 3 == 0)) {
        doc += "</" + open.back() + ">";
        open.pop_back();
      }
      if (open.empty() && n > 0) break;  // one document element
      open.push_back(tag(40));
      doc += "<" + open.back() + ">";
    }
    while (!open.empty()) {
      doc += "</" + open.back() + ">";
      open.pop_back();
    }
    return doc;
  };
  for (int d = 0; d < kDocuments; ++d) {
    const std::string doc = random_document();
    ParseInto(doc, &checked, 0);
    if (d % 50 == 0) {
      ExpectEqualsBruteForce(evaluator, queries, BruteForce(queries, doc),
                             "document " + std::to_string(d));
    }
  }
  EXPECT_GT(matcher->universe_resets(), 0u);
  EXPECT_LE(matcher->interned_set_count(),
            kLimit + 2 * (checked.max_depth() + 1));
}

TEST(SharedMatcherResetTest, StepCacheHitsAccumulate) {
  std::vector<std::string> expressions = {"/a/b/c", "//b", "//c"};
  core::MultiQueryEvaluator batched;
  for (const std::string& expression : expressions) {
    StatusOr<core::Query> query = core::Query::Compile(expression);
    ASSERT_TRUE(query.ok());
    batched.AddQuery(*query);
  }
  std::string doc = "<a>";
  for (int i = 0; i < 200; ++i) doc += "<b><c/></b>";
  doc += "</a>";
  core::BatchedDispatcher dispatcher(&batched);
  ParseInto(doc, &dispatcher, 0);
  core::SharedMatcher* matcher = batched.shared_matcher_for_test();
  ASSERT_NE(matcher, nullptr);
  EXPECT_EQ(matcher->universe_resets(), 0u);
  // A repetitive document steps through a handful of distinct
  // (state-set, symbol) configurations: hits dominate misses.
  EXPECT_GT(matcher->flat_cache_hits(), matcher->flat_cache_misses());
}

// --- capture-time element elision -------------------------------------------

// Collects every published batch's records and sizes.
class RecordingSink : public xml::EventBatcher::Sink {
 public:
  xml::EventBatch* AcquireBatch() override {
    batches_.push_back(std::make_unique<xml::EventBatch>());
    return batches_.back().get();
  }
  void PublishBatch(xml::EventBatch* batch) override {
    sizes.push_back(batch->event_count());
    records.insert(records.end(), batch->events().begin(),
                   batch->events().end());
  }

  std::vector<size_t> sizes;
  std::vector<xml::BatchedEvent> records;

 private:
  std::vector<std::unique_ptr<xml::EventBatch>> batches_;
};

TEST(ElisionCaptureTest, RecordsGapsAndElidedAncestors) {
  using Kind = xml::BatchedEvent::Kind;
  util::SymbolTable& symbols = util::SymbolTable::Global();
  xml::ElementInterest interest;
  for (const char* name : {"r", "b"}) {
    const size_t s = static_cast<size_t>(symbols.Intern(name));
    if (s >= interest.size()) interest.resize(s + 1);
    interest[s] = 1;
  }
  // x (one attribute) is elided but has a kept child, so it becomes an
  // elided start; the text run and <y/> only fold into gaps.
  const std::string doc = "<r><x q=\"1\">t<b/></x><y/><b/></r>";
  const std::vector<Kind> expected = {
      Kind::kStartDocument, Kind::kStartElement, Kind::kElidedStart,
      Kind::kGap,           Kind::kStartElement, Kind::kEndElement,
      Kind::kEndElement,    Kind::kGap,          Kind::kStartElement,
      Kind::kEndElement,    Kind::kEndElement,   Kind::kEndDocument};
  for (size_t budget : {1u, 3u, 256u}) {
    RecordingSink sink;
    xml::EventBatcher batcher(&sink, budget, 32 * 1024);
    batcher.set_element_interest(&interest);
    ASSERT_TRUE(xml::ParseString(doc, &batcher).ok());
    std::vector<Kind> kinds;
    for (const xml::BatchedEvent& record : sink.records) {
      kinds.push_back(record.kind);
    }
    EXPECT_EQ(kinds, expected) << "budget " << budget;
    for (size_t size : sink.sizes) EXPECT_LE(size, budget);
    ASSERT_EQ(sink.records.size(), expected.size());
    EXPECT_EQ(sink.records[2].attr_count, 1u);
    // Ids between <x>'s attribute and <b>: the text run.
    EXPECT_EQ(sink.records[3].gap_node_ids(), 1u);
    EXPECT_EQ(sink.records[3].gap_elements(), 0u);
    // <y/>: one id, one element, elided.
    EXPECT_EQ(sink.records[7].gap_node_ids(), 1u);
    EXPECT_EQ(sink.records[7].gap_elements(), 1u);
    EXPECT_EQ(sink.records[7].gap_elided(), 1u);
    EXPECT_EQ(batcher.events_elided(), 3u);  // t, <y>, </y>
  }
}

// Engine-backed subscriptions only: no shared matcher, so elision is on
// whenever no engine is always-dispatch or reads text.
core::EngineOptions EngineBacked() {
  core::EngineOptions options;
  options.enable_shared_index = false;
  return options;
}

struct ElisionOutcome {
  uint64_t events_elided = 0;
  std::string off_reason;  // empty when elision was on
};

// Runs `expressions` over each of `documents` in turn, through a
// BatchedDispatcher (which elides whenever that is exact) and per-event
// into a twin evaluator, with each evaluator's own projection filter when
// `projection`. Requires verdicts and items (ordinals) to equal brute
// force, and item node ids, engines_skipped() and the EngineStats element
// counts to equal the per-event twin's after every document.
ElisionOutcome ExpectElisionExact(const std::vector<std::string>& expressions,
                                  const std::vector<std::string>& documents,
                                  size_t batch_events,
                                  core::EngineOptions options = EngineBacked(),
                                  bool projection = false) {
  std::vector<core::Query> queries = CompileAll(expressions);
  EXPECT_EQ(queries.size(), expressions.size());
  core::MultiQueryEvaluator batched(options);
  core::MultiQueryEvaluator per_event(options);
  for (const core::Query& query : queries) {
    batched.AddQuery(query);
    per_event.AddQuery(query);
  }
  core::BatchedDispatchOptions dispatch_options;
  dispatch_options.max_batch_events = batch_events;
  core::BatchedDispatcher dispatcher(&batched, dispatch_options);
  xml::ParserOptions batched_parse;
  xml::ParserOptions per_event_parse;
  if (projection) {
    batched_parse.projection_filter = batched.projection_filter();
    per_event_parse.projection_filter = per_event.projection_filter();
    EXPECT_NE(batched_parse.projection_filter, nullptr);
  }
  const std::string route = "batched, budget " + std::to_string(batch_events);
  for (const std::string& doc : documents) {
    EXPECT_TRUE(xml::ParseString(doc, &dispatcher, batched_parse).ok());
    EXPECT_TRUE(xml::ParseString(doc, &per_event, per_event_parse).ok());
    ExpectEqualsBruteForce(batched, queries, BruteForce(queries, doc),
                           route + ", " + doc);
    for (size_t q = 0; q < queries.size(); ++q) {
      const core::QueryResult want = per_event.Result(q);
      const core::QueryResult got = batched.Result(q);
      EXPECT_EQ(want.items.size(), got.items.size()) << route;
      for (size_t i = 0; i < std::min(want.items.size(), got.items.size());
           ++i) {
        EXPECT_EQ(want.items[i].info.id, got.items[i].info.id)
            << route << ", " << expressions[q] << " item " << i;
      }
    }
    EXPECT_EQ(per_event.engines_skipped(), batched.engines_skipped())
        << route << ", " << doc;
    const core::EngineStats want = per_event.AggregateStats();
    const core::EngineStats got = batched.AggregateStats();
    EXPECT_EQ(want.elements_total, got.elements_total) << route;
    EXPECT_EQ(want.elements_discarded, got.elements_discarded) << route;
  }
  ElisionOutcome outcome;
  outcome.events_elided = dispatcher.events_elided();
  const char* reason = batched.elision_off_reason();
  outcome.off_reason = reason != nullptr ? reason : "";
  return outcome;
}

TEST(ElisionTest, ChildStepThroughElidedParent) {
  // Without the elided-start record for <x>, the <b> inside it would look
  // like a child of <a>; without the gap before <x> (text, <w/>) or <x>'s
  // attribute id, every later id and ordinal would shift.
  for (size_t budget : {1u, 3u, 256u}) {
    const ElisionOutcome outcome = ExpectElisionExact(
        {"//a/b"}, {"<a>s<w/><x k=\"1\">t<y/><b/></x>t<y/><b/></a>"},
        budget);
    EXPECT_EQ(outcome.off_reason, "");
    EXPECT_GT(outcome.events_elided, 0u);
  }
}

TEST(ElisionTest, BackwardAxesAcrossElidedLevels) {
  const std::vector<std::string> expressions = {
      "//c/ancestor::a", "//c/parent::a", "//c/parent::y",
      "//c[ancestor::a]", "//a[c]"};
  const std::vector<std::string> documents = {
      "<a><x><y><c/></y></x><c/><z>t<a><q/></a></z></a>",
      "<r><y><x><c/></x></y><a><y k=\"2\"><c/></y></a></r>"};
  for (size_t budget : {1u, 3u, 256u}) {
    const ElisionOutcome outcome =
        ExpectElisionExact(expressions, documents, budget);
    EXPECT_EQ(outcome.off_reason, "");
    EXPECT_GT(outcome.events_elided, 0u);
  }
  // `..` is a parent step to any element: a wildcard, so no elision, and
  // the results still hold.
  for (size_t budget : {1u, 3u, 256u}) {
    const ElisionOutcome outcome =
        ExpectElisionExact({"//c/..", "//c/ancestor::a"}, documents, budget);
    EXPECT_EQ(outcome.off_reason, "wildcard step");
    EXPECT_EQ(outcome.events_elided, 0u);
  }
}

TEST(ElisionTest, ElementKeptOnlyForAttributeName) {
  // <x k> indexes the //a/@k engine through its attribute alone; it is
  // delivered, so it must keep its record and its attributes.
  const std::vector<std::string> documents = {
      "<r><x k=\"1\"><a k=\"2\"/><a/></x><w j=\"3\">t</w><a k=\"4\"/></r>"};
  for (size_t budget : {1u, 3u, 256u}) {
    const ElisionOutcome outcome =
        ExpectElisionExact({"//a/@k", "//x[@k]/a"}, documents, budget);
    EXPECT_EQ(outcome.off_reason, "");
    EXPECT_GT(outcome.events_elided, 0u);
  }
}

TEST(ElisionTest, ProjectionSkipInsideElidedStretch) {
  // /r/a//b keeps whole <a> subtrees and skips every other child of <r>;
  // inside <a>, <q> is elided. The <x> skip sits in the same gap as the
  // elided <q>s around it, and the last <q> becomes an elided start.
  const std::string doc =
      "<r><a><q><z/></q></a><x><w/>t</x><a><q/>u<q><b/></q></a></r>";
  for (size_t budget : {1u, 3u, 256u}) {
    const ElisionOutcome outcome =
        ExpectElisionExact({"/r/a//b"}, {doc, doc}, budget, EngineBacked(),
                           /*projection=*/true);
    EXPECT_EQ(outcome.off_reason, "");
    EXPECT_GT(outcome.events_elided, 0u);
  }
}

TEST(ElisionTest, OffWhereItWouldNotBeExact) {
  const std::vector<std::string> documents = {kAxisDoc,
                                              "<a><q><b/></q><c/></a>"};
  struct Case {
    std::vector<std::string> expressions;
    core::EngineOptions options;
    const char* reason;
  };
  const Case cases[] = {
      {{"//a/*", "//b/c"}, EngineBacked(), "wildcard step"},
      {{"//c/following-sibling::a", "//b/c"}, EngineBacked(), "sibling axis"},
      {{"//e[text()='text']", "//b/c"}, EngineBacked(), "text test"},
      // Shareable chains run on the shared automaton, which steps on every
      // element.
      {{"/a/b/c", "//c/ancestor::a"}, core::EngineOptions(),
       "shared automaton"},
  };
  for (const Case& c : cases) {
    for (size_t budget : {1u, 3u, 256u}) {
      const ElisionOutcome outcome =
          ExpectElisionExact(c.expressions, documents, budget, c.options);
      EXPECT_EQ(outcome.off_reason, c.reason);
      EXPECT_EQ(outcome.events_elided, 0u) << c.reason;
    }
  }
}

TEST(ElisionTest, FirstDocumentSeesTheSharedMatcher) {
  // The shared index is built at the first document's StartDocument. If
  // the interest were read before it, the first document would be elided
  // under a fleet that has no matcher yet, and /a/x/b would never see <x>.
  const std::vector<std::string> expressions = {"/a/x/b", "//b/ancestor::a"};
  std::vector<core::Query> queries = CompileAll(expressions);
  core::MultiQueryEvaluator evaluator;
  for (const core::Query& query : queries) evaluator.AddQuery(query);
  core::BatchedDispatcher dispatcher(&evaluator);
  const std::string doc = "<a><x><b/></x></a>";
  ParseInto(doc, &dispatcher, 0);
  ExpectEqualsBruteForce(evaluator, queries, BruteForce(queries, doc),
                         "first document");
  EXPECT_TRUE(evaluator.Matched(0));
  EXPECT_EQ(dispatcher.events_elided(), 0u);
}

TEST(ElisionTest, AbortMidElidedStretchThenCleanDocument) {
  const std::vector<std::string> expressions = {"//a/b", "//b/ancestor::a"};
  std::vector<core::Query> queries = CompileAll(expressions);
  const std::string clean = "<a><x><b/>t</x><y/><b/></a>";
  const std::vector<Expected> expected = BruteForce(queries, clean);
  for (size_t budget : {1u, 3u, 256u}) {
    core::MultiQueryEvaluator batched(EngineBacked());
    core::MultiQueryEvaluator per_event(EngineBacked());
    for (const core::Query& query : queries) {
      batched.AddQuery(query);
      per_event.AddQuery(query);
    }
    core::BatchedDispatchOptions dispatch_options;
    dispatch_options.max_batch_events = budget;
    core::BatchedDispatcher dispatcher(&batched, dispatch_options);
    {
      // <x> and <y> are open, elided and unrecorded when the producer
      // gives up.
      xml::SaxParser parser(&dispatcher);
      ASSERT_TRUE(parser.Feed("<a><b/><x>t<y>").ok());
      dispatcher.AbortDocument(InternalError("producer died"));
    }
    const uint64_t skipped_before = batched.engines_skipped();
    ParseInto(clean, &dispatcher, 0);
    ParseInto(clean, &per_event, 0);
    ExpectEqualsBruteForce(batched, queries, expected,
                           "after abort, budget " + std::to_string(budget));
    EXPECT_EQ(batched.engines_skipped() - skipped_before,
              per_event.engines_skipped());
    EXPECT_EQ(batched.AggregateStats().elements_total,
              per_event.AggregateStats().elements_total);
  }
}

TEST(ElisionTest, RandomWorkloadsMatchBruteForce) {
  // Random pools, engine-backed: elision is on for every pool without a
  // wildcard, sibling or text test, and must not change any answer.
  gen::RandomQueryOptions query_options;
  gen::RandomDocOptions doc_options;
  doc_options.target_elements = 200;
  doc_options.max_noise_depth = 6;
  uint64_t elided = 0;
  for (uint64_t seed = 0; seed < 24; ++seed) {
    auto workload = gen::GenerateWorkload(query_options, doc_options, seed);
    ASSERT_TRUE(workload.ok()) << workload.status();
    for (size_t budget : {1u, 3u, 256u}) {
      elided += ExpectElisionExact({workload->expression},
                                   {workload->document}, budget)
                    .events_elided;
    }
  }
  EXPECT_GT(elided, 0u);
}

// --- projection filter reset ------------------------------------------------

TEST(BatchedProjectionTest, FilterResetsWhenTheParserStartsADocument) {
  // Regression: the evaluator used to reset its projection gate in its own
  // StartDocument, which the dispatcher replays only when the first batch
  // publishes. With a 3-record budget that is just after <a> opened: the
  // reset dropped the gate's kept-subtree watermark, so <q> (and the <b>
  // inside it) was skipped and /r/a//b missed its match.
  const std::string doc = "<r><a><q><b/></q></a></r>";
  for (const bool shared : {true, false}) {
    core::EngineOptions options;
    options.enable_shared_index = shared;
    core::MultiQueryEvaluator evaluator(options);
    StatusOr<core::Query> query = core::Query::Compile("/r/a//b");
    ASSERT_TRUE(query.ok());
    evaluator.AddQuery(*query);
    core::BatchedDispatchOptions dispatch_options;
    dispatch_options.max_batch_events = 3;
    core::BatchedDispatcher dispatcher(&evaluator, dispatch_options);
    xml::ParserOptions parse;
    parse.projection_filter = evaluator.projection_filter();
    ASSERT_NE(parse.projection_filter, nullptr);
    for (int round = 0; round < 2; ++round) {
      ASSERT_TRUE(xml::ParseString(doc, &dispatcher, parse).ok());
      EXPECT_TRUE(evaluator.Matched(0)) << "shared " << shared;
    }
  }
}

}  // namespace
}  // namespace xaos
