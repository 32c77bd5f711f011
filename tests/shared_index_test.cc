// Shared-prefix subscription index tests: hash-consing of the merged
// automaton (identical chains share states, near-misses do not), the
// shareability classifier, byte-identical duplicate dedupe, and the
// differential contract — the shared backend's verdicts and result items
// must equal the per-engine MultiQueryEvaluator's over hand-picked axis
// corpora, random workloads, chunked feeds, and ParallelFleet shardings,
// and the brute-force matcher's over a stream of documents through one
// reused evaluator. Plus subscriptions added between documents.

#include <memory>
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
#include "query/xtree_builder.h"
#include "xml/sax_parser.h"

namespace xaos {
namespace {

std::vector<query::XTree> Compile(const std::string& expression) {
  StatusOr<std::vector<query::XTree>> trees =
      query::CompileToXTrees(expression, /*max_paths=*/64);
  EXPECT_TRUE(trees.ok()) << expression << ": " << trees.status();
  return std::move(*trees);
}

// --- hash-consing -----------------------------------------------------------

TEST(SharedIndexBuilderTest, IdenticalQueriesShareAllStates) {
  core::SharedIndexBuilder builder;
  std::vector<query::XTree> trees = Compile("/a/b/c");
  ASSERT_TRUE(core::SharedIndexBuilder::Shareable(trees));
  builder.AddSubscription(trees);
  size_t after_first = builder.state_count();
  EXPECT_EQ(after_first, 4u);  // root + a + b + c
  EXPECT_EQ(builder.MarginalStates(trees), 0u);
  builder.AddSubscription(trees);
  EXPECT_EQ(builder.state_count(), after_first);  // fully shared
  EXPECT_EQ(builder.subscription_count(), 2u);
}

TEST(SharedIndexBuilderTest, SharedPrefixDivergentSuffix) {
  core::SharedIndexBuilder builder;
  builder.AddSubscription(Compile("/a/b/c"));
  // Shares root->a->b, adds one state for d.
  std::vector<query::XTree> second = Compile("/a/b/d");
  EXPECT_EQ(builder.MarginalStates(second), 1u);
  builder.AddSubscription(second);
  EXPECT_EQ(builder.state_count(), 5u);
}

TEST(SharedIndexBuilderTest, NearMissesDoNotShare) {
  // Same symbols but different axis or test kind must land on distinct
  // states: "/a/b" vs "//a/b" vs "/a/*".
  core::SharedIndexBuilder builder;
  builder.AddSubscription(Compile("/a/b"));
  size_t child_named = builder.state_count();
  builder.AddSubscription(Compile("//a/b"));
  EXPECT_GT(builder.state_count(), child_named);  // descendant != child
  size_t with_desc = builder.state_count();
  builder.AddSubscription(Compile("/a/*"));
  EXPECT_GT(builder.state_count(), with_desc);  // wildcard != named
}

TEST(SharedIndexBuilderTest, ShareabilityClassifier) {
  // Linear forward chains with element/wildcard tests share.
  EXPECT_TRUE(core::SharedIndexBuilder::Shareable(Compile("/a/b/c")));
  EXPECT_TRUE(core::SharedIndexBuilder::Shareable(Compile("//a//b")));
  EXPECT_TRUE(core::SharedIndexBuilder::Shareable(Compile("/a/*/c")));
  EXPECT_TRUE(core::SharedIndexBuilder::Shareable(Compile("//x")));
  // Predicates, backward axes, siblings, attributes, text: per-engine.
  EXPECT_FALSE(core::SharedIndexBuilder::Shareable(Compile("//a[b]/c")));
  EXPECT_FALSE(core::SharedIndexBuilder::Shareable(Compile("//c/ancestor::a")));
  EXPECT_FALSE(
      core::SharedIndexBuilder::Shareable(Compile("//c/following-sibling::d")));
  EXPECT_FALSE(core::SharedIndexBuilder::Shareable(Compile("//a[@k]")));
  EXPECT_FALSE(core::SharedIndexBuilder::Shareable(Compile("//a/@k")));
  EXPECT_FALSE(
      core::SharedIndexBuilder::Shareable(Compile("//e[text()='t']")));
}

TEST(SharedIndexBuilderTest, SharingRatioReflectsMerging) {
  core::SharedIndexBuilder builder;
  std::vector<query::XTree> trees = Compile("/a/b/c");
  for (int i = 0; i < 10; ++i) builder.AddSubscription(trees);
  std::unique_ptr<core::SharedIndex> index = builder.Build();
  // 10 identical 3-step chains collapsed into 3 states: 100 per mille.
  EXPECT_EQ(index->stats().chain_nodes, 30u);
  EXPECT_EQ(index->state_count(), 4u);
  EXPECT_EQ(index->SharingRatioPermille(), 100);
}

// --- duplicate dedupe -------------------------------------------------------

TEST(MultiQuerySharedTest, ByteIdenticalQueriesAlias) {
  StatusOr<core::Query> query = core::Query::Compile("//b/c");
  ASSERT_TRUE(query.ok());
  core::MultiQueryEvaluator multi;
  size_t q0 = multi.AddQuery(*query);
  size_t q1 = multi.AddQuery(*query);
  size_t q2 = multi.AddQuery(*query);
  EXPECT_EQ(multi.alias_count(), 2u);
  EXPECT_EQ(multi.shared_subscription_count(), 3u);
  ASSERT_TRUE(xml::ParseString("<a><b><c/></b></a>", &multi).ok());
  for (size_t q : {q0, q1, q2}) {
    EXPECT_TRUE(multi.Matched(q));
    EXPECT_EQ(multi.Result(q).items.size(), 1u);
  }
}

TEST(MultiQuerySharedTest, UnshareableDuplicatesAliasToo) {
  // The dedupe is independent of the shared backend: an unshareable
  // expression repeated N times still runs its engines once.
  StatusOr<core::Query> query = core::Query::Compile("//c/ancestor::a");
  ASSERT_TRUE(query.ok());
  core::MultiQueryEvaluator multi;
  size_t q0 = multi.AddQuery(*query);
  size_t q1 = multi.AddQuery(*query);
  EXPECT_EQ(multi.alias_count(), 1u);
  size_t engines_before = multi.engine_count();
  EXPECT_GT(engines_before, 0u);
  ASSERT_TRUE(xml::ParseString("<a><b><c/></b></a>", &multi).ok());
  EXPECT_TRUE(multi.Matched(q0));
  EXPECT_TRUE(multi.Matched(q1));
  EXPECT_EQ(baseline::CanonicalFromResult(multi.Result(q0)),
            baseline::CanonicalFromResult(multi.Result(q1)));
}

// --- differential: shared backend vs per-engine oracle ----------------------

// Runs `expressions` over `xml` through a shared-enabled and a
// shared-disabled MultiQueryEvaluator and requires identical verdicts and
// canonical result items per query. Optionally feeds the parser in chunks
// of `chunk` bytes (0 = one shot).
void ExpectSharedTransparent(const std::vector<std::string>& expressions,
                             const std::string& xml, size_t chunk = 0) {
  std::vector<core::Query> queries;
  for (const std::string& expression : expressions) {
    StatusOr<core::Query> query = core::Query::Compile(expression);
    ASSERT_TRUE(query.ok()) << expression << ": " << query.status();
    queries.push_back(std::move(*query));
  }

  core::MultiQueryEvaluator shared;
  core::EngineOptions oracle_options;
  oracle_options.enable_shared_index = false;
  core::MultiQueryEvaluator oracle(oracle_options);
  for (const core::Query& query : queries) {
    shared.AddQuery(query);
    oracle.AddQuery(query);
  }
  EXPECT_EQ(oracle.shared_subscription_count(), 0u);

  auto parse = [&](core::MultiQueryEvaluator* evaluator) {
    if (chunk == 0) {
      ASSERT_TRUE(xml::ParseString(xml, evaluator).ok());
      return;
    }
    xml::SaxParser parser(evaluator);
    for (size_t i = 0; i < xml.size(); i += chunk) {
      ASSERT_TRUE(
          parser.Feed(std::string_view(xml).substr(i, chunk)).ok());
    }
    ASSERT_TRUE(parser.Finish().ok());
  };
  parse(&shared);
  parse(&oracle);
  ASSERT_TRUE(shared.status().ok()) << shared.status();
  ASSERT_TRUE(oracle.status().ok()) << oracle.status();

  for (size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(oracle.Matched(q), shared.Matched(q))
        << "verdict mismatch for " << expressions[q];
    EXPECT_EQ(oracle.MatchConfirmed(q), shared.MatchConfirmed(q))
        << "confirmation mismatch for " << expressions[q];
    EXPECT_EQ(baseline::CanonicalFromResult(oracle.Result(q)),
              baseline::CanonicalFromResult(shared.Result(q)))
        << "result mismatch for " << expressions[q];
  }
}

const char kAxisDoc[] =
    "<a k=\"1\"><b><a><c/></a><d/></b><c/>"
    "<b x=\"y\"><c/><a/><e>text</e></b></a>";

// Shareable chains, unshareable queries, and duplicates side by side: the
// mixed pool exercises all three backends and the verdict fan-out.
const char* const kAxisCorpus[] = {
    "/a/b/c",          "/a/b/c",
    "//a//c",          "//c",
    "/a/*/c",          "//*",
    "//b/a",           "//zzz",
    "//c/ancestor::a", "//b[c]/a | //a[c]",
    "//b[@x]",         "//c/following-sibling::a",
    "//e[text()='text']",
};

TEST(SharedDifferentialTest, AxisCorpus) {
  ExpectSharedTransparent(
      std::vector<std::string>(kAxisCorpus,
                               kAxisCorpus + std::size(kAxisCorpus)),
      kAxisDoc);
}

TEST(SharedDifferentialTest, ChunkedFeeds) {
  std::vector<std::string> expressions(kAxisCorpus,
                                       kAxisCorpus + std::size(kAxisCorpus));
  for (size_t chunk : {1u, 3u, 16u}) {
    ExpectSharedTransparent(expressions, kAxisDoc, chunk);
  }
}

TEST(SharedDifferentialTest, ReuseAndAbortAcrossDocuments) {
  StatusOr<core::Query> query = core::Query::Compile("/a/b/c");
  ASSERT_TRUE(query.ok());
  core::MultiQueryEvaluator multi;
  size_t q = multi.AddQuery(*query);
  ASSERT_TRUE(xml::ParseString("<a><b><c/></b></a>", &multi).ok());
  EXPECT_TRUE(multi.Matched(q));
  // A non-matching document on the same evaluator resets the verdict.
  ASSERT_TRUE(xml::ParseString("<a><b/><c/></a>", &multi).ok());
  EXPECT_FALSE(multi.Matched(q));
  // An aborted document never reports matched, even though the automaton
  // had already confirmed the subscription mid-stream.
  multi.StartDocument();
  xml::QName a("a", util::SymbolTable::Global().Intern("a"));
  xml::QName b("b", util::SymbolTable::Global().Intern("b"));
  xml::QName c("c", util::SymbolTable::Global().Intern("c"));
  multi.StartElement(a, {});
  multi.StartElement(b, {});
  multi.StartElement(c, {});
  EXPECT_TRUE(multi.MatchConfirmed(q));
  multi.AbortDocument(InternalError("producer died"));
  EXPECT_FALSE(multi.Matched(q));
  EXPECT_FALSE(multi.status().ok());
  // The evaluator stays reusable.
  ASSERT_TRUE(xml::ParseString("<a><b><c/></b></a>", &multi).ok());
  EXPECT_TRUE(multi.Matched(q));
}

class SharedRandomDifferentialTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SharedRandomDifferentialTest, MatchesOracle) {
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
  for (const std::string& document : documents) {
    ExpectSharedTransparent(expressions, document);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SharedRandomDifferentialTest,
                         ::testing::Range<uint64_t>(0, 15));

// --- ParallelFleet sharding -------------------------------------------------

TEST(SharedParallelTest, WorkersAgreeWithOracle) {
  std::vector<std::string> expressions(kAxisCorpus,
                                       kAxisCorpus + std::size(kAxisCorpus));
  // Pad with shareable chains so every shard gets shared subscriptions.
  for (int i = 0; i < 8; ++i) {
    expressions.push_back("//b/absent_" + std::to_string(i));
    expressions.push_back("/a/b/c");  // duplicates alias within each shard
  }
  std::vector<core::Query> queries;
  for (const std::string& expression : expressions) {
    StatusOr<core::Query> query = core::Query::Compile(expression);
    ASSERT_TRUE(query.ok()) << expression << ": " << query.status();
    queries.push_back(std::move(*query));
  }

  core::EngineOptions oracle_options;
  oracle_options.enable_shared_index = false;
  core::MultiQueryEvaluator oracle(oracle_options);
  for (const core::Query& query : queries) oracle.AddQuery(query);
  ASSERT_TRUE(xml::ParseString(kAxisDoc, &oracle).ok());

  for (int workers : {1, 2, 4}) {
    core::ParallelFleetOptions options;
    options.num_workers = workers;
    core::ParallelFleet fleet(options);
    for (const core::Query& query : queries) fleet.AddQuery(query);
    ASSERT_TRUE(xml::ParseString(kAxisDoc, &fleet).ok());
    ASSERT_TRUE(fleet.status().ok()) << fleet.status();
    for (size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(oracle.Matched(q), fleet.Matched(q))
          << "workers=" << workers << " query " << expressions[q];
      EXPECT_EQ(baseline::CanonicalFromResult(oracle.Result(q)),
                baseline::CanonicalFromResult(fleet.Result(q)))
          << "workers=" << workers << " query " << expressions[q];
    }
  }
}

// --- subscriptions added between documents ---------------------------------

TEST(SharedLateSubscriptionTest, AddedBetweenDocumentsReportsNoMatch) {
  core::MultiQueryEvaluator multi;
  StatusOr<core::Query> first = core::Query::Compile("/a/b/c");
  ASSERT_TRUE(first.ok());
  const size_t q0 = multi.AddQuery(*first);
  ASSERT_TRUE(xml::ParseString("<a><b><c/></b></a>", &multi).ok());
  ASSERT_TRUE(multi.Matched(q0));

  // 64 distinct shareable subscriptions join after the document; the
  // matcher was built for one. Several would match the finished document.
  std::vector<size_t> late;
  for (int i = 0; i < 64; ++i) {
    // Even i: i wildcard steps above //c; odd i: a name no document has.
    std::string expression;
    if (i % 2 == 0) {
      for (int k = 0; k < i; ++k) expression += "/*";
      expression += "//c";
    } else {
      expression = "//zzz_";
      expression += std::to_string(i);
    }
    StatusOr<core::Query> query = core::Query::Compile(expression);
    ASSERT_TRUE(query.ok()) << expression << ": " << query.status();
    late.push_back(multi.AddQuery(*query));
  }
  EXPECT_EQ(multi.alias_count(), 0u);
  EXPECT_EQ(multi.shared_subscription_count(), 65u);

  // Until the next StartDocument they have seen no document.
  for (const size_t q : late) {
    EXPECT_FALSE(multi.Matched(q)) << q;
    EXPECT_FALSE(multi.MatchConfirmed(q)) << q;
  }
  const core::QueryResult result = multi.Result(late.back());
  EXPECT_FALSE(result.matched);
  EXPECT_TRUE(result.items.empty());
  EXPECT_EQ(multi.MatchedQueries(), std::vector<size_t>{q0});

  // The next document covers them.
  ASSERT_TRUE(xml::ParseString("<a><b><c/></b></a>", &multi).ok());
  EXPECT_TRUE(multi.Matched(q0));
  EXPECT_TRUE(multi.Matched(late[0]));   // //c
  EXPECT_TRUE(multi.Matched(late[2]));   // /*/*//c
  EXPECT_FALSE(multi.Matched(late[1]));  // //zzz_1
  EXPECT_EQ(multi.Result(late[0]).items.size(), 1u);
}

// --- differential: one reused evaluator vs brute force ----------------------

// Brute-force verdict and canonical items of one query (disjuncts unioned)
// over `xml`.
struct Expected {
  bool matched = false;
  std::vector<baseline::CanonicalItem> items;
};

Expected BruteForce(const core::Query& query, const std::string& xml) {
  Expected expected;
  StatusOr<dom::Document> doc = dom::ParseToDocument(xml);
  EXPECT_TRUE(doc.ok()) << doc.status();
  if (!doc.ok()) return expected;
  std::set<baseline::CanonicalItem> items;
  for (const query::XTree& tree : query.trees()) {
    baseline::BruteForceOutcome outcome = baseline::BruteForceMatch(*doc, tree);
    EXPECT_TRUE(outcome.complete) << query.expression();
    expected.matched = expected.matched || outcome.matched;
    items.insert(outcome.items.begin(), outcome.items.end());
  }
  expected.items.assign(items.begin(), items.end());
  return expected;
}

// One document of a stream. `aborted` documents are fed as far as `xml`
// goes and then abandoned, as a router does on a producer failure.
struct StreamDocument {
  std::string xml;
  bool aborted = false;
};

TEST(SharedStreamTest, ReusedEvaluatorMatchesBruteForceEveryDocument) {
  // Shared chains with aliases (repeats), shareable disjunctions selecting
  // one element twice, and per-engine queries with an alias of their own.
  const std::vector<std::string> initial = {
      "/a/b/c",        "/a/b/c",          "//c",
      "//c",           "/a/*/c",          "//b//c",
      "//d",           "//zzz",           "//b/c | /a/b/c",
      "/a/e | //e",    "//c/ancestor::a", "//c/ancestor::a",
      "//b[d]",        "//*",
  };
  // Subscriptions joining mid-stream: new chains, and aliases of both a
  // shared and a per-engine canonical query.
  const std::vector<std::string> joining = {
      "//e/c", "/a/b/c", "//c/ancestor::a", "/x//z",
  };
  const std::vector<StreamDocument> stream = {
      {"<a><b><c/></b><d/></a>"},
      // Matches none of the item-producing chains the previous one did: a
      // stale item or verdict would leak through the confirmed-list reset.
      {"<x><y><z/></y></x>"},
      // Confirms /a/b/c and //c mid-stream, then the producer dies.
      {"<a><b><c/><c/>", /*aborted=*/true},
      {"<a><e><c/></e><b><d/><c/><c/></b></a>"},
      {"<x><z/><y><z/></y></x>"},
      {"<a><b><b><c/></b><d/></b><e/><c/></a>"},
  };

  std::vector<core::Query> queries;
  auto add = [&](const std::string& expression) {
    StatusOr<core::Query> query = core::Query::Compile(expression);
    ASSERT_TRUE(query.ok()) << expression << ": " << query.status();
    queries.push_back(std::move(*query));
  };
  for (const std::string& expression : initial) add(expression);

  core::MultiQueryEvaluator full;
  core::EngineOptions bool_options;
  bool_options.stop_after_confirmed_match = true;
  core::MultiQueryEvaluator bool_only(bool_options);
  for (const core::Query& query : queries) {
    full.AddQuery(query);
    bool_only.AddQuery(query);
  }
  // Both evaluators take the production route: batched dispatch.
  core::BatchedDispatcher full_dispatcher(&full);
  core::BatchedDispatcher bool_dispatcher(&bool_only);

  for (size_t d = 0; d < stream.size(); ++d) {
    if (d == 3) {
      for (const std::string& expression : joining) {
        add(expression);
        full.AddQuery(queries.back());
        bool_only.AddQuery(queries.back());
      }
    }
    const StreamDocument& doc = stream[d];
    const std::string context = "document " + std::to_string(d);
    for (core::BatchedDispatcher* dispatcher :
         {&full_dispatcher, &bool_dispatcher}) {
      if (doc.aborted) {
        xml::SaxParser parser(dispatcher);
        ASSERT_TRUE(parser.Feed(doc.xml).ok()) << context;
        dispatcher->Flush();
        ASSERT_TRUE(full.MatchConfirmed(0)) << context;  // /a/b/c
        dispatcher->AbortDocument(InternalError("producer died"));
      } else {
        ASSERT_TRUE(xml::ParseString(doc.xml, dispatcher).ok()) << context;
      }
    }
    ASSERT_EQ(full.status().ok(), !doc.aborted) << context;

    std::vector<size_t> expected_matched;
    for (size_t q = 0; q < queries.size(); ++q) {
      const Expected expected =
          doc.aborted ? Expected{} : BruteForce(queries[q], doc.xml);
      if (expected.matched) expected_matched.push_back(q);
      const std::string label = context + " " + queries[q].expression();
      EXPECT_EQ(expected.matched, full.Matched(q)) << label;
      EXPECT_EQ(expected.items,
                baseline::CanonicalFromResult(full.Result(q)))
          << label;
      EXPECT_EQ(expected.matched, bool_only.Matched(q)) << label;
    }
    EXPECT_EQ(expected_matched, full.MatchedQueries()) << context;
    EXPECT_EQ(expected_matched, bool_only.MatchedQueries()) << context;

    // Pin a tiny set-interner limit on every matcher the stream builds, so
    // later documents rebase the universe over and over.
    for (core::MultiQueryEvaluator* evaluator : {&full, &bool_only}) {
      core::SharedMatcher* matcher = evaluator->shared_matcher_for_test();
      ASSERT_NE(matcher, nullptr);
      matcher->set_flat_set_limit_for_test(4);
    }
  }
  // The matchers rebuilt when subscriptions joined rebased since.
  EXPECT_GT(full.shared_matcher_for_test()->universe_resets(), 0u);
  EXPECT_GT(bool_only.shared_matcher_for_test()->universe_resets(), 0u);
}

}  // namespace
}  // namespace xaos
