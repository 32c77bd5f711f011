// Multi-query evaluator tests: the label-indexed dispatch fleet must be
// observationally identical to naive per-query fan-out (same verdicts, same
// result items, byte for byte) across hand-picked axis coverage and the
// random workload generator — plus presence tests for the hot-path
// observability counters.

#include <malloc.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "baseline/brute_force_matcher.h"
#include "baseline/compare.h"
#include "core/multi_engine.h"
#include "dom/dom_builder.h"
#include "gen/random_workload.h"
#include "gtest/gtest.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "util/symbol_table.h"
#include "xml/sax_parser.h"

namespace xaos {
namespace {

using baseline::CanonicalItem;

// Evaluates every expression naively (independent StreamingEvaluator per
// query) and through one shared MultiQueryEvaluator, and requires identical
// matched flags and canonical result items per query.
void ExpectDispatchTransparent(const std::vector<std::string>& expressions,
                               const std::string& xml) {
  std::vector<core::Query> queries;
  for (const std::string& expression : expressions) {
    StatusOr<core::Query> query = core::Query::Compile(expression);
    ASSERT_TRUE(query.ok()) << expression << ": " << query.status();
    queries.push_back(std::move(*query));
  }

  core::MultiQueryEvaluator multi;
  for (const core::Query& query : queries) multi.AddQuery(query);
  ASSERT_TRUE(xml::ParseString(xml, &multi).ok());
  ASSERT_TRUE(multi.status().ok()) << multi.status();

  for (size_t q = 0; q < queries.size(); ++q) {
    core::StreamingEvaluator naive(queries[q]);
    ASSERT_TRUE(xml::ParseString(xml, &naive).ok());
    ASSERT_TRUE(naive.status().ok()) << naive.status();

    core::QueryResult naive_result = naive.Result();
    core::QueryResult multi_result = multi.Result(q);
    EXPECT_EQ(naive_result.matched, multi_result.matched)
        << "verdict mismatch for " << expressions[q];
    EXPECT_EQ(baseline::CanonicalFromResult(naive_result),
              baseline::CanonicalFromResult(multi_result))
        << "result mismatch for " << expressions[q];
  }
}

TEST(MultiQueryEvaluatorTest, AxisCoverage) {
  const std::string doc =
      "<a k=\"1\"><b><a><c/></a><d/></b><c/>"
      "<b x=\"y\"><c/><a/><e>text</e></b></a>";
  ExpectDispatchTransparent(
      {
          "//a//c",                           // descendant
          "//c/ancestor::a",                  // backward axis
          "/a/b/a/c",                         // child spine
          "//*[c]",                           // wildcard (always-dispatch)
          "//b[@x]",                          // attribute test
          "//c/following-sibling::a",         // sibling (dense stack)
          "//e[text()='text']",               // text test
          "//b[c]/a | //a[c]",                // union
          "//zzz",                            // label absent: never woken
          "//d/parent::b",                    // parent
      },
      doc);
}

TEST(MultiQueryEvaluatorTest, MixedRelevantAndIrrelevantQueries) {
  // One matching query among many whose labels never occur: the dispatch
  // index must keep the idle engines byte-identical to naive (no verdicts,
  // empty results) while the live one still sees everything it needs.
  std::vector<std::string> expressions = {"//b/c"};
  for (int i = 0; i < 20; ++i) {
    expressions.push_back("//absent_" + std::to_string(i) + "/name");
  }
  ExpectDispatchTransparent(expressions, "<a><b><c/></b><b/></a>");
}

// Random workloads: several generated (query, document) pairs per seed,
// all queries evaluated over each document.
class RandomMultiQueryTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomMultiQueryTest, DispatchTransparent) {
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
  // Cross products: each document was built for one of the queries; the
  // other three exercise partial/failed matching under dispatch filtering.
  for (const std::string& document : documents) {
    ExpectDispatchTransparent(expressions, document);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMultiQueryTest,
                         ::testing::Range<uint64_t>(0, 30));

TEST(MultiQueryEvaluatorTest, ReuseAcrossDocuments) {
  StatusOr<core::Query> query = core::Query::Compile("//b/c");
  ASSERT_TRUE(query.ok());
  core::MultiQueryEvaluator multi;
  size_t q = multi.AddQuery(*query);
  ASSERT_TRUE(xml::ParseString("<a><b><c/></b></a>", &multi).ok());
  EXPECT_TRUE(multi.Matched(q));
  ASSERT_TRUE(xml::ParseString("<a><b/><c/></a>", &multi).ok());
  EXPECT_FALSE(multi.Matched(q));
}

// Heap bytes in use (glibc), as perfbench measures them: large blocks are
// mmapped and counted in hblkhd, not uordblks.
int64_t HeapInUse() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<int64_t>(info.uordblks + info.hblkhd);
}

// A byte-identical repeat of an earlier expression holds no x-trees of its
// own: 1,000 separately compiled copies of a shared chain and of an
// engine-backed query, each Query dropped after AddQuery, grow the heap by
// a route word and an alias link apiece (8 bytes, plus vector growth), not
// by a compiled query. Their verdicts
// still fan out from the canonical copy and equal brute force.
TEST(MultiQueryEvaluatorTest, AliasesHoldNoTrees) {
  const std::vector<std::string> expressions = {"/site/people/person/name",
                                                "//a[b]/c"};
  constexpr size_t kCopies = 1000;
  core::MultiQueryEvaluator multi;
  for (const std::string& expression : expressions) {
    StatusOr<core::Query> query = core::Query::Compile(expression);
    ASSERT_TRUE(query.ok()) << query.status();
    multi.AddQuery(*query);
  }
  for (const std::string& expression : expressions) {
    const int64_t before = HeapInUse();
    for (size_t i = 0; i < kCopies; ++i) {
      StatusOr<core::Query> query = core::Query::Compile(expression);
      ASSERT_TRUE(query.ok()) << query.status();
      multi.AddQuery(*query);
    }
    const int64_t after = HeapInUse();
    EXPECT_LT(after - before, int64_t{32} * kCopies)
        << expression << ": " << (after - before) / int64_t{kCopies}
        << " bytes per alias";
  }
  ASSERT_EQ(multi.alias_count(), 2 * kCopies);
  ASSERT_EQ(multi.shared_subscription_count(), 1 + kCopies);

  for (const char* xml :
       {"<site><people><person><name/></person></people></site>",
        "<r><a><b/><c/></a></r>", "<a><c/><b/></a>", "<a><c/></a>"}) {
    StatusOr<dom::Document> doc = dom::ParseToDocument(xml);
    ASSERT_TRUE(doc.ok()) << doc.status();
    std::vector<bool> truth;
    for (const std::string& expression : expressions) {
      StatusOr<core::Query> query = core::Query::Compile(expression);
      ASSERT_TRUE(query.ok());
      baseline::BruteForceOutcome outcome =
          baseline::BruteForceMatch(*doc, query->trees().front());
      ASSERT_TRUE(outcome.complete);
      truth.push_back(outcome.matched);
    }
    ASSERT_TRUE(xml::ParseString(xml, &multi).ok()) << xml;
    std::vector<size_t> expected;
    for (size_t q = 0; q < multi.query_count(); ++q) {
      // The canonical copies come first, then a block of aliases per
      // expression.
      const size_t e = q < 2 ? q : (q - 2) / kCopies;
      EXPECT_EQ(multi.Matched(q), truth[e]) << xml << " q" << q;
      if (truth[e]) expected.push_back(q);
    }
    EXPECT_EQ(multi.MatchedQueries(), expected) << xml;
  }
}

// Every kind of query reads its label, verdicts and result through the
// dense route words and the side tables: labels given or derived for
// shared, alias and engine-backed queries; an or-query with two engines
// and two aliases, across documents; queries added after the last
// document started, which read not matched until the next one; and, with
// obs on, the latency series of a matched labeled alias.
TEST(MultiQueryEvaluatorTest, EveryKindOfQueryReadsThroughItsRoute) {
  obs::SetEnabled(true);  // runtime default is off; no-op when compiled out
  const std::string kEither = "//a[b] | //c/ancestor::r";
  obs::MetricsRegistry registry;
  core::EngineOptions options;
  options.metrics_registry = &registry;
  core::MultiQueryEvaluator multi(options);
  auto add = [&multi](const std::string& expression, std::string_view label) {
    StatusOr<core::Query> query = core::Query::Compile(expression);
    EXPECT_TRUE(query.ok()) << expression << ": " << query.status();
    return query.ok() ? multi.AddQuery(*query, label) : SIZE_MAX;
  };
  const size_t chain = add("/r/a", "");                // shared
  const size_t chain_alias = add("/r/a", "fan");       // alias of a shared
  const size_t either = add(kEither, "either");        // two engines
  const size_t either_alias = add(kEither, "");        // alias of an engine
  const size_t either_alias2 = add(kEither, "again");  // second alias
  const size_t backward = add("//c/ancestor::a", "");  // one engine
  ASSERT_EQ(multi.query_count(), 6u);
  EXPECT_EQ(multi.engine_count(), 3u);
  EXPECT_EQ(multi.alias_count(), 3u);
  EXPECT_EQ(multi.shared_subscription_count(), 2u);

  EXPECT_EQ(multi.query_label(chain), "q0");
  EXPECT_EQ(multi.query_label(chain_alias), "fan");
  EXPECT_EQ(multi.query_label(either), "either");
  EXPECT_EQ(multi.query_label(either_alias), "q3");
  EXPECT_EQ(multi.query_label(either_alias2), "again");
  EXPECT_EQ(multi.query_label(backward), "q5");

  // One evaluator per distinct expression is the reference.
  auto reference = [](const std::string& expression, const char* xml) {
    StatusOr<core::Query> query = core::Query::Compile(expression);
    EXPECT_TRUE(query.ok());
    core::StreamingEvaluator single(*query);
    EXPECT_TRUE(xml::ParseString(xml, &single).ok());
    return single.Result();
  };
  const std::vector<std::string> expressions = {
      "/r/a", "/r/a", kEither, kEither, kEither, "//c/ancestor::a"};
  struct Case {
    const char* xml;
    std::vector<size_t> matched;
    size_t either_items;  // the or-query's merged result
  };
  const std::vector<Case> cases = {
      {"<r><a><b/></a></r>", {0, 1, 2, 3, 4}, 1},         // first disjunct
      {"<r><c/></r>", {2, 3, 4}, 1},                      // second disjunct
      {"<r><a><b/><c/></a></r>", {0, 1, 2, 3, 4, 5}, 2},  // both, merged
      {"<x/>", {}, 0},
      {"<r><a><c/></a></r>", {0, 1, 2, 3, 4, 5}, 1},
  };
  for (const Case& c : cases) {
    ASSERT_TRUE(xml::ParseString(c.xml, &multi).ok()) << c.xml;
    EXPECT_EQ(multi.MatchedQueries(), c.matched) << c.xml;
    for (size_t q = 0; q < expressions.size(); ++q) {
      const core::QueryResult expected = reference(expressions[q], c.xml);
      EXPECT_EQ(multi.Matched(q), expected.matched) << c.xml << " q" << q;
      EXPECT_EQ(multi.MatchConfirmed(q), expected.matched)
          << c.xml << " q" << q;
      EXPECT_EQ(baseline::CanonicalFromResult(multi.Result(q)),
                baseline::CanonicalFromResult(expected))
          << c.xml << " q" << q;
    }
    for (const size_t q : {either, either_alias, either_alias2}) {
      EXPECT_EQ(multi.Result(q).items.size(), c.either_items) << c.xml;
    }
  }

  // Added after the last document started: an alias of each backend and a
  // new engine-backed query read not matched until the next document.
  const size_t late_chain = add("/r/a", "late");
  const size_t late_either = add(kEither, "");
  const size_t late_engine = add("//b/parent::a", "");
  for (const size_t q : {late_chain, late_either, late_engine}) {
    EXPECT_FALSE(multi.Matched(q)) << q;
    EXPECT_FALSE(multi.MatchConfirmed(q)) << q;
    EXPECT_FALSE(multi.Result(q).matched) << q;
    EXPECT_TRUE(multi.Result(q).items.empty()) << q;
  }
  EXPECT_EQ(multi.MatchedQueries(), (std::vector<size_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(multi.query_label(late_chain), "late");
  EXPECT_EQ(multi.query_label(late_engine), "q8");
  ASSERT_TRUE(xml::ParseString("<r><a><b/></a></r>", &multi).ok());
  EXPECT_EQ(multi.MatchedQueries(),
            (std::vector<size_t>{0, 1, 2, 3, 4, late_chain, late_either,
                                 late_engine}));

  if (obs::Enabled()) {
    // The labeled alias matched in three documents before the late
    // queries joined and once after.
    const obs::MetricsSnapshot snapshot = registry.Snapshot();
    for (const char* name :
         {"xaos_sub_match_latency_ns", "xaos_sub_first_match_ns"}) {
      const auto series = snapshot.histograms.find(
          std::string(name) + "{subscription=\"fan\"}");
      ASSERT_NE(series, snapshot.histograms.end()) << name;
      EXPECT_EQ(series->second.count, 4u) << name;
    }
    // An unlabeled alias reports under its derived label, and a labeled
    // one never under its index.
    EXPECT_NE(snapshot.histograms.find(
                  "xaos_sub_match_latency_ns{subscription=\"q3\"}"),
              snapshot.histograms.end());
    EXPECT_EQ(snapshot.histograms.find(
                  "xaos_sub_match_latency_ns{subscription=\"q1\"}"),
              snapshot.histograms.end());
  }
  obs::SetEnabled(false);
}

// --- the one-query evaluator ------------------------------------------------

// StreamingEvaluator is a MultiQueryEvaluator holding one query with the
// shared automaton forced off: a shareable chain stays engine-backed, so
// capture-time elision stays on.
TEST(StreamingEvaluatorTest, NeverRoutesThroughTheSharedAutomaton) {
  StatusOr<core::Query> query = core::Query::Compile("//a/b");
  ASSERT_TRUE(query.ok());
  core::StreamingEvaluator evaluator(*query);
  EXPECT_EQ(evaluator.query_count(), 1u);
  EXPECT_EQ(evaluator.shared_subscription_count(), 0u);
  EXPECT_EQ(evaluator.elision_off_reason(), nullptr);
  EXPECT_NE(evaluator.element_interest(), nullptr);
  EXPECT_EQ(evaluator.engines().size(), 1u);

  // Control: the same query in a default pool goes to the automaton, which
  // turns elision off.
  core::MultiQueryEvaluator multi;
  multi.AddQuery(*query);
  EXPECT_EQ(multi.shared_subscription_count(), 1u);
  EXPECT_NE(multi.elision_off_reason(), nullptr);
}

// An `or` query runs one engine per disjunct; a node both disjuncts select
// appears once, and the result equals the brute-force union.
TEST(StreamingEvaluatorTest, OrUnionEqualsBruteForce) {
  const std::string xml =
      "<r><a><b/><c/></a><a><b/></a><a><c/></a><a><d/></a>"
      "<b><a><c/><b/></a></b></r>";
  StatusOr<core::Query> query = core::Query::Compile("//a[b or c]");
  ASSERT_TRUE(query.ok());
  ASSERT_EQ(query->trees().size(), 2u);

  StatusOr<dom::Document> doc = dom::ParseToDocument(xml);
  ASSERT_TRUE(doc.ok()) << doc.status();
  std::set<CanonicalItem> expected;
  for (const query::XTree& tree : query->trees()) {
    baseline::BruteForceOutcome outcome = baseline::BruteForceMatch(*doc, tree);
    ASSERT_TRUE(outcome.complete && outcome.matched);
    expected.insert(outcome.items.begin(), outcome.items.end());
  }
  // Four `a`s match, two of them through both disjuncts.
  ASSERT_EQ(expected.size(), 4u);

  core::StreamingEvaluator evaluator(*query);
  ASSERT_TRUE(xml::ParseString(xml, &evaluator).ok());
  ASSERT_TRUE(evaluator.status().ok()) << evaluator.status();
  EXPECT_TRUE(evaluator.Result().matched);
  EXPECT_TRUE(evaluator.MatchConfirmed());
  EXPECT_EQ(baseline::CanonicalFromResult(evaluator.Result()),
            std::vector<CanonicalItem>(expected.begin(), expected.end()));
}

// --- names outside the query vocabulary ------------------------------------

// Runs `expressions` through one MultiQueryEvaluator (per-engine or shared
// backend) over `document`; returns every query's item names.
std::vector<std::vector<std::string>> RouteItemNames(
    const std::vector<std::string>& expressions, const std::string& document,
    bool shared_index) {
  core::EngineOptions options;
  options.enable_shared_index = shared_index;
  core::MultiQueryEvaluator multi(options);
  for (const std::string& expression : expressions) {
    StatusOr<core::Query> query = core::Query::Compile(expression);
    EXPECT_TRUE(query.ok()) << expression;
    if (query.ok()) multi.AddQuery(*query);
  }
  EXPECT_TRUE(xml::ParseString(document, &multi).ok()) << document;
  std::vector<std::vector<std::string>> names;
  for (size_t q = 0; q < multi.query_count(); ++q) {
    names.push_back(multi.Result(q).ItemNames());
  }
  return names;
}

TEST(UnknownNameTest, WildcardItemsCarryTheSpelling) {
  const std::string doc =
      "<wild_root wild_a=\"1\"><wild_child wild_b=\"2\"/></wild_root>";
  for (bool shared : {false, true}) {
    auto names = RouteItemNames({"//*", "//*/@*"}, doc, shared);
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], (std::vector<std::string>{"wild_root", "wild_child"}))
        << "shared=" << shared;
    EXPECT_EQ(names[1], (std::vector<std::string>{"wild_a", "wild_b"}))
        << "shared=" << shared;
  }
  EXPECT_EQ(util::SymbolTable::Global().Lookup("wild_child"),
            util::kInvalidSymbol);
}

// A name no query mentions while document 1 is parsed resolves to the
// unknown symbol; a subscription added before document 2 interns it, and
// document 2 resolves it afresh — no cached unknown entry survives.
TEST(UnknownNameTest, SubscriptionAddedBetweenDocumentsMatches) {
  for (bool shared : {false, true}) {
    const std::string s = shared ? "_s" : "_e";
    const std::string doc = "<late_root" + s + "><late_elem" + s +
                            " late_attr" + s + "=\"1\"/></late_root" + s +
                            ">";
    core::EngineOptions options;
    options.enable_shared_index = shared;
    core::MultiQueryEvaluator multi(options);
    StatusOr<core::Query> root = core::Query::Compile("//late_root" + s);
    ASSERT_TRUE(root.ok());
    multi.AddQuery(*root);
    ASSERT_TRUE(xml::ParseString(doc, &multi).ok());
    EXPECT_TRUE(multi.Matched(0));
    EXPECT_EQ(util::SymbolTable::Global().Lookup("late_elem" + s),
              util::kInvalidSymbol);

    StatusOr<core::Query> child =
        core::Query::Compile("//late_root" + s + "/late_elem" + s);
    StatusOr<core::Query> attr =
        core::Query::Compile("//late_elem" + s + "[@late_attr" + s + "]");
    ASSERT_TRUE(child.ok() && attr.ok());
    size_t q_child = multi.AddQuery(*child);
    size_t q_attr = multi.AddQuery(*attr);
    ASSERT_TRUE(xml::ParseString(doc, &multi).ok());
    EXPECT_TRUE(multi.Matched(0)) << "shared=" << shared;
    EXPECT_TRUE(multi.Matched(q_child)) << "shared=" << shared;
    EXPECT_TRUE(multi.Matched(q_attr)) << "shared=" << shared;
  }
}

// --- observability counters -------------------------------------------------

TEST(HotPathCountersTest, ArenaBytesExported) {
  StatusOr<core::Query> query = core::Query::Compile("//a//c");
  ASSERT_TRUE(query.ok());
  core::StreamingEvaluator evaluator(*query);
  ASSERT_TRUE(xml::ParseString("<a><b><c/></b><c/></a>", &evaluator).ok());
  ASSERT_TRUE(evaluator.status().ok());
  const core::EngineStats first = evaluator.AggregateStats();
  EXPECT_GT(first.arena_bytes_allocated, 0u);
  // The arena's footprint: at least one slab, and at least what this
  // document drew from fresh slab space.
  EXPECT_GT(first.arena_bytes_reserved, 0u);

  obs::MetricsRegistry registry;
  evaluator.ExportMetrics(&registry);
  obs::MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.count("xaos_arena_bytes_allocated"), 1u);
  EXPECT_GT(snapshot.counters.at("xaos_arena_bytes_allocated"), 0u);
  ASSERT_EQ(snapshot.gauges.count("xaos_arena_bytes_reserved"), 1u);
  EXPECT_EQ(snapshot.gauges.at("xaos_arena_bytes_reserved"),
            static_cast<int64_t>(first.arena_bytes_reserved));
  for (const char* name :
       {"xaos_arena_bytes_allocated", "xaos_arena_bytes_reserved"}) {
    EXPECT_NE(obs::ToJson(snapshot).find(name), std::string::npos) << name;
    EXPECT_NE(obs::ToPrometheusText(snapshot).find(name), std::string::npos)
        << name;
  }

  // The traffic figure is per document and the footprint does not grow
  // once the arena's free lists recycle the first document's blocks.
  ASSERT_TRUE(xml::ParseString("<a><b><c/></b><c/></a>", &evaluator).ok());
  const core::EngineStats second = evaluator.AggregateStats();
  EXPECT_EQ(second.arena_bytes_allocated, first.arena_bytes_allocated);
  EXPECT_EQ(second.arena_bytes_reserved, first.arena_bytes_reserved);
}

TEST(HotPathCountersTest, DispatchAndInterningCountersInDefaultRegistry) {
  obs::SetEnabled(true);  // runtime default is off; no-op when compiled out
  if (!obs::Enabled()) GTEST_SKIP() << "observability disabled at build time";
  // The fleet folds these into the default registry at EndDocument. Both
  // queries are shareable chains, so force the per-engine backend — the
  // dispatch-skip counters only exist on that path.
  core::EngineOptions options;
  options.enable_shared_index = false;
  StatusOr<core::Query> query = core::Query::Compile("//b/c");
  ASSERT_TRUE(query.ok());
  core::MultiQueryEvaluator multi(options);
  multi.AddQuery(*query);
  StatusOr<core::Query> idle = core::Query::Compile("//never_present/x");
  ASSERT_TRUE(idle.ok());
  multi.AddQuery(*idle);
  ASSERT_TRUE(xml::ParseString("<a><b><c/></b></a>", &multi).ok());
  EXPECT_GT(multi.engines_skipped(), 0u);

  obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Default().Snapshot();
  ASSERT_EQ(snapshot.counters.count("xaos_dispatch_engines_skipped_total"),
            1u);
  EXPECT_GT(snapshot.counters.at("xaos_dispatch_engines_skipped_total"), 0u);
  // A gauge of the global table's size: the compiled vocabulary plus the
  // reserved unknown-name symbol. The parser resolves names without
  // interning, so the document's own names never reach the table.
  ASSERT_EQ(snapshot.gauges.count("xaos_symbols_interned"), 1u);
  EXPECT_EQ(snapshot.gauges.at("xaos_symbols_interned"),
            static_cast<int64_t>(util::SymbolTable::Global().size()));
  // At least the reserved symbol plus b, c, never_present and x.
  EXPECT_GE(snapshot.gauges.at("xaos_symbols_interned"), 5);

  std::string prometheus = obs::ToPrometheusText(snapshot);
  EXPECT_NE(prometheus.find("xaos_dispatch_engines_skipped_total"),
            std::string::npos);
  EXPECT_NE(prometheus.find("xaos_symbols_interned"), std::string::npos);
  std::string json = obs::ToJson(snapshot);
  EXPECT_NE(json.find("xaos_dispatch_engines_skipped_total"),
            std::string::npos);
  EXPECT_NE(json.find("xaos_symbols_interned"), std::string::npos);
  obs::SetEnabled(false);
}

// The per-subscription latency series fold over the matched set only. A
// series exists exactly for the subscriptions that matched some document,
// with one sample per matching document, whether the subscription is a
// shared chain, an alias or a per-engine query.
TEST(HotPathCountersTest, SubscriptionSeriesCoverExactlyTheMatchedSet) {
  obs::SetEnabled(true);  // runtime default is off; no-op when compiled out
  if (!obs::Enabled()) GTEST_SKIP() << "observability disabled at build time";
  const std::vector<std::string> expressions = {
      "/a/b/c",          "/a/b/c",          "//d",    "//c/ancestor::a",
      "//c/ancestor::a", "//b[d]",          "//zzz",
  };
  obs::MetricsRegistry registry;
  core::EngineOptions options;
  options.metrics_registry = &registry;
  core::MultiQueryEvaluator multi(options);
  auto label = [](size_t q) {
    std::string text = "s";
    text += std::to_string(q);
    return text;
  };
  for (size_t q = 0; q < expressions.size(); ++q) {
    StatusOr<core::Query> query = core::Query::Compile(expressions[q]);
    ASSERT_TRUE(query.ok()) << expressions[q];
    multi.AddQuery(*query, label(q));
  }
  ASSERT_EQ(multi.alias_count(), 2u);

  std::vector<uint64_t> matches(expressions.size(), 0);
  for (const char* doc :
       {"<a><b><c/></b></a>", "<a><b><d/></b></a>", "<x/>"}) {
    ASSERT_TRUE(xml::ParseString(doc, &multi).ok()) << doc;
    size_t matched = 0;
    for (size_t q = 0; q < expressions.size(); ++q) {
      if (multi.Matched(q)) {
        ++matches[q];
        ++matched;
      }
    }
    EXPECT_LT(matched, expressions.size()) << doc;  // a strict subset
  }
  EXPECT_EQ(matches, (std::vector<uint64_t>{1, 1, 1, 1, 1, 1, 0}));

  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  for (size_t q = 0; q < expressions.size(); ++q) {
    const std::string labels = "{subscription=\"" + label(q) + "\"}";
    const auto latency =
        snapshot.histograms.find("xaos_sub_match_latency_ns" + labels);
    const auto first =
        snapshot.histograms.find("xaos_sub_first_match_ns" + labels);
    if (matches[q] == 0) {
      EXPECT_EQ(latency, snapshot.histograms.end()) << expressions[q];
      EXPECT_EQ(first, snapshot.histograms.end()) << expressions[q];
      continue;
    }
    ASSERT_NE(latency, snapshot.histograms.end()) << expressions[q];
    ASSERT_NE(first, snapshot.histograms.end()) << expressions[q];
    EXPECT_EQ(latency->second.count, matches[q]) << expressions[q];
    EXPECT_EQ(first->second.count, matches[q]) << expressions[q];
    // The first match lands no later than the document's end.
    EXPECT_LE(first->second.sum, latency->second.sum) << expressions[q];
  }
  obs::SetEnabled(false);
}

// --- engines a document never reaches -------------------------------------

// The counters an engine reports, byte figures left out.
std::vector<uint64_t> Counts(const core::EngineStats& s) {
  return {s.elements_total,          s.elements_discarded,
          s.structures_created,      s.structures_undone,
          s.structures_live_peak,    s.propagations,
          s.optimistic_propagations, s.candidates_emitted_early,
          s.candidates_reclaimed};
}

// What an engine that saw every event of `xml` reports, which an engine the
// fleet delivered none of them to must report too.
std::vector<uint64_t> StandaloneCounts(const core::Query& query,
                                       const std::string& xml,
                                       core::EngineOptions options) {
  options.early_item_sink = nullptr;
  core::XaosEngine engine(&query.trees().front(), options);
  EXPECT_TRUE(xml::ParseString(xml, &engine).ok());
  return Counts(engine.stats());
}

// Queries whose labels the untouched document never carries.
constexpr const char* kMatchedDoc = "<r><a><b/><b/></a><c><a/></c></r>";
constexpr const char* kUntouchedDoc = "<r><x><y/></x><y/></r>";

// Requires evaluator `ev` (on queries `queries`) to report for the
// untouched document exactly what a document without any of its labels
// gives.
void ExpectUntouched(const core::MultiQueryEvaluator& ev,
                     const std::vector<core::Query>& queries,
                     const core::EngineOptions& options) {
  EXPECT_TRUE(ev.status().ok()) << ev.status();
  EXPECT_TRUE(ev.MatchedQueries().empty());
  for (size_t q = 0; q < queries.size(); ++q) {
    EXPECT_FALSE(ev.Matched(q)) << q;
    EXPECT_FALSE(ev.MatchConfirmed(q)) << q;
    const core::QueryResult result = ev.Result(q);
    EXPECT_FALSE(result.matched) << q;
    EXPECT_TRUE(result.items.empty()) << q;
  }
  for (size_t e = 0; e < ev.engine_count(); ++e) {
    const core::XaosEngine& engine = *ev.engines()[e];
    EXPECT_TRUE(engine.status().ok()) << e;
    EXPECT_TRUE(engine.done()) << e;
    EXPECT_FALSE(engine.Matched()) << e;
    EXPECT_TRUE(engine.OutputTuples().tuples.empty()) << e;
    EXPECT_EQ(Counts(engine.stats()),
              StandaloneCounts(queries[e], kUntouchedDoc, options))
        << "engine " << e;
  }
}

std::vector<core::Query> UntouchedPool() {
  std::vector<core::Query> queries;
  for (const char* expression : {"//a/b", "//c[a]", "//b/ancestor::a"}) {
    StatusOr<core::Query> query = core::Query::Compile(expression);
    EXPECT_TRUE(query.ok()) << query.status();
    queries.push_back(std::move(*query));
  }
  return queries;
}

// Parses `xml` into `ev`, aborting on a rejection.
Status Feed(core::MultiQueryEvaluator* ev, const std::string& xml) {
  Status status = xml::ParseString(xml, ev);
  if (!status.ok()) ev->AbortDocument(status);
  return status;
}

TEST(UntouchedEngineTest, MatchedThenUntouchedReportsTheEmptyDocument) {
  const std::vector<core::Query> queries = UntouchedPool();
  core::EngineOptions options;
  options.enable_shared_index = false;
  core::MultiQueryEvaluator ev(options);
  for (const core::Query& query : queries) ev.AddQuery(query);

  ASSERT_TRUE(Feed(&ev, kMatchedDoc).ok());
  EXPECT_EQ(ev.MatchedQueries(), (std::vector<size_t>{0, 1, 2}));
  EXPECT_FALSE(ev.engines()[0]->OutputTuples().tuples.empty());

  ASSERT_TRUE(Feed(&ev, kUntouchedDoc).ok());
  ExpectUntouched(ev, queries, options);

  // Reached again, each engine resets and answers for the new document.
  ASSERT_TRUE(Feed(&ev, kMatchedDoc).ok());
  EXPECT_EQ(ev.MatchedQueries(), (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(Counts(ev.engines()[0]->stats()),
            StandaloneCounts(queries[0], kMatchedDoc, options));
}

TEST(UntouchedEngineTest, AbortedDocumentThenUntouched) {
  const std::vector<core::Query> queries = UntouchedPool();
  core::EngineOptions options;
  options.enable_shared_index = false;
  core::MultiQueryEvaluator ev(options);
  for (const core::Query& query : queries) ev.AddQuery(query);

  // The engines are fed up to the malformed end tag, then abandoned.
  EXPECT_EQ(Feed(&ev, "<r><a><b/><b/></a><c><a/></x></r>").code(),
            StatusCode::kParseError);
  EXPECT_EQ(ev.status().code(), StatusCode::kParseError);
  EXPECT_TRUE(ev.MatchedQueries().empty());

  ASSERT_TRUE(Feed(&ev, kUntouchedDoc).ok());
  ExpectUntouched(ev, queries, options);
}

TEST(UntouchedEngineTest, LiveStructureLimitTrippedThenUntouched) {
  const std::vector<core::Query> queries = UntouchedPool();
  core::EngineOptions options;
  options.max_live_structures = 3;
  core::MultiQueryEvaluator ev(options);
  for (const core::Query& query : queries) ev.AddQuery(query);

  ASSERT_TRUE(Feed(&ev, "<r><a><a><a><b/></a></a></a></r>").ok());
  EXPECT_EQ(ev.status().code(), StatusCode::kResourceExhausted);

  ASSERT_TRUE(Feed(&ev, kUntouchedDoc).ok());
  ExpectUntouched(ev, queries, options);
}

TEST(UntouchedEngineTest, StopAfterConfirmedMatch) {
  const std::vector<core::Query> queries = UntouchedPool();
  core::EngineOptions options;
  options.enable_shared_index = false;
  options.stop_after_confirmed_match = true;
  core::MultiQueryEvaluator ev(options);
  for (const core::Query& query : queries) ev.AddQuery(query);

  ASSERT_TRUE(Feed(&ev, kMatchedDoc).ok());
  EXPECT_EQ(ev.MatchedQueries(), (std::vector<size_t>{0, 1, 2}));
  EXPECT_TRUE(ev.MatchConfirmed(0));
  EXPECT_TRUE(ev.engines()[0]->inert());

  ASSERT_TRUE(Feed(&ev, kUntouchedDoc).ok());
  ExpectUntouched(ev, queries, options);
  EXPECT_FALSE(ev.engines()[0]->inert());

  // An engine inert in an earlier document is delivered to again.
  ASSERT_TRUE(Feed(&ev, kMatchedDoc).ok());
  EXPECT_EQ(ev.MatchedQueries(), (std::vector<size_t>{0, 1, 2}));
}

TEST(UntouchedEngineTest, EarlyItemSinkHearsNothingFromUntouchedEngines) {
  const std::vector<core::Query> queries = UntouchedPool();
  std::vector<core::ElementId> sunk;
  core::EngineOptions options;
  options.enable_shared_index = false;
  options.early_item_sink = [&sunk](const core::OutputItem& item) {
    sunk.push_back(item.info.id);
  };
  core::MultiQueryEvaluator ev(options);
  for (const core::Query& query : queries) ev.AddQuery(query);

  ASSERT_TRUE(Feed(&ev, kMatchedDoc).ok());
  EXPECT_FALSE(sunk.empty());
  sunk.clear();

  ASSERT_TRUE(Feed(&ev, kUntouchedDoc).ok());
  EXPECT_TRUE(sunk.empty());
  ExpectUntouched(ev, queries, options);
}

}  // namespace
}  // namespace xaos
