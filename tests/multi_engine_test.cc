// Multi-query evaluator tests: the label-indexed dispatch fleet must be
// observationally identical to naive per-query fan-out (same verdicts, same
// result items, byte for byte) across hand-picked axis coverage and the
// random workload generator — plus presence tests for the hot-path
// observability counters.

#include <memory>
#include <string>
#include <vector>

#include "baseline/compare.h"
#include "core/batched_dispatch.h"
#include "core/multi_engine.h"
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

// --- names outside the query vocabulary ------------------------------------

// Runs `expressions` through one MultiQueryEvaluator on the batched path
// (per-engine or shared backend) over `document`; returns every query's
// item names.
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
  core::BatchedDispatcher dispatcher(&multi);
  EXPECT_TRUE(xml::ParseString(document, &dispatcher).ok()) << document;
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
    core::BatchedDispatcher dispatcher(&multi);
    StatusOr<core::Query> root = core::Query::Compile("//late_root" + s);
    ASSERT_TRUE(root.ok());
    multi.AddQuery(*root);
    ASSERT_TRUE(xml::ParseString(doc, &dispatcher).ok());
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
    ASSERT_TRUE(xml::ParseString(doc, &dispatcher).ok());
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
  core::BatchedDispatcher dispatcher(&multi);
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
    ASSERT_TRUE(xml::ParseString(doc, &dispatcher).ok()) << doc;
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

}  // namespace
}  // namespace xaos
