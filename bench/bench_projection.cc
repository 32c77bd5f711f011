// Document projection payoff: the same XMark document matched with the
// parser's skip-scan projection off vs on, across subscription pools of
// varying selectivity. Selective pools (rooted paths touching a few
// percent of the document) should parse several times faster because the
// scanner races over irrelevant subtrees; the keep-all pool (unanchored
// '//' queries) measures the worst-case overhead of the projection gate
// when nothing can be skipped.
//
// Every projected run is verdict- AND item-checked against the
// unprojected baseline — projection must be invisible to results, so any
// divergence is a correctness bug and fails the run with exit 1.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "baseline/compare.h"
#include "bench_util.h"
#include "xaos.h"

namespace {

using namespace xaos;

// Rooted paths confined to the two smallest XMark sections (catgraph and
// categories together hold well under 1% of the document): the union spec
// skips regions, people and both auction lists outright, so nearly every
// byte runs through the raw skip scanner. Attribute and text() variants
// exercise the needs_attributes/needs_text flags of the kept levels.
const char* const kSelectiveTemplates[] = {
    "/site/catgraph/edge",
    "/site/catgraph/edge/@from",
    "/site/categories/category/name",
    "/site/categories/category/name/text()",
    "/site/categories/category/description",
    "/site/categories/category",
};

// Rooted paths into the mid-size sections: people and closed_auctions make
// up roughly 30% of the document's elements, and every person /
// closed_auction is a live match candidate, so matching work — which
// projection cannot remove — bounds the achievable speedup here.
const char* const kModerateTemplates[] = {
    "/site/catgraph/edge",
    "/site/categories/category/name",
    "/site/people/person/address/city",
    "/site/people/person/emailaddress",
    "/site/closed_auctions/closed_auction/price",
    "/site/closed_auctions/closed_auction/date",
};

// Unanchored queries: each alone degrades the projection spec to
// keep-all. The evaluator then hands out no filter at all
// (projection_filter() returns nullptr), so this row checks the
// worst case costs nothing beyond an unprojected parse.
const char* const kKeepAllTemplates[] = {
    "//person/name",
    "//open_auction/bidder/personref",
    "//category/description",
    "//closed_auction/seller",
    "//listitem/text",
    "//catgraph/edge",
};

// Selective pools model a pub-sub router: a fixed handful of live
// subscriptions (the templates) plus a long tail of subscriptions this
// document is irrelevant to. The dead tail stays rooted, so each padding
// query only adds one never-occurring level-1 name to the union spec
// instead of degrading it. Keep-all pools interleave live and dead the
// way bench_multi_query does — their spec is keep-all either way.
std::vector<std::string> MakeExpressions(const char* const* templates,
                                         int num_templates, int count,
                                         bool rooted_padding) {
  std::vector<std::string> expressions;
  expressions.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    if (rooted_padding) {
      if (i < num_templates) {
        expressions.push_back(templates[i]);
      } else {
        expressions.push_back("/site/routing_rule_" + std::to_string(i) +
                              "/target");
      }
    } else if (i % 2 == 0) {
      expressions.push_back(templates[(i / 2) % num_templates]);
    } else {
      expressions.push_back("//inbox_rule_" + std::to_string(i) + "/name");
    }
  }
  return expressions;
}

struct PoolRun {
  bench::Series series;
  uint64_t matched = 0;
};

// Per-query verdicts and canonical result items after one document.
struct Snapshot {
  std::vector<bool> matched;
  std::vector<std::vector<baseline::CanonicalItem>> items;
};

Snapshot TakeSnapshot(const core::MultiQueryEvaluator& evaluator,
                      size_t query_count) {
  Snapshot snapshot;
  for (size_t q = 0; q < query_count; ++q) {
    snapshot.matched.push_back(evaluator.Matched(q));
    snapshot.items.push_back(baseline::CanonicalFromResult(evaluator.Result(q)));
  }
  return snapshot;
}

// Times `repetitions` unprojected and projected parses of `doc` into ONE
// evaluator (per-document reset makes it reusable), interleaving the two
// sides so clock-frequency or cache drift hits both equally and neither
// side is biased by allocation order. The projected side installs the
// evaluator's own filter (nullptr when the union is keep-all, which makes
// that side an ordinary parse — exactly what the engine ships).
void RunPool(const std::string& doc, int repetitions,
             core::MultiQueryEvaluator* evaluator, PoolRun* off,
             PoolRun* on) {
  xml::ParserOptions off_options;
  xml::ParserOptions on_options;
  on_options.projection_filter = evaluator->projection_filter();
  // One untimed warmup each: the evaluator touches its arenas lazily.
  if (!xml::ParseString(doc, evaluator, off_options).ok()) std::abort();
  if (!xml::ParseString(doc, evaluator, on_options).ok()) std::abort();
  std::vector<double> off_times;
  std::vector<double> on_times;
  for (int rep = 0; rep < repetitions; ++rep) {
    off_times.push_back(bench::TimeSeconds([&] {
      if (!xml::ParseString(doc, evaluator, off_options).ok()) std::abort();
    }));
    on_times.push_back(bench::TimeSeconds([&] {
      if (!xml::ParseString(doc, evaluator, on_options).ok()) std::abort();
    }));
  }
  off->series = bench::Summarize(off_times);
  on->series = bench::Summarize(on_times);
}

// Compares per-query verdicts and canonical item sets between an
// unprojected and a projected parse of the same document.
bool VerifyInvisible(const std::vector<std::string>& expressions,
                     const char* pool, const Snapshot& off,
                     const Snapshot& on) {
  for (size_t q = 0; q < expressions.size(); ++q) {
    if (off.matched[q] != on.matched[q]) {
      std::fprintf(stderr,
                   "VERDICT MISMATCH pool=%s query %zu (%s): off=%d on=%d\n",
                   pool, q, expressions[q].c_str(), off.matched[q] ? 1 : 0,
                   on.matched[q] ? 1 : 0);
      return false;
    }
    if (!(off.items[q] == on.items[q])) {
      std::fprintf(stderr, "ITEM MISMATCH pool=%s query %zu (%s)\n", pool, q,
                   expressions[q].c_str());
      return false;
    }
  }
  return true;
}

struct SkipCounters {
  double subtrees = 0;
  double bytes = 0;
};

// One extra untimed projected parse with observability enabled, reading
// the skip counters off the default registry. Kept out of the timed loop
// so metric bookkeeping never pollutes the measured numbers.
SkipCounters MeasureSkips(const std::string& doc,
                          core::MultiQueryEvaluator* evaluator) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  obs::Counter* subtrees =
      registry.GetCounter("xaos_projection_subtrees_skipped_total");
  obs::Counter* bytes =
      registry.GetCounter("xaos_projection_bytes_skipped_total");
  uint64_t subtrees_before = subtrees->Value();
  uint64_t bytes_before = bytes->Value();
  obs::SetEnabled(true);
  xml::ParserOptions options;
  options.projection_filter = evaluator->projection_filter();
  if (!xml::ParseString(doc, evaluator, options).ok()) std::abort();
  obs::SetEnabled(false);
  SkipCounters counters;
  counters.subtrees =
      static_cast<double>(subtrees->Value() - subtrees_before);
  counters.bytes = static_cast<double>(bytes->Value() - bytes_before);
  return counters;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  double scale = flags.GetDouble("scale", 0.02);
  int repetitions = flags.GetInt("repetitions", 3);
  int max_subs = flags.GetInt("max-subs", 1000);
  std::string json_out = flags.GetString("json-out", "");
  flags.FailOnUnknown();

  bench::BenchReporter reporter("projection");
  reporter.SetParam("scale", scale);
  reporter.SetParam("repetitions", repetitions);
  reporter.SetParam("max-subs", max_subs);

  gen::XMarkOptions doc_options;
  doc_options.scale = scale;
  const std::string doc = gen::GenerateXMark(doc_options);
  const double megabytes = static_cast<double>(doc.size()) / (1 << 20);
  reporter.SetParam("document_bytes", static_cast<double>(doc.size()));

  std::printf("Document projection: XMark scale %.3f (%.1f MB), "
              "%d repetitions per row\n\n",
              scale, megabytes, repetitions);
  std::printf("%-26s %-10s %-10s %-10s %-10s %-12s\n", "configuration",
              "time(s)", "MB/s", "matched", "speedup", "skipped");
  bench::Rule(6);

  struct PoolSpec {
    const char* name;
    const char* const* templates;
    int num_templates;
    bool rooted_padding;
    int subs;
  };
  std::vector<PoolSpec> pools;
  constexpr int kNumSelective = static_cast<int>(
      sizeof(kSelectiveTemplates) / sizeof(kSelectiveTemplates[0]));
  constexpr int kNumModerate = static_cast<int>(
      sizeof(kModerateTemplates) / sizeof(kModerateTemplates[0]));
  constexpr int kNumKeepAll = static_cast<int>(sizeof(kKeepAllTemplates) /
                                               sizeof(kKeepAllTemplates[0]));
  for (int subs : {1, 100, 1000}) {
    if (subs > max_subs) continue;
    pools.push_back(
        {"selective", kSelectiveTemplates, kNumSelective, true, subs});
  }
  pools.push_back({"moderate", kModerateTemplates, kNumModerate, true,
                   std::min(100, max_subs)});
  pools.push_back({"keep-all", kKeepAllTemplates, kNumKeepAll, false,
                   std::min(100, max_subs)});

  for (const PoolSpec& pool : pools) {
    std::vector<std::string> expressions = MakeExpressions(
        pool.templates, pool.num_templates, pool.subs, pool.rooted_padding);
    std::vector<core::Query> queries;
    for (const std::string& expression : expressions) {
      StatusOr<core::Query> query = core::Query::Compile(expression);
      if (!query.ok()) {
        std::fprintf(stderr, "compile failed: %s\n",
                     query.status().ToString().c_str());
        return 1;
      }
      queries.push_back(std::move(*query));
    }

    // The evaluator is built before any timing (and with observability
    // disabled) so engine construction and sampler arming stay off the
    // clock; the reps then reuse it, resetting per document.
    core::MultiQueryEvaluator evaluator;
    for (const core::Query& query : queries) evaluator.AddQuery(query);

    PoolRun off;
    PoolRun on;
    RunPool(doc, repetitions, &evaluator, &off, &on);
    // Untimed verification parses: one per side, snapshotting verdicts and
    // canonical items so projection's invisibility is checked exactly.
    xml::ParserOptions verify_options;
    if (!xml::ParseString(doc, &evaluator, verify_options).ok()) return 1;
    Snapshot off_snapshot = TakeSnapshot(evaluator, queries.size());
    verify_options.projection_filter = evaluator.projection_filter();
    if (!xml::ParseString(doc, &evaluator, verify_options).ok()) return 1;
    Snapshot on_snapshot = TakeSnapshot(evaluator, queries.size());
    if (!VerifyInvisible(expressions, pool.name, off_snapshot, on_snapshot)) {
      return 1;
    }
    for (bool m : off_snapshot.matched) off.matched += m ? 1 : 0;
    for (bool m : on_snapshot.matched) on.matched += m ? 1 : 0;
    SkipCounters skips = MeasureSkips(doc, &evaluator);
    double speedup = on.series.mean > 0 ? off.series.mean / on.series.mean
                                        : 0.0;
    double skipped_fraction =
        doc.empty() ? 0.0 : skips.bytes / static_cast<double>(doc.size());

    char label[64];
    std::snprintf(label, sizeof(label), "off/%s/subs=%d", pool.name,
                  pool.subs);
    std::printf("%-26s %-10.4f %-10.2f %-10llu %-10s %-12s\n", label,
                off.series.mean, megabytes / off.series.mean,
                static_cast<unsigned long long>(off.matched), "-", "-");
    reporter.AddResult(label, off.series, megabytes);
    reporter.AddResultMetric("subscriptions", pool.subs);
    reporter.AddResultMetric("projection", 0);
    reporter.AddResultMetric("matched", static_cast<double>(off.matched));

    std::snprintf(label, sizeof(label), "on/%s/subs=%d", pool.name,
                  pool.subs);
    std::printf("%-26s %-10.4f %-10.2f %-10llu %-10.2f %-12.1f%%\n", label,
                on.series.mean, megabytes / on.series.mean,
                static_cast<unsigned long long>(on.matched), speedup,
                skipped_fraction * 100.0);
    reporter.AddResult(label, on.series, megabytes);
    reporter.AddResultMetric("subscriptions", pool.subs);
    reporter.AddResultMetric("projection", 1);
    reporter.AddResultMetric("matched", static_cast<double>(on.matched));
    reporter.AddResultMetric("speedup_vs_off", speedup);
    reporter.AddResultMetric("subtrees_skipped", skips.subtrees);
    reporter.AddResultMetric("bytes_skipped", skips.bytes);
    reporter.AddResultMetric("bytes_skipped_fraction", skipped_fraction);
  }

  if (!json_out.empty() && !reporter.WriteJson(json_out)) return 1;

  std::printf("\nShape check: identical verdicts and items in every row; "
              "selective pools skip most of the document and speed up "
              "severalfold, the keep-all pool installs no filter and tracks "
              "the unprojected baseline.\n");
  return 0;
}
