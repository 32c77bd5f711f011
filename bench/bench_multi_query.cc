// Multi-query dispatch throughput: one XMark document streamed through N
// simultaneous subscriptions, comparing naive fan-out (every event pushed
// into every per-query evaluator) against the label-indexed
// MultiQueryEvaluator (an event only reaches engines whose x-dag mentions
// one of its labels). The subscription pool mixes query templates over the
// XMark vocabulary with never-matching synthetic tags, the realistic
// pub/sub shape: most subscriptions are irrelevant to most events.
//
// Both modes must deliver identical per-query verdicts; any divergence is a
// correctness bug and fails the run.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_random_workload.h"
#include "bench_util.h"
#include "xaos.h"

namespace {

using namespace xaos;

// Label-driven templates over tags the XMark generator actually emits.
const char* const kTemplates[] = {
    "/site/regions//item/name",
    "//person/name",
    "//open_auction/bidder/personref",
    "//category/description",
    "//item[payment]/name",
    "//closed_auction/seller",
    "//listitem/text",
    "//catgraph/edge",
    "//mail/text",
    "//item/incategory",
    "//watches/watch",
    "//annotation/description",
};

std::vector<std::string> MakeExpressions(int count) {
  std::vector<std::string> expressions;
  expressions.reserve(static_cast<size_t>(count));
  constexpr int kNumTemplates =
      static_cast<int>(sizeof(kTemplates) / sizeof(kTemplates[0]));
  for (int i = 0; i < count; ++i) {
    if (i % 2 == 0) {
      expressions.push_back(kTemplates[(i / 2) % kNumTemplates]);
    } else {
      // Distinct label absent from the document: the subscription can never
      // match, and the dispatch index never wakes its engine.
      expressions.push_back("//inbox_rule_" + std::to_string(i) + "/name");
    }
  }
  return expressions;
}

// Captures a whole document's event stream into owned batches, so the
// dispatch-rate row can replay the identical events repeatedly through
// MultiQueryEvaluator::ReplayBatch without re-tokenizing.
struct StoreSink : xml::EventBatcher::Sink {
  std::vector<std::unique_ptr<xml::EventBatch>> batches;
  xml::EventBatch* AcquireBatch() override {
    batches.push_back(std::make_unique<xml::EventBatch>());
    return batches.back().get();
  }
  void PublishBatch(xml::EventBatch*) override {}
};

// Fans one parse out to independent per-query evaluators — the baseline
// whose per-event cost is linear in the subscription count.
struct Fanout : xml::ContentHandler {
  std::vector<std::unique_ptr<core::StreamingEvaluator>>* subs = nullptr;
  void StartDocument() override {
    for (auto& s : *subs) s->StartDocument();
  }
  void EndDocument() override {
    for (auto& s : *subs) s->EndDocument();
  }
  void StartElement(const xml::QName& name,
                    xml::AttributeSpan attributes) override {
    for (auto& s : *subs) s->StartElement(name, attributes);
  }
  void EndElement(std::string_view name) override {
    for (auto& s : *subs) s->EndElement(name);
  }
  void Characters(std::string_view text) override {
    for (auto& s : *subs) s->Characters(text);
  }
};

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  double scale = flags.GetDouble("scale", 0.02);
  int repetitions = flags.GetInt("repetitions", 3);
  int max_subs = flags.GetInt("max-subs", 1000);
  // --zipf-max-subs=N adds zipf-indexed/zipf-shared rows for subscription
  // counts {1000, 10000, 100000} up to N: a Zipf-popularity template pool
  // run through the per-engine indexed path vs the shared-prefix automaton
  // (plus a fallback-parity row over a non-shareable pool). 0 (default) skips them — they dominate runtime.
  int zipf_max_subs = flags.GetInt("zipf-max-subs", 0);
  std::string json_out = flags.GetString("json-out", "");
  flags.FailOnUnknown();

  bench::BenchReporter reporter("multi_query");
  reporter.SetParam("scale", scale);
  reporter.SetParam("repetitions", repetitions);
  reporter.SetParam("max-subs", max_subs);
  reporter.SetParam("zipf-max-subs", zipf_max_subs);

  gen::XMarkOptions doc_options;
  doc_options.scale = scale;
  const std::string doc = gen::GenerateXMark(doc_options);
  const double megabytes = static_cast<double>(doc.size()) / (1 << 20);

  std::printf("Multi-query dispatch: XMark scale %.3f (%.1f MB), "
              "%d repetitions per row\n\n",
              scale, megabytes, repetitions);
  std::printf("%-20s %-10s %-10s %-10s %-14s %-10s\n", "configuration",
              "time(s)", "MB/s", "matched", "skipped/doc", "speedup");
  bench::Rule(6);

  for (int subs : {1, 10, 100, 1000}) {
    if (subs > max_subs) break;
    std::vector<std::string> expressions = MakeExpressions(subs);
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

    // Naive fan-out.
    std::vector<std::unique_ptr<core::StreamingEvaluator>> evaluators;
    for (const core::Query& query : queries) {
      evaluators.push_back(
          std::make_unique<core::StreamingEvaluator>(query, core::EngineOptions{}));
    }
    Fanout fanout;
    fanout.subs = &evaluators;
    std::vector<double> naive_times;
    for (int rep = 0; rep < repetitions; ++rep) {
      naive_times.push_back(bench::TimeSeconds([&] {
        if (!xml::ParseString(doc, &fanout).ok()) std::abort();
      }));
    }
    std::vector<bool> naive_matched;
    uint64_t naive_count = 0;
    for (auto& evaluator : evaluators) {
      bool m = evaluator->Result().matched;
      naive_matched.push_back(m);
      naive_count += m ? 1 : 0;
    }

    // Label-indexed dispatch. The shared-prefix backend is forced off so
    // these rows keep measuring the per-engine path the committed baselines
    // were recorded against; the shared backend gets its own zipf-* rows.
    core::EngineOptions indexed_options;
    indexed_options.enable_shared_index = false;
    core::MultiQueryEvaluator multi(indexed_options);
    for (const core::Query& query : queries) multi.AddQuery(query);
    std::vector<double> indexed_times;
    uint64_t skipped_before = 0;
    uint64_t skipped_per_doc = 0;
    for (int rep = 0; rep < repetitions; ++rep) {
      skipped_before = multi.engines_skipped();
      indexed_times.push_back(bench::TimeSeconds([&] {
        if (!xml::ParseString(doc, &multi).ok()) std::abort();
      }));
      skipped_per_doc = multi.engines_skipped() - skipped_before;
    }
    uint64_t indexed_count = 0;
    for (int q = 0; q < subs; ++q) {
      bool m = multi.Matched(static_cast<size_t>(q));
      indexed_count += m ? 1 : 0;
      if (m != naive_matched[static_cast<size_t>(q)]) {
        std::fprintf(stderr,
                     "VERDICT MISMATCH at %d subscriptions, query %d (%s): "
                     "naive=%d indexed=%d\n",
                     subs, q, expressions[static_cast<size_t>(q)].c_str(),
                     naive_matched[static_cast<size_t>(q)] ? 1 : 0, m ? 1 : 0);
        return 1;
      }
    }

    // One instrumented pass over the same pool: per-subscription match
    // latency and time-to-first-match (each matched subscription contributes
    // one sample), reduced to exact percentiles across subscriptions. Runs
    // outside the timed reps so instrumentation cannot perturb the
    // throughput rows; the regression gate watches the p99 columns.
    obs::SetEnabled(true);
    obs::MetricsRegistry latency_registry;
    core::EngineOptions obs_options;
    obs_options.metrics_registry = &latency_registry;
    obs_options.enable_shared_index = false;
    core::MultiQueryEvaluator instrumented(obs_options);
    for (const core::Query& query : queries) instrumented.AddQuery(query);
    if (!xml::ParseString(doc, &instrumented).ok()) std::abort();
    obs::SetEnabled(false);
    std::vector<double> latencies;
    std::vector<double> ttfms;
    for (int q = 0; q < subs; ++q) {
      std::string selector = "{subscription=\"" +
                             instrumented.query_label(static_cast<size_t>(q)) +
                             "\"}";
      obs::Histogram* latency = latency_registry.GetHistogram(
          "xaos_sub_match_latency_ns" + selector);
      // One document pass: count is 0 (no match) or 1, so Sum() is the
      // sample itself — exact, no bucket rounding.
      if (latency->Count() > 0) {
        latencies.push_back(static_cast<double>(latency->Sum()));
      }
      obs::Histogram* first_match =
          latency_registry.GetHistogram("xaos_sub_first_match_ns" + selector);
      if (first_match->Count() > 0) {
        ttfms.push_back(static_cast<double>(first_match->Sum()));
      }
    }
    auto percentile = [](std::vector<double>* samples, double q) {
      if (samples->empty()) return 0.0;
      std::sort(samples->begin(), samples->end());
      double rank = q * static_cast<double>(samples->size() - 1);
      return (*samples)[static_cast<size_t>(rank + 0.5)];
    };
    const double latency_p50 = percentile(&latencies, 0.50);
    const double latency_p99 = percentile(&latencies, 0.99);
    const double ttfm_p50 = percentile(&ttfms, 0.50);
    const double ttfm_p99 = percentile(&ttfms, 0.99);

    bench::Series naive = bench::Summarize(naive_times);
    bench::Series indexed = bench::Summarize(indexed_times);
    double speedup = indexed.mean > 0 ? naive.mean / indexed.mean : 0.0;

    char label[64];
    std::snprintf(label, sizeof(label), "naive/subs=%d", subs);
    std::printf("%-20s %-10.4f %-10.2f %-10llu %-14s %-10s\n", label,
                naive.mean, megabytes / naive.mean,
                static_cast<unsigned long long>(naive_count), "-", "-");
    reporter.AddResult(label, naive, megabytes);
    reporter.AddResultMetric("subscriptions", subs);
    reporter.AddResultMetric("matched", static_cast<double>(naive_count));

    std::snprintf(label, sizeof(label), "indexed/subs=%d", subs);
    std::printf("%-20s %-10.4f %-10.2f %-10llu %-14llu %-10.2f\n", label,
                indexed.mean, megabytes / indexed.mean,
                static_cast<unsigned long long>(indexed_count),
                static_cast<unsigned long long>(skipped_per_doc), speedup);
    reporter.AddResult(label, indexed, megabytes);
    reporter.AddResultMetric("subscriptions", subs);
    reporter.AddResultMetric("matched", static_cast<double>(indexed_count));
    reporter.AddResultMetric("engines_skipped_per_doc",
                             static_cast<double>(skipped_per_doc));
    reporter.AddResultMetric("speedup_vs_naive", speedup);
    reporter.AddResultMetric("match_latency_p50_ns", latency_p50);
    reporter.AddResultMetric("match_latency_p99_ns", latency_p99);
    reporter.AddResultMetric("ttfm_p50_ns", ttfm_p50);
    reporter.AddResultMetric("ttfm_p99_ns", ttfm_p99);
    reporter.AddResultMetric(
        "batches_per_doc", static_cast<double>(multi.batches_replayed()) /
                               std::max(repetitions, 1));
    std::printf("  latency across %zu matched subs: p50 %.0f us, "
                "p99 %.0f us (first match p99 %.0f us)\n",
                latencies.size(), latency_p50 / 1e3, latency_p99 / 1e3,
                ttfm_p99 / 1e3);
  }

  // --- Zipf-popularity scaling: shared-prefix automaton vs per-engine ------
  // The naive fan-out is hopeless at these sizes; the per-engine indexed
  // evaluator (shared backend off) is the oracle and the comparison bar.
  for (int subs : {1000, 10000, 100000}) {
    if (subs > zipf_max_subs) break;
    bench::ZipfPoolOptions pool_options;
    pool_options.subs = subs;
    std::vector<std::string> expressions =
        bench::MakeZipfSubscriptionPool(pool_options);
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

    core::EngineOptions engine_only;
    engine_only.enable_shared_index = false;
    core::MultiQueryEvaluator indexed(engine_only);
    for (const core::Query& query : queries) indexed.AddQuery(query);
    std::vector<double> indexed_times;
    for (int rep = 0; rep < repetitions; ++rep) {
      indexed_times.push_back(bench::TimeSeconds([&] {
        if (!xml::ParseString(doc, &indexed).ok()) std::abort();
      }));
    }

    core::MultiQueryEvaluator shared;  // enable_shared_index defaults on
    for (const core::Query& query : queries) shared.AddQuery(query);
    std::vector<double> shared_times;
    for (int rep = 0; rep < repetitions; ++rep) {
      shared_times.push_back(bench::TimeSeconds([&] {
        if (!xml::ParseString(doc, &shared).ok()) std::abort();
      }));
    }

    uint64_t matched = 0;
    for (int q = 0; q < subs; ++q) {
      bool m = shared.Matched(static_cast<size_t>(q));
      matched += m ? 1 : 0;
      if (m != indexed.Matched(static_cast<size_t>(q))) {
        std::fprintf(stderr,
                     "VERDICT MISMATCH at %d zipf subscriptions, query %d "
                     "(%s): indexed=%d shared=%d\n",
                     subs, q, expressions[static_cast<size_t>(q)].c_str(),
                     indexed.Matched(static_cast<size_t>(q)) ? 1 : 0,
                     m ? 1 : 0);
        return 1;
      }
    }

    bench::Series indexed_series = bench::Summarize(indexed_times);
    bench::Series shared_series = bench::Summarize(shared_times);
    double speedup = shared_series.mean > 0
                         ? indexed_series.mean / shared_series.mean
                         : 0.0;

    char label[64];
    std::snprintf(label, sizeof(label), "zipf-indexed/subs=%d", subs);
    std::printf("%-20s %-10.4f %-10.2f %-10llu %-14s %-10s\n", label,
                indexed_series.mean, megabytes / indexed_series.mean,
                static_cast<unsigned long long>(matched), "-", "-");
    reporter.AddResult(label, indexed_series, megabytes);
    reporter.AddResultMetric("subscriptions", subs);
    reporter.AddResultMetric("matched", static_cast<double>(matched));

    std::snprintf(label, sizeof(label), "zipf-shared/subs=%d", subs);
    std::printf("%-20s %-10.4f %-10.2f %-10llu %-14s %-10.2f\n", label,
                shared_series.mean, megabytes / shared_series.mean,
                static_cast<unsigned long long>(matched), "-", speedup);
    reporter.AddResult(label, shared_series, megabytes);
    reporter.AddResultMetric("subscriptions", subs);
    reporter.AddResultMetric("matched", static_cast<double>(matched));
    reporter.AddResultMetric("speedup_vs_indexed", speedup);
    reporter.AddResultMetric("shared_subscriptions",
                             static_cast<double>(
                                 shared.shared_subscription_count()));
    reporter.AddResultMetric("alias_subscriptions",
                             static_cast<double>(shared.alias_count()));
    reporter.AddResultMetric("shared_states",
                             static_cast<double>(shared.shared_state_count()));
    reporter.AddResultMetric(
        "batches_per_doc", static_cast<double>(shared.batches_replayed()) /
                               static_cast<double>(repetitions));
    std::printf("  zipf pool: %zu shared subs (%zu aliases) -> %zu automaton "
                "states, %.2fx over per-engine indexed\n",
                shared.shared_subscription_count(), shared.alias_count(),
                shared.shared_state_count(), speedup);

    // Dispatch-rate row: tokenization excluded. The document's events are
    // captured once (lean, as the evaluator's own writer would for this
    // pool), then the identical stream replays through the batch loop — the
    // isolated cost of the match path.
    {
      core::MultiQueryEvaluator dispatch_eval;
      for (const core::Query& query : queries) dispatch_eval.AddQuery(query);
      StoreSink store;
      xml::EventBatcher capture(&store, 256, 32 * 1024);
      capture.set_lean_payload(!dispatch_eval.wants_text_events());
      if (!xml::ParseString(doc, &capture).ok()) std::abort();
      std::vector<xml::AttributeView> scratch;

      std::vector<double> batched_dispatch_times;
      for (int rep = 0; rep < repetitions; ++rep) {
        batched_dispatch_times.push_back(bench::TimeSeconds([&] {
          for (const auto& b : store.batches) {
            dispatch_eval.ReplayBatch(*b, &scratch);
          }
        }));
      }
      for (int q = 0; q < subs; ++q) {
        if (dispatch_eval.Matched(static_cast<size_t>(q)) !=
            indexed.Matched(static_cast<size_t>(q))) {
          std::fprintf(stderr,
                       "VERDICT MISMATCH at %d zipf subscriptions, query %d "
                       "(%s): indexed vs dispatch replay\n",
                       subs, q, expressions[static_cast<size_t>(q)].c_str());
          return 1;
        }
      }
      bench::Series bd_series = bench::Summarize(batched_dispatch_times);
      std::snprintf(label, sizeof(label), "zipf-dispatch-batched/subs=%d",
                    subs);
      std::printf("%-20s %-10.4f %-10.2f %-10s %-14s %-10s\n", label,
                  bd_series.mean, megabytes / bd_series.mean, "-", "-", "-");
      reporter.AddResult(label, bd_series, megabytes);
      reporter.AddResultMetric("subscriptions", subs);
    }
  }

  // Fallback parity: a pool the merger cannot share (every chain carries a
  // predicate) must not pay for the shared backend being enabled — both
  // evaluators route everything to per-engine matching.
  if (zipf_max_subs >= 1000) {
    const int subs = 1000;
    bench::ZipfPoolOptions pool_options;
    pool_options.subs = subs;
    std::vector<std::string> expressions =
        bench::MakeZipfSubscriptionPool(pool_options);
    std::vector<core::Query> queries;
    for (std::string& expression : expressions) {
      expression += "[zzqpred]";  // existential child predicate: unshareable
      StatusOr<core::Query> query = core::Query::Compile(expression);
      if (!query.ok()) {
        std::fprintf(stderr, "compile failed: %s\n",
                     query.status().ToString().c_str());
        return 1;
      }
      queries.push_back(std::move(*query));
    }
    core::EngineOptions engine_only;
    engine_only.enable_shared_index = false;
    core::MultiQueryEvaluator off(engine_only);
    core::MultiQueryEvaluator on;  // shared enabled, nothing shareable
    for (const core::Query& query : queries) {
      off.AddQuery(query);
      on.AddQuery(query);
    }
    std::vector<double> off_times, on_times;
    for (int rep = 0; rep < repetitions; ++rep) {
      off_times.push_back(bench::TimeSeconds([&] {
        if (!xml::ParseString(doc, &off).ok()) std::abort();
      }));
      on_times.push_back(bench::TimeSeconds([&] {
        if (!xml::ParseString(doc, &on).ok()) std::abort();
      }));
    }
    bench::Series off_series = bench::Summarize(off_times);
    bench::Series on_series = bench::Summarize(on_times);
    double parity = on_series.mean > 0 ? off_series.mean / on_series.mean : 0.0;
    char label[64];
    std::snprintf(label, sizeof(label), "zipf-fallback/subs=%d", subs);
    std::printf("%-20s %-10.4f %-10.2f %-10s %-14s %-10.2f\n", label,
                on_series.mean, megabytes / on_series.mean, "-", "-", parity);
    reporter.AddResult(label, on_series, megabytes);
    reporter.AddResultMetric("subscriptions", subs);
    reporter.AddResultMetric("parity_vs_shared_off", parity);
    std::printf("  fallback pool parity (shared-off time / shared-on time): "
                "%.3f\n", parity);
  }

  if (!json_out.empty() && !reporter.WriteJson(json_out)) return 1;

  std::printf("\nShape check: identical per-query verdicts in both modes; "
              "indexed throughput degrades sub-linearly with subscription "
              "count because events only reach engines whose labels they "
              "carry.\n");
  return 0;
}
