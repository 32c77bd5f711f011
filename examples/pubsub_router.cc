// Publish/subscribe document routing — the XFilter/YFilter use case the
// paper's introduction motivates, with subscriptions that use backward
// axes (which pure forward-axis filters cannot express).
//
// A set of subscriptions is compiled once into one MultiQueryEvaluator;
// each incoming document is streamed through it in a single parse, and the
// router reports which subscribers the document should be delivered to.
// The evaluator's label-indexed dispatch means an event only reaches the
// subscriptions whose queries mention one of its labels, so per-event cost
// stays sub-linear in the subscription count.
//
// The router is also instrumented the way a production filter would be:
// each subscription gets a labelled delivery counter
// (`router_deliveries_total{subscription="alice"}`) and per-subscription
// match-latency / time-to-first-match histograms
// (`xaos_sub_match_latency_ns{subscription="alice"}`), per-document
// evaluation time is tracked and documents exceeding a slow threshold are
// logged to stderr, and the metrics registry is dumped in Prometheus
// exposition format at the end of the run (including the dispatch-skip
// statistics the evaluator exposes). --flight-trace=FILE additionally arms
// the flight recorder and writes a Chrome trace-event JSON of the run —
// with --threads=N each worker's parse, replay and document spans sit on
// a track of its own ("worker/<n>").

#include <charconv>
#include <climits>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "xaos.h"

namespace {

struct Subscription {
  std::string name;
  std::string expression;
  xaos::obs::Counter* deliveries = nullptr;
};

// Parses `text`, which must be all decimal digits, into *value; false on an
// empty value, a sign, a stray character, an overflow or a value above `max`.
bool ParseCount(const char* text, uint64_t max, uint64_t* value) {
  const char* last = text + std::strlen(text);
  const std::from_chars_result result = std::from_chars(text, last, *value);
  return result.ec == std::errc() && result.ptr == last && *value <= max;
}

}  // namespace

int main(int argc, char** argv) {
  // --threads=N routes documents through a core::ParallelRouter: N worker
  // threads, each running the sequential stack below over whole documents,
  // with outcomes delivered in submission order. N is clamped to
  // [1, hardware threads] before any thread starts. Without it (or with 0)
  // everything runs on the main thread through one MultiQueryEvaluator.
  // Results are identical either way.
  // --max-depth / --max-total-bytes tighten the parser guardrails a
  // production router would run with; a document that violates them (or is
  // plain malformed) is rejected, counted, and the stream continues.
  // --no-projection disables document projection (on by default): with it
  // on, the parser skip-scans subtrees no subscription can possibly match
  // (query/projection.h). Results are identical either way; when every
  // subscription is "//"-anchored the union degrades to keep-all and the
  // filter simply never skips. Router workers always project (each installs
  // its own evaluator's filter), so --no-projection takes no --threads.
  int threads = 0;
  bool no_projection = false;
  std::string flight_trace_path;
  xaos::xml::ParserOptions parser_options;
  for (int i = 1; i < argc; ++i) {
    // A malformed number falls through to the usage error.
    uint64_t value = 0;
    if (std::strncmp(argv[i], "--threads=", 10) == 0 &&
        ParseCount(argv[i] + 10, INT_MAX, &value)) {
      threads = static_cast<int>(value);
    } else if (std::strncmp(argv[i], "--max-depth=", 12) == 0 &&
               ParseCount(argv[i] + 12, INT_MAX, &value)) {
      parser_options.limits.max_depth = static_cast<int>(value);
    } else if (std::strncmp(argv[i], "--max-total-bytes=", 18) == 0 &&
               ParseCount(argv[i] + 18, UINT64_MAX, &value)) {
      parser_options.limits.max_total_bytes = value;
    } else if (std::strcmp(argv[i], "--no-projection") == 0) {
      no_projection = true;
    } else if (std::strncmp(argv[i], "--flight-trace=", 15) == 0) {
      flight_trace_path = argv[i] + 15;
    } else {
      threads = -1;  // usage error
      break;
    }
  }
  if (threads < 0 || (threads > 0 && no_projection)) {
    std::cerr << "usage: " << argv[0]
              << " [--threads=N | --no-projection] [--max-depth=N]"
              << " [--max-total-bytes=N] [--flight-trace=FILE]\n";
    return 2;
  }
  const std::vector<std::pair<std::string, std::string>> rules = {
      {"alice", "//order[item/@sku='A-17']"},
      {"bob", "//item[price]/ancestor::order[customer]"},  // backward axis
      {"carol", "//order[@priority='high'] | //cancellation"},
      {"dave", "//customer[name/text()='Dave']/ancestor::order"},
      {"erin", "/order/item/price"},  // rooted: projection-analyzable
  };
  // Turn instrumentation on so the parser-side projection counters (in the
  // default registry) are collected alongside the router's own metrics.
  xaos::obs::SetEnabled(true);
  if (!flight_trace_path.empty()) {
    xaos::obs::flight::Arm();
    xaos::obs::flight::SetCurrentThreadName("main");
  }
  // Documents taking longer than this are logged; tiny so the demo actually
  // produces a slow-query line or two.
  constexpr uint64_t kSlowDocumentNs = 200 * 1000;

  xaos::obs::MetricsRegistry registry;
  xaos::obs::Counter* documents_total =
      registry.GetCounter("router_documents_total");
  xaos::obs::Counter* documents_rejected =
      registry.GetCounter("router_documents_rejected_total");
  xaos::obs::Histogram* document_ns =
      registry.GetHistogram("router_document_ns");

  // Route the evaluators' per-subscription latency series and high-water
  // gauges into the router's own registry instead of the process default,
  // so the final dump shows them next to the delivery counters.
  xaos::core::EngineOptions engine_options;
  engine_options.metrics_registry = &registry;
  std::vector<Subscription> subscriptions;
  std::vector<xaos::core::Query> queries;
  for (const auto& [name, expression] : rules) {
    auto query = xaos::core::Query::Compile(expression);
    if (!query.ok()) {
      std::cerr << name << ": " << query.status() << "\n";
      return 1;
    }
    Subscription sub;
    sub.name = name;
    sub.expression = expression;
    sub.deliveries = registry.GetCounter(
        "router_deliveries_total{subscription=\"" + name + "\"}");
    subscriptions.push_back(std::move(sub));
    queries.push_back(std::move(*query));
  }
  // The sequential stack: one evaluator, which consumes the parser's
  // records itself. Each router worker builds the same stack from the same
  // queries.
  xaos::core::MultiQueryEvaluator evaluator(engine_options);
  for (size_t q = 0; q < queries.size(); ++q) {
    // The subscription name labels the latency series
    // (`xaos_sub_match_latency_ns{subscription="<name>"}`).
    evaluator.AddQuery(queries[q], subscriptions[q].name);
  }
  // With "//"-anchored subscriptions in the pool the union degrades to
  // keep-all; the "projection:" line makes that visible. The query set is
  // analysed once in either mode (the router's workers share one analysis),
  // so xaos_projection_disabled_total reads the same.
  if (!no_projection && threads == 0) {
    parser_options.projection_filter = evaluator.projection_filter();
    std::cout << "projection: " << evaluator.projection_spec().ToString()
              << "\n";
  }

  const std::vector<std::string> documents = {
      R"(<order id="1"><item sku="A-17"><price>10</price></item>
         <customer><name>Dave</name></customer></order>)",
      R"(<order id="2" priority="high"><item sku="B-2"/></order>)",
      R"(<order id="3"><item sku="C-9"><price>5</price></item></order>)",
      R"(<cancellation order="1"/>)",
      R"(<note>not an order at all</note>)",
      // A hostile publisher: malformed mid-stream. The router rejects it
      // and keeps serving the remaining documents.
      R"(<order id="4"><item sku="A-17"><price>10</order>)",
      R"(<order id="5" priority="high"><item sku="A-17"/></order>)",
  };

  // One document's outcome, in document order in both modes: count it,
  // log a rejection or a slow document, deliver to the matched subscribers.
  // `elapsed` is parse-to-verdict time; with --threads it runs from
  // submission, so it includes the wait for a free worker.
  auto on_outcome = [&](size_t i, const xaos::core::MultiQueryEvaluator& ev,
                        uint64_t elapsed) {
    if (!ev.status().ok()) {
      documents_rejected->Increment();
      std::cerr << "document " << i + 1 << " rejected: " << ev.status()
                << "\n";
      return;
    }
    documents_total->Increment();
    document_ns->Record(elapsed);
    if (elapsed > kSlowDocumentNs) {
      std::cerr << "slow document: " << elapsed << " ns on document " << i + 1
                << " across " << ev.query_count() << " subscriptions\n";
    }
    // Deliver to the matched subscriptions only, listed without a loop over
    // every verdict; a query index is its subscription's position.
    std::cout << "document " << i + 1 << " -> ";
    const std::vector<size_t> matched = ev.MatchedQueries();
    for (size_t k = 0; k < matched.size(); ++k) {
      Subscription& sub = subscriptions[matched[k]];
      sub.deliveries->Increment();
      std::cout << (k > 0 ? ", " : "") << sub.name;
    }
    std::cout << (matched.empty() ? "(no subscribers)" : "") << "\n";
  };

  // The evaluators whose statistics the metrics dump folds in.
  std::vector<const xaos::core::MultiQueryEvaluator*> evaluators;
  std::unique_ptr<xaos::core::ParallelRouter> router;
  if (threads > 0) {
    std::vector<uint64_t> submitted_ns(documents.size());
    xaos::xml::ParserOptions worker_options = parser_options;
    worker_options.projection_filter = nullptr;  // each worker uses its own
    router = std::make_unique<xaos::core::ParallelRouter>(
        threads,
        [&](size_t i, const xaos::core::MultiQueryEvaluator& ev) {
          on_outcome(i, ev, xaos::obs::NowNs() - submitted_ns[i]);
        },
        engine_options, worker_options);
    for (size_t q = 0; q < queries.size(); ++q) {
      router->AddQuery(queries[q], subscriptions[q].name);
    }
    std::cout << "projection: " << router->projection_spec().ToString()
              << "\n";
    std::cout << "routing with " << router->worker_count()
              << " worker threads\n";
    for (size_t i = 0; i < documents.size(); ++i) {
      submitted_ns[i] = xaos::obs::NowNs();
      router->Submit(documents[i]);
    }
    router->Drain();
    for (size_t w = 0; w < router->worker_count(); ++w) {
      evaluators.push_back(&router->evaluator(w));
    }
  } else {
    for (size_t i = 0; i < documents.size(); ++i) {
      uint64_t start = xaos::obs::NowNs();
      xaos::Status status =
          xaos::xml::ParseString(documents[i], &evaluator, parser_options);
      // A rejected document is closed out; the evaluator stays usable for
      // the rest of the stream.
      if (!status.ok()) evaluator.AbortDocument(status);
      on_outcome(i, evaluator, xaos::obs::NowNs() - start);
    }
    evaluators.push_back(&evaluator);
  }

  std::cout << "\nsubscriptions:\n";
  for (const Subscription& sub : subscriptions) {
    std::cout << "  " << sub.name << ": " << sub.expression << "\n";
  }

  int64_t arena_reserved = 0;
  for (const xaos::core::MultiQueryEvaluator* ev : evaluators) {
    registry.GetCounter("router_dispatch_engines_skipped_total")
        ->Increment(ev->engines_skipped());
    ev->ExportMetrics(&registry);
    arena_reserved +=
        static_cast<int64_t>(ev->AggregateStats().arena_bytes_reserved);
  }
  // One matching arena per evaluator: the footprint is their sum.
  registry.GetGauge("xaos_arena_bytes_reserved")->Set(arena_reserved);
  // Bounded by the subscriptions' vocabulary plus the reserved unknown-name
  // symbol, however many distinct names the documents carried.
  registry.GetGauge("xaos_symbols_interned")
      ->Set(static_cast<int64_t>(xaos::util::SymbolTable::Global().size()));

  // The parser reports projection activity to the process-wide default
  // registry; fold those counters into the router's dump.
  for (const char* name : {"xaos_projection_subtrees_skipped_total",
                           "xaos_projection_bytes_skipped_total",
                           "xaos_projection_disabled_total"}) {
    registry.GetCounter(name)->Increment(
        xaos::obs::MetricsRegistry::Default().GetCounter(name)->Value());
  }

  std::cout << "\nmetrics:\n"
            << xaos::obs::ToPrometheusText(registry);

  if (!flight_trace_path.empty()) {
    // Drain() returned, so every worker's span writes are ordered before
    // this point and the rings are quiescent.
    xaos::obs::flight::Disarm();
    xaos::Status status = xaos::obs::flight::WriteChromeTrace(flight_trace_path);
    if (!status.ok()) {
      std::cerr << "flight trace: " << status << "\n";
      return 2;
    }
    std::cerr << "flight trace written to " << flight_trace_path << "\n";
  }
  return 0;
}
