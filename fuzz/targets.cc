#include "targets.h"

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "baseline/brute_force_matcher.h"
#include "baseline/compare.h"
#include "core/batched_dispatch.h"
#include "core/multi_engine.h"
#include "dom/dom_builder.h"
#include "query/xtree.h"
#include "xml/sax_event.h"
#include "xml/sax_parser.h"
#include "xml/structural_scanner.h"

namespace xaos::fuzz {
namespace {

// Tight enough that a hostile input can't make one iteration slow or
// memory-hungry, loose enough that real documents in the corpus pass.
xml::ParserOptions FuzzParserOptions() {
  xml::ParserOptions options;
  options.limits.max_depth = 256;
  options.limits.max_attribute_count = 64;
  options.limits.max_attribute_value_bytes = 64u << 10;
  options.limits.max_name_bytes = 4096;
  options.limits.max_token_bytes = 1u << 20;
  options.limits.max_entity_references = 1u << 16;
  options.limits.max_total_bytes = 8u << 20;
  return options;
}

// Traps on any stream-invariant violation; the fuzzer keeps the input.
class TrapHandler : public xml::ContentHandler {
 public:
  void StartDocument() override {
    if (started_) __builtin_trap();
    started_ = true;
  }
  void EndDocument() override {
    if (!started_ || depth_ != 0) __builtin_trap();
  }
  void StartElement(const xml::QName& name, xml::AttributeSpan) override {
    if (!started_ || name.text.empty()) __builtin_trap();
    ++depth_;
  }
  void EndElement(std::string_view) override {
    if (depth_ <= 0) __builtin_trap();
    --depth_;
  }
  void Characters(std::string_view text) override {
    if (depth_ <= 0 || text.empty()) __builtin_trap();
  }

 private:
  bool started_ = false;
  int depth_ = 0;
};

}  // namespace

int RunSaxParserInput(const uint8_t* data, size_t size) {
  if (size > (1u << 20)) return 0;
  std::string_view doc(reinterpret_cast<const char*>(data), size);
  xml::ParserOptions options = FuzzParserOptions();

  TrapHandler invariants;
  xml::ParseString(doc, &invariants, options);

  // One-shot vs chunked must agree exactly: same ok-ness, same events.
  xml::EventRecorder one_shot;
  bool one_shot_ok = xml::ParseString(doc, &one_shot, options).ok();

  static constexpr size_t kSchedule[] = {1, 3, 7, 2, 16, 64, 5};
  xml::EventRecorder chunked;
  xml::SaxParser parser(&chunked, options);
  Status status;
  for (size_t step = size; !doc.empty() && status.ok(); ++step) {
    size_t n = kSchedule[step % (sizeof(kSchedule) / sizeof(kSchedule[0]))];
    if (n > doc.size()) n = doc.size();
    status = parser.Feed(doc.substr(0, n));
    doc.remove_prefix(n);
  }
  if (status.ok()) status = parser.Finish();
  if (status.ok() != one_shot_ok) __builtin_trap();
  if (status.ok() && !(chunked.events() == one_shot.events())) {
    __builtin_trap();
  }
  return 0;
}

int RunXPathInput(const uint8_t* data, size_t size) {
  if (size > (1u << 16)) return 0;
  std::string expression(reinterpret_cast<const char*>(data), size);
  StatusOr<core::Query> query = core::Query::Compile(expression,
                                                     /*max_paths=*/8);
  if (!query.ok()) return 0;
  // A compiled expression must also build engines and survive a document.
  core::StreamingEvaluator evaluator(*query);
  xml::ParseString("<a x=\"1\"><b><c>text</c></b><b y=\"2\"/></a>",
                   &evaluator);
  (void)evaluator.Result();
  return 0;
}

int RunDifferentialInput(const uint8_t* data, size_t size) {
  if (size > (1u << 14)) return 0;
  std::string_view input(reinterpret_cast<const char*>(data), size);
  size_t newline = input.find('\n');
  if (newline == std::string_view::npos) return 0;
  std::string expression(input.substr(0, newline));
  std::string document(input.substr(newline + 1));

  StatusOr<core::Query> query = core::Query::Compile(expression,
                                                     /*max_paths=*/4);
  if (!query.ok()) return 0;

  xml::ParserOptions options = FuzzParserOptions();
  StatusOr<dom::Document> dom = dom::ParseToDocument(document, options);
  if (!dom.ok()) return 0;

  core::StreamingEvaluator evaluator(*query);
  Status parse = xml::ParseString(document, &evaluator, options);
  // The same parser accepted the document a line above.
  if (!parse.ok()) __builtin_trap();
  if (!evaluator.status().ok()) return 0;

  std::set<baseline::CanonicalItem> expected;
  for (const query::XTree& tree : query->trees()) {
    baseline::BruteForceOutcome outcome =
        baseline::BruteForceMatch(*dom, tree, /*max_explored=*/200'000);
    if (!outcome.complete) return 0;  // too expensive to oracle; skip
    expected.insert(outcome.items.begin(), outcome.items.end());
  }

  std::vector<baseline::CanonicalItem> actual =
      baseline::CanonicalFromResult(evaluator.Result());
  std::vector<baseline::CanonicalItem> oracle(expected.begin(),
                                              expected.end());
  if (!(actual == oracle)) __builtin_trap();
  return 0;
}

int RunProjectionDifferentialInput(const uint8_t* data, size_t size) {
  if (size > (1u << 14)) return 0;
  std::string_view input(reinterpret_cast<const char*>(data), size);
  size_t newline = input.find('\n');
  if (newline == std::string_view::npos) return 0;
  std::string expression(input.substr(0, newline));
  std::string document(input.substr(newline + 1));

  StatusOr<core::Query> query = core::Query::Compile(expression,
                                                     /*max_paths=*/4);
  if (!query.ok()) return 0;

  // Baseline: no projection. Only a successful baseline constrains the
  // projected runs (projection checks less well-formedness inside skips).
  xml::ParserOptions options = FuzzParserOptions();
  core::StreamingEvaluator baseline_eval(*query);
  if (!xml::ParseString(document, &baseline_eval, options).ok()) return 0;
  if (!baseline_eval.status().ok()) return 0;
  core::QueryResult baseline_result = baseline_eval.Result();
  std::vector<baseline::CanonicalItem> expected =
      baseline::CanonicalFromResult(baseline_result);

  // Projected, one-shot and chunked: must accept and agree exactly.
  for (int chunked = 0; chunked < 2; ++chunked) {
    core::StreamingEvaluator evaluator(*query);
    xml::ParserOptions projected = options;
    projected.projection_filter = evaluator.projection_filter();
    Status status;
    if (chunked == 0) {
      status = xml::ParseString(document, &evaluator, projected);
    } else {
      xml::SaxParser parser(&evaluator, projected);
      std::string_view rest(document);
      static constexpr size_t kSchedule[] = {1, 3, 7, 2, 16, 64, 5};
      for (size_t step = size; !rest.empty() && status.ok(); ++step) {
        size_t n =
            kSchedule[step % (sizeof(kSchedule) / sizeof(kSchedule[0]))];
        if (n > rest.size()) n = rest.size();
        status = parser.Feed(rest.substr(0, n));
        rest.remove_prefix(n);
      }
      if (status.ok()) status = parser.Finish();
    }
    if (!status.ok() || !evaluator.status().ok()) __builtin_trap();
    core::QueryResult result = evaluator.Result();
    if (result.matched != baseline_result.matched) __builtin_trap();
    if (!(baseline::CanonicalFromResult(result) == expected)) {
      __builtin_trap();
    }
  }
  return 0;
}

int RunScannerDiffInput(const uint8_t* data, size_t size) {
  if (size > (1u << 20)) return 0;
  std::string_view doc(reinterpret_cast<const char*>(data), size);

  // Level 1: raw kernel. The compiled kernel must reproduce the scalar
  // kernel's masks bit-for-bit on every block, partial tail included
  // (staged zero-padded exactly as StructuralScanner stages it).
  for (size_t off = 0; off < size; off += xml::kScannerBlockBytes) {
    char staged[xml::kScannerBlockBytes] = {};
    size_t len = size - off;
    if (len > xml::kScannerBlockBytes) len = xml::kScannerBlockBytes;
    for (size_t i = 0; i < len; ++i) staged[i] = doc[off + i];
    xml::BlockMasks want;
    xml::ClassifyBlockScalar(staged, &want);
    xml::BlockMasks got;
    xml::ClassifyBlock(staged, &got);
    if (got.lt != want.lt || got.gt != want.gt || got.dquote != want.dquote ||
        got.squote != want.squote || got.amp != want.amp ||
        got.rbracket != want.rbracket || got.newline != want.newline ||
        got.ws != want.ws || got.ctl != want.ctl) {
      __builtin_trap();
    }
  }

  // Level 2: full parses. Chunk boundaries may only change how much input
  // each Feed() sees, so the event stream, the outcome and the error text
  // (which embeds the line/column position) of a parse under a schedule
  // that splits tags and quoted values must match the one-shot parse's.
  xml::ParserOptions options = FuzzParserOptions();
  xml::EventRecorder one_shot;
  Status status = xml::ParseString(doc, &one_shot, options);

  static constexpr size_t kSchedule[] = {1, 63, 2, 64, 7, 129, 3};
  xml::EventRecorder chunked;
  xml::SaxParser parser(&chunked, options);
  std::string_view rest = doc;
  Status chunked_status;
  for (size_t step = size; !rest.empty() && chunked_status.ok(); ++step) {
    size_t n = kSchedule[step % (sizeof(kSchedule) / sizeof(kSchedule[0]))];
    if (n > rest.size()) n = rest.size();
    chunked_status = parser.Feed(rest.substr(0, n));
    rest.remove_prefix(n);
  }
  if (chunked_status.ok()) chunked_status = parser.Finish();

  if (chunked_status.code() != status.code() ||
      chunked_status.message() != status.message() ||
      !(chunked.events() == one_shot.events())) {
    __builtin_trap();
  }
  return 0;
}

int RunSharedIndexDiffInput(const uint8_t* data, size_t size) {
  if (size > (1u << 14)) return 0;
  std::string_view input(reinterpret_cast<const char*>(data), size);
  size_t newline = input.find('\n');
  if (newline == std::string_view::npos) return 0;
  std::string_view query_list = input.substr(0, newline);
  std::string document(input.substr(newline + 1));

  std::vector<core::Query> queries;
  while (!query_list.empty() && queries.size() < 16) {
    size_t semi = query_list.find(';');
    std::string_view expression = query_list.substr(0, semi);
    query_list.remove_prefix(
        semi == std::string_view::npos ? query_list.size() : semi + 1);
    if (expression.empty()) continue;
    StatusOr<core::Query> query =
        core::Query::Compile(expression, /*max_paths=*/4);
    if (!query.ok()) continue;  // keep fuzzing the pool shape
    queries.push_back(std::move(*query));
  }
  if (queries.empty()) return 0;

  core::MultiQueryEvaluator shared;  // enable_shared_index defaults on
  core::EngineOptions oracle_options;
  oracle_options.enable_shared_index = false;
  core::MultiQueryEvaluator oracle(oracle_options);
  for (const core::Query& query : queries) {
    shared.AddQuery(query);
    oracle.AddQuery(query);
  }

  xml::ParserOptions options = FuzzParserOptions();
  Status shared_parse = xml::ParseString(document, &shared, options);
  Status oracle_parse = xml::ParseString(document, &oracle, options);
  if (shared_parse.ok() != oracle_parse.ok()) __builtin_trap();
  if (!shared_parse.ok()) return 0;
  if (shared.status().ok() != oracle.status().ok()) __builtin_trap();
  if (!shared.status().ok()) return 0;

  std::vector<size_t> matched;
  for (size_t q = 0; q < queries.size(); ++q) {
    if (shared.Matched(q) != oracle.Matched(q)) __builtin_trap();
    if (oracle.Matched(q)) matched.push_back(q);
    if (shared.MatchConfirmed(q) != oracle.MatchConfirmed(q)) {
      __builtin_trap();
    }
    if (!(baseline::CanonicalFromResult(shared.Result(q)) ==
          baseline::CanonicalFromResult(oracle.Result(q)))) {
      __builtin_trap();
    }
  }
  // The delivery list is exactly the matched set on both backends.
  if (shared.MatchedQueries() != matched) __builtin_trap();
  if (oracle.MatchedQueries() != matched) __builtin_trap();
  return 0;
}

int RunBatchedDispatchDiffInput(const uint8_t* data, size_t size) {
  if (size < 2 || size > (1u << 14)) return 0;
  size_t batch_events = 1 + (data[0] & 63);
  std::string_view input(reinterpret_cast<const char*>(data + 1), size - 1);
  size_t newline = input.find('\n');
  if (newline == std::string_view::npos) return 0;
  std::string_view query_list = input.substr(0, newline);
  std::string document(input.substr(newline + 1));

  std::vector<core::Query> queries;
  while (!query_list.empty() && queries.size() < 16) {
    size_t semi = query_list.find(';');
    std::string_view expression = query_list.substr(0, semi);
    query_list.remove_prefix(
        semi == std::string_view::npos ? query_list.size() : semi + 1);
    if (expression.empty()) continue;
    StatusOr<core::Query> query =
        core::Query::Compile(expression, /*max_paths=*/4);
    if (!query.ok()) continue;  // keep fuzzing the pool shape
    queries.push_back(std::move(*query));
  }
  if (queries.empty()) return 0;

  xml::ParserOptions options = FuzzParserOptions();
  StatusOr<dom::Document> dom = dom::ParseToDocument(document, options);
  // The brute-force answer per query; `complete` false marks a query too
  // expensive to enumerate.
  struct Oracle {
    bool complete = true;
    bool matched = false;
    std::vector<baseline::CanonicalItem> items;
  };
  std::vector<Oracle> oracles(queries.size());
  for (size_t q = 0; q < queries.size() && dom.ok(); ++q) {
    std::set<baseline::CanonicalItem> expected;
    for (const query::XTree& tree : queries[q].trees()) {
      baseline::BruteForceOutcome outcome =
          baseline::BruteForceMatch(*dom, tree, /*max_explored=*/200'000);
      oracles[q].complete = oracles[q].complete && outcome.complete;
      oracles[q].matched = oracles[q].matched || outcome.matched;
      expected.insert(outcome.items.begin(), outcome.items.end());
    }
    oracles[q].items.assign(expected.begin(), expected.end());
  }

  for (const bool shared : {true, false}) {
    core::EngineOptions engine_options;
    engine_options.enable_shared_index = shared;
    core::MultiQueryEvaluator evaluator(engine_options);
    core::MultiQueryEvaluator per_event(engine_options);
    for (const core::Query& query : queries) {
      evaluator.AddQuery(query);
      per_event.AddQuery(query);
    }
    core::BatchedDispatchOptions dispatch_options;
    dispatch_options.max_batch_events = batch_events;
    dispatch_options.max_batch_text_bytes = 256;
    core::BatchedDispatcher dispatcher(&evaluator, dispatch_options);

    Status parse = xml::ParseString(document, &dispatcher, options);
    // The same parser runs on every side.
    if (parse.ok() != dom.ok()) __builtin_trap();
    if (!parse.ok()) {
      // Exercise the mid-stream abort path: buffered events must be
      // discarded and the batch pool must stay reusable (no double
      // release), elision state included.
      dispatcher.AbortDocument(parse);
      if (!xml::ParseString("<a><b/></a>", &dispatcher, options).ok() ||
          !evaluator.status().ok()) {
        __builtin_trap();
      }
      continue;
    }
    if (!xml::ParseString(document, &per_event, options).ok()) {
      __builtin_trap();
    }
    if (!evaluator.status().ok()) continue;
    // Elision must leave node ids and the dispatch counters as per-event
    // delivery leaves them.
    if (evaluator.engines_skipped() != per_event.engines_skipped() ||
        evaluator.AggregateStats().elements_total !=
            per_event.AggregateStats().elements_total) {
      __builtin_trap();
    }
    for (size_t q = 0; q < queries.size(); ++q) {
      const core::QueryResult result = evaluator.Result(q);
      const core::QueryResult twin = per_event.Result(q);
      if (result.items.size() != twin.items.size()) __builtin_trap();
      for (size_t i = 0; i < result.items.size(); ++i) {
        if (result.items[i].info.id != twin.items[i].info.id) {
          __builtin_trap();
        }
      }
      const Oracle& oracle = oracles[q];
      if (!oracle.complete) continue;  // too expensive to oracle; skip it
      if (evaluator.Matched(q) != oracle.matched) __builtin_trap();
      if (evaluator.MatchConfirmed(q) != oracle.matched) __builtin_trap();
      if (!(baseline::CanonicalFromResult(result) == oracle.items)) {
        __builtin_trap();
      }
    }
  }
  return 0;
}

}  // namespace xaos::fuzz
