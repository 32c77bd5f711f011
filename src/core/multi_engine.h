// Top-level query API: compile an XPath expression (possibly containing
// `or` / `|`) into a set of x-trees and evaluate them together over a
// single event stream, unioning the results (paper Section 5.2) — plus the
// multi-query evaluator that runs many independent subscriptions over one
// stream through the label-indexed dispatch fleet (engine_fleet.h).

#ifndef XAOS_CORE_MULTI_ENGINE_H_
#define XAOS_CORE_MULTI_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/engine_fleet.h"
#include "core/result.h"
#include "core/shared_index.h"
#include "core/xaos_engine.h"
#include "dom/document.h"
#include "obs/timer.h"
#include "query/projection.h"
#include "query/xtree.h"
#include "util/pool_arena.h"
#include "util/statusor.h"
#include "xml/sax_event.h"

namespace xaos::core {

// A compiled query: the original expression plus one x-tree per or-free
// disjunct. Queries are immutable and reusable across documents and
// evaluators.
class Query {
 public:
  // Parses and compiles `xpath`. `max_paths` bounds the or-expansion.
  static StatusOr<Query> Compile(std::string_view xpath, int max_paths = 64);

  // Wraps externally built x-trees (e.g. from query::Intersect).
  static Query FromTrees(std::vector<query::XTree> trees,
                         std::string expression = "");

  const std::string& expression() const { return expression_; }
  const std::vector<query::XTree>& trees() const { return *trees_; }

 private:
  Query() = default;

  std::string expression_;
  // Shared so evaluators can keep the trees alive independently of the
  // Query object's lifetime.
  std::shared_ptr<const std::vector<query::XTree>> trees_;

  friend class StreamingEvaluator;
  friend class MultiQueryEvaluator;
};

// Evaluates a compiled query over one document at a time. The evaluator is
// itself a ContentHandler: feed it parser or replayer events; one XaosEngine
// runs per disjunct, dispatched through an EngineFleet (shared document
// cursor + label index). Reusable: each StartDocument resets all engines.
class StreamingEvaluator : public xml::ContentHandler {
 public:
  explicit StreamingEvaluator(const Query& query, EngineOptions options = {});

  void StartDocument() override;
  void EndDocument() override;
  void StartElement(const xml::QName& name,
                    xml::AttributeSpan attributes) override;
  void EndElement(std::string_view name) override;
  void Characters(std::string_view text) override;
  void SkippedSubtree(const xml::SkipReport& report) override;

  // Batched dispatch: replays a whole captured EventBatch, handling any
  // document-boundary events the batch contains; interior runs go through
  // EngineFleet::ReplayRun, the replay the ContentHandler callbacks run as
  // one-event runs. `attr_scratch` is per-caller reusable attribute-view
  // storage.
  void ReplayBatch(const xml::EventBatch& batch,
                   std::vector<xml::AttributeView>* attr_scratch);

  // True when any engine reads character data or end-element names; false
  // lets a batching producer skip copying those payloads (lean capture).
  bool wants_text_events() { return fleet_.wants_text_events(); }
  // Capture-time element elision (EngineFleet::element_interest): the
  // element names worth a record, or nullptr when elision is off.
  const xml::ElementInterest* element_interest() {
    return fleet_.element_interest();
  }
  const char* elision_off_reason() { return fleet_.elision_off_reason(); }

  // Document-projection filter derived from the query's x-dags at
  // construction, for installation into xml::ParserOptions. The returned
  // pointer stays valid for the evaluator's lifetime; the parser resets
  // its per-document state at each document start. Returns nullptr when
  // analysis degraded to keep-all — no subtree could ever be skipped, so
  // callers install no filter and the parser pays zero per-tag overhead.
  xml::ProjectionFilter* projection_filter() {
    return gate_.spec().keep_all ? nullptr : &gate_;
  }
  const query::ProjectionSpec& projection_spec() const { return gate_.spec(); }

  // Abandons the current document after a mid-stream producer failure
  // (parse error, limit rejection, I/O error). `cause` is what status()
  // reports until the next StartDocument; the evaluator stays reusable
  // for further documents.
  void AbortDocument(const Status& cause);

  // The abort cause of an abandoned document, else the first engine error.
  Status status() const;
  // True as soon as any disjunct's match is guaranteed (usable mid-stream;
  // see XaosEngine::match_confirmed).
  bool MatchConfirmed() const;
  // Union of the disjuncts' results (document order, deduplicated). Valid
  // after EndDocument.
  QueryResult Result() const;
  // Sum of the per-engine statistics; the arena figures are the
  // evaluator's shared arena (this document's traffic, its footprint).
  EngineStats AggregateStats() const;
  // Folds AggregateStats() into `registry` (see EngineStats::ToMetrics).
  void ExportMetrics(obs::MetricsRegistry* registry) const;
  // Engine deliveries the dispatch index suppressed (cumulative).
  uint64_t engines_skipped() const { return fleet_.engines_skipped(); }

  const std::vector<std::unique_ptr<XaosEngine>>& engines() const {
    return engines_;
  }

 private:
  // Runs one event dispatch, charging a sampled subset of events to the
  // default registry's `xaos_engine_event_ns` histogram.
  template <typename Fn>
  void TimedDispatch(Fn&& fn) {
    if (sample_events_ && sampler_.ShouldSample()) {
      uint64_t start = obs::NowNs();
      fn();
      sampler_.RecordNs(obs::NowNs() - start);
      return;
    }
    fn();
  }

  std::shared_ptr<const std::vector<query::XTree>> trees_;
  // The one matching arena every engine allocates from; declared before
  // engines_ so it outlives them.
  util::PoolArena arena_;
  uint64_t arena_baseline_ = 0;  // arena_.bytes_allocated() at StartDocument
  std::vector<std::unique_ptr<XaosEngine>> engines_;
  EngineFleet fleet_;
  query::ProjectionGate gate_;
  obs::MetricsRegistry* registry_ = nullptr;  // EngineOptions::metrics_registry
  Status abort_status_;  // non-OK while the last document was abandoned
  // Per-event cost sampling into the default registry's
  // `xaos_engine_event_ns` histogram; armed at construction when obs is
  // enabled, otherwise a single dead branch per event.
  bool sample_events_ = false;
  obs::EventCostSampler sampler_{nullptr};
  uint64_t doc_ordinal_ = 0;   // documents started (flight attribution)
  uint64_t doc_begin_ns_ = 0;  // StartDocument timestamp when observing
};

// Evaluates many compiled queries ("subscriptions") over one event stream
// in a single pass — the publish/subscribe configuration. Three backends,
// chosen per subscription at AddQuery, all byte-identical to running one
// StreamingEvaluator per query:
//
//   * shared:  queries whose x-dags are linear forward chains merge into
//     one hash-consed automaton (core/shared_index.h) — per-event cost
//     scales with distinct query structure, not subscription count;
//   * engine:  everything else runs one XaosEngine per disjunct behind the
//     label-indexed EngineFleet (also the differential oracle for the
//     shared backend, selected by EngineOptions::enable_shared_index);
//   * alias:   a byte-identical repeat of an earlier expression adds no
//     matching state at all — verdicts fan out from the first copy.
class MultiQueryEvaluator : public xml::ContentHandler {
 public:
  explicit MultiQueryEvaluator(EngineOptions options = {});

  // Registers a subscription and returns its index (stable; used to read
  // per-query results). Queries join at the next StartDocument: one added
  // since the last StartDocument reports not matched, not confirmed and an
  // empty result. Add queries between documents, not while one is being
  // fed: a BatchedDispatcher reads the element interest when the parser
  // starts a document, so that document may be captured elided for the
  // old query set. `label` names the subscription in exported latency series
  // (`xaos_sub_match_latency_ns{subscription="<label>"}`); empty derives
  // "q<index>".
  size_t AddQuery(const Query& query, std::string_view label = {});
  size_t query_count() const { return queries_.size(); }
  const std::string& query_label(size_t q) const { return queries_[q].label; }

  // Shard index stamped on this evaluator's flight-recorder spans (set by
  // ParallelFleet; -1 = not sharded).
  void set_flight_shard(int shard) { flight_shard_ = shard; }

  void StartDocument() override;
  void EndDocument() override;
  void StartElement(const xml::QName& name,
                    xml::AttributeSpan attributes) override;
  void EndElement(std::string_view name) override;
  void Characters(std::string_view text) override;
  void SkippedSubtree(const xml::SkipReport& report) override;

  // Batched dispatch: replays a whole captured EventBatch; see
  // StreamingEvaluator::ReplayBatch.
  void ReplayBatch(const xml::EventBatch& batch,
                   std::vector<xml::AttributeView>* attr_scratch);

  // True when any engine reads character data or end-element names; false
  // lets a batching producer skip copying those payloads (lean capture).
  // The shared automaton never consumes text (shareable queries carry no
  // predicates or captures), so only per-engine subscriptions count.
  bool wants_text_events() { return fleet_.wants_text_events(); }
  // Capture-time element elision; see StreamingEvaluator. Builds the shared
  // index first: an attached shared matcher turns elision off, and the
  // interest must reflect it before the document's first event is captured.
  const xml::ElementInterest* element_interest() {
    EnsureSharedIndex();
    return fleet_.element_interest();
  }
  const char* elision_off_reason() {
    EnsureSharedIndex();
    return fleet_.elision_off_reason();
  }

  // Document-projection filter covering the union of all subscriptions
  // added so far (rebuilt lazily when queries were added since the last
  // call). Install via xml::ParserOptions::projection_filter; valid for the
  // evaluator's lifetime. Returns nullptr when the union degraded to
  // keep-all, so callers skip the per-tag filter overhead entirely.
  xml::ProjectionFilter* projection_filter();
  const query::ProjectionSpec& projection_spec() const { return gate_.spec(); }

  // Abandons the current document after a mid-stream producer failure; see
  // StreamingEvaluator::AbortDocument. The evaluator stays reusable.
  void AbortDocument(const Status& cause);

  // The abort cause of an abandoned document, else the first engine error.
  Status status() const;
  // Whether query `q` matched. Valid after EndDocument.
  bool Matched(size_t q) const;
  // True as soon as query `q`'s match is guaranteed (usable mid-stream).
  bool MatchConfirmed(size_t q) const;
  // Query `q`'s result, disjuncts unioned. Valid after EndDocument.
  QueryResult Result(size_t q) const;
  // Indices of the queries that matched, ascending: {q : Matched(q)}.
  // Valid after EndDocument. Built on demand from the shared matcher's
  // confirmed list, the alias chains and the engine-backed queries, so it
  // costs O(matched + engine-backed queries), not O(queries).
  std::vector<size_t> MatchedQueries() const;

  // Sum of all engines' statistics; the arena figures are the evaluator's
  // shared arena (this document's traffic, its footprint).
  EngineStats AggregateStats() const;
  void ExportMetrics(obs::MetricsRegistry* registry) const;
  uint64_t engines_skipped() const { return fleet_.engines_skipped(); }
  size_t engine_count() const { return engines_.size(); }
  // The per-engine dispatch fleet (introspection: tests, benches).
  const EngineFleet& fleet() const { return fleet_; }

  // --- shared-backend introspection (tests, benches, obs) ---
  // Subscriptions routed through the shared automaton (aliases of shared
  // subscriptions included).
  size_t shared_subscription_count() const { return shared_subscriptions_; }
  // Subscriptions that are byte-identical repeats of an earlier expression.
  size_t alias_count() const { return alias_subscriptions_; }
  // Merged-automaton states, including its root state (0 until the index
  // is built by the first StartDocument).
  size_t shared_state_count() const {
    return shared_index_ != nullptr ? shared_index_->state_count() : 0;
  }
  // The shared matcher (null until the first StartDocument builds it);
  // tests use it to pin the set-interner limit and read its counters.
  SharedMatcher* shared_matcher_for_test() { return shared_matcher_.get(); }

 private:
  // Route word of a query: a shared-index subscription id, or kEngineRoute
  // | the index of the canonical engine-backed query. An alias carries its
  // canonical query's word.
  static constexpr uint32_t kEngineRoute = 0x80000000u;
  static constexpr uint32_t kNoQuery = UINT32_MAX;

  // Cold per-query record; verdict reads go through routes_.
  struct QuerySlot {
    std::shared_ptr<const std::vector<query::XTree>> trees;
    size_t begin = 0;  // engine-backed: engines occupy [begin, end)
    size_t end = 0;
    // Alias chain: a canonical query links its aliases, each alias the
    // next one (the reverse map MatchedQueries fans verdicts out through).
    uint32_t next_alias = kNoQuery;
    std::string label;
    // Per-subscription latency series, resolved lazily on first matching
    // document (pointers are stable for the registry's lifetime).
    obs::Histogram* match_latency = nullptr;
    obs::Histogram* first_match = nullptr;
  };

  // The registry latency/high-water series report into.
  obs::MetricsRegistry& metrics_registry() const;
  // Once per document with obs enabled: O(queries + engines) fold of match
  // latency, time-to-first-match and buffered-candidate/arena high-water
  // marks, plus the flight recorder's document span.
  void FinishDocumentObservability();
  // Whether live query `q` matched this document and when the match was
  // first confirmed (0 = unknown). Unlike Matched, an engine-backed query
  // whose engine failed does not count.
  bool SlotMatched(size_t q, uint64_t* confirm_ns) const;
  // Whether any disjunct engine of engine-backed query `canonical` matched.
  bool EngineMatched(size_t canonical) const;
  // Appends `canonical` and its aliases that joined by the last
  // StartDocument.
  void AppendWithAliases(uint32_t canonical, std::vector<size_t>* out) const;
  // (Re)builds the shared index + matcher when subscriptions were added
  // since the last build; attaches the matcher to the fleet.
  void EnsureSharedIndex();
  // Folds shared-index gauges and the dispatch-work-saved counter into
  // `registry`.
  void ExportSharedMetrics(obs::MetricsRegistry* registry) const;

  template <typename Fn>
  void TimedDispatch(Fn&& fn) {
    if (sample_events_ && sampler_.ShouldSample()) {
      uint64_t start = obs::NowNs();
      fn();
      sampler_.RecordNs(obs::NowNs() - start);
      return;
    }
    fn();
  }

  EngineOptions options_;
  std::vector<QuerySlot> queries_;
  std::vector<uint32_t> routes_;  // route word per query
  // queries_.size() at the last StartDocument: later queries have seen no
  // document yet.
  size_t live_queries_ = 0;
  // Canonical query of each shared-index subscription id.
  std::vector<uint32_t> shared_queries_;
  // Canonical engine-backed queries, ascending.
  std::vector<uint32_t> engine_queries_;
  // The one matching arena every per-engine subscription allocates from,
  // confined to this evaluator's thread (a ParallelFleet shard owns its
  // own); declared before engines_ so it outlives them.
  util::PoolArena arena_;
  uint64_t arena_baseline_ = 0;  // arena_.bytes_allocated() at StartDocument
  std::vector<std::unique_ptr<XaosEngine>> engines_;
  EngineFleet fleet_;
  // Shared-prefix backend: the builder accumulates shareable subscriptions
  // at AddQuery; the index/matcher are (re)built lazily at StartDocument.
  bool shared_enabled_ = false;
  SharedIndexBuilder shared_builder_;
  std::unique_ptr<SharedIndex> shared_index_;
  std::unique_ptr<SharedMatcher> shared_matcher_;
  size_t shared_built_for_ = 0;  // builder sub count the index covers
  size_t shared_subscriptions_ = 0;
  size_t alias_subscriptions_ = 0;
  // expression -> canonical slot index, for byte-identical dedupe.
  std::unordered_map<std::string, size_t> by_expression_;
  // Last exported cumulative dispatch-saved value (counter delta base).
  mutable uint64_t dispatch_saved_exported_ = 0;
  query::ProjectionGate gate_;
  size_t gate_built_for_ = 0;  // query count the gate's spec unions over
  Status abort_status_;  // non-OK while the last document was abandoned
  bool sample_events_ = false;
  obs::EventCostSampler sampler_{nullptr};
  uint64_t doc_ordinal_ = 0;   // documents started (flight attribution)
  uint64_t doc_begin_ns_ = 0;  // StartDocument timestamp when observing
  int flight_shard_ = -1;
};

// One-shot convenience: parse `xml_text` and evaluate `xpath` over it in a
// single streaming pass.
StatusOr<QueryResult> EvaluateStreaming(std::string_view xpath,
                                        std::string_view xml_text,
                                        EngineOptions options = {});

// Evaluates `xpath` over an already-built document by replaying it as
// events (the paper's χαoς(DOM) configuration).
StatusOr<QueryResult> EvaluateOnDocument(std::string_view xpath,
                                         const dom::Document& document,
                                         EngineOptions options = {});

}  // namespace xaos::core

#endif  // XAOS_CORE_MULTI_ENGINE_H_
