// Top-level query API: compile an XPath expression (possibly containing
// `or` / `|`) into a set of x-trees, and the one evaluator that runs any
// number of such queries ("subscriptions") over a single event stream
// through the label-indexed dispatch fleet (engine_fleet.h), unioning each
// query's disjuncts (paper Section 5.2). StreamingEvaluator is that
// evaluator holding exactly one query.
//
// One way in. The evaluator is an xml::EventBatcher: it owns the
// RecordWriter its input is written into, a SaxParser given the evaluator
// writes EventBatch records straight into it (xml/event_batch.h), and a
// callback producer (DOM replay, tests) reaches the same writer through
// EventBatcher's ContentHandler overrides. Each full batch is replayed in
// one call through ReplayBatch into EngineFleet::ReplayRun, the fleet's
// only event input. Records are element-level elided whenever that is
// exact: at each StartDocument the evaluator installs its element interest
// (EngineFleet::element_interest) into the writer, which then writes no
// record for elements that index no engine, their ends or any text run —
// they reach the batch only as numbering gaps and payload-free
// elided-start records. Node ids, parent ids, levels and ordinals stay
// byte-identical to a full capture, as do engines_skipped() and the
// engines' statistics. With a shared matcher, an always-dispatch engine
// (wildcards, sibling axes, subtree capture) or an engine reading text, the
// interest is null and every element gets a record; text runs still travel
// as gaps whenever no engine reads text.
//
// Batches come from a small internal free pool, grown on first use and
// returned to after replay, so steady-state evaluation performs no heap
// allocation for records. An aborting batch (mid-stream producer failure)
// is returned unreplayed; the pool return is guarded against
// double-release, which an AbortDocument re-entering mid-publish would
// otherwise cause.

#ifndef XAOS_CORE_MULTI_ENGINE_H_
#define XAOS_CORE_MULTI_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/engine_fleet.h"
#include "core/result.h"
#include "core/shared_index.h"
#include "core/xaos_engine.h"
#include "dom/document.h"
#include "obs/metrics.h"
#include "query/projection.h"
#include "query/xtree.h"
#include "util/pool_arena.h"
#include "util/statusor.h"
#include "xml/event_batch.h"
#include "xml/sax_event.h"

namespace xaos::core {

// Record budgets of an evaluator's writer: large enough to amortize the
// replay-loop entry, small enough to keep mid-stream verdict latency at
// sub-document granularity.
struct BatchedDispatchOptions {
  size_t max_batch_events = 256;
  size_t max_batch_text_bytes = 32 * 1024;
};

// A compiled query: a cheap handle to an immutable compiled form (the
// original expression plus one x-tree per or-free disjunct), shared with
// every other live handle compiled from the same text and `max_paths`.
// Compile looks the pair up in a process-wide table that tracks compiled
// forms weakly: while any handle to one is alive, a repeat compile returns
// another handle to it and builds nothing; once the last handle is dropped
// the form is freed and leaves the table. Evaluators keep only the x-tree
// vector, never the handle, so they pin no table entry. Handles are
// reusable across documents, evaluators and threads.
class Query {
 public:
  // Parses and compiles `xpath`, or shares a live compile of the same
  // text and `max_paths`. `max_paths` bounds the or-expansion. A failed
  // compile is not remembered: every attempt returns the same Status.
  static StatusOr<Query> Compile(std::string_view xpath, int max_paths = 64);

  // Wraps externally built x-trees (e.g. from query::Intersect). Such a
  // query never enters the compile table.
  static Query FromTrees(std::vector<query::XTree> trees,
                         std::string expression = "");

  const std::string& expression() const;
  const std::vector<query::XTree>& trees() const;

 private:
  struct Compiled;  // the shared compiled form (multi_engine.cc)
  struct CompileTable;

  explicit Query(std::shared_ptr<const Compiled> compiled)
      : compiled_(std::move(compiled)) {}

  std::shared_ptr<const Compiled> compiled_;

  friend class MultiQueryEvaluator;
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
//
// Per-query state is two dense 4-byte words, a route word and an alias
// link, so a shared or alias subscription costs 8 bytes here once the
// caller drops its Query. Everything else lives in side tables that only
// some queries enter: one record per engine-backed canonical query (its
// x-trees, which its engines point into, and its engine range), a label
// per query given one, and the latency series of subscriptions that have
// matched with obs on. No query keeps its Query handle, so an evaluator
// pins no compile-table entry.
//
// The evaluator consumes records (see the header comment): hand it to a
// SaxParser, feed it ContentHandler callbacks, or replay captured batches
// through ReplayBatch. Reusable: each document's kStartDocument record
// resets all engines and the shared matcher.
class MultiQueryEvaluator : public xml::EventBatcher,
                            private xml::RecordWriter::Sink {
 public:
  explicit MultiQueryEvaluator(EngineOptions options = {},
                               BatchedDispatchOptions batching = {});

  // Registers a subscription and returns its index (stable; used to read
  // per-query results). Queries join at the next document: one added
  // since the last document started reports not matched, not confirmed and
  // an empty result. Add queries between documents, not while one is being
  // fed: StartDocument installs the element interest, so that document may
  // be captured elided for the old query set. `label` names the
  // subscription in exported latency series
  // (`xaos_sub_match_latency_ns{subscription="<label>"}`); empty derives
  // "q<index>".
  size_t AddQuery(const Query& query, std::string_view label = {});
  size_t query_count() const { return routes_.size(); }
  std::string query_label(size_t q) const;

  // Opens a document in the writer after installing what its records
  // carry: when no engine reads character data or end-element names, ends
  // are recorded without names and text runs as gaps, and when the fleet
  // exposes an element interest, elements it would deliver to nobody are
  // elided.
  void StartDocument() override;
  // Closes the document: the last batch is published and replayed, so
  // every engine has finished the document when this returns.
  void EndDocument() override;

  // Replays a whole captured EventBatch: kStartDocument and kEndDocument
  // records run the evaluator's per-document reset and finalization, and
  // interior runs go through EngineFleet::ReplayRun. The evaluator's own
  // writer publishes here; a caller that captured batches itself may
  // replay them too. `attr_scratch` is per-caller reusable attribute-view
  // storage.
  void ReplayBatch(const xml::EventBatch& batch,
                   std::vector<xml::AttributeView>* attr_scratch);
  // Batches the evaluator's own writer published and replayed (cumulative).
  uint64_t batches_replayed() const { return batches_replayed_; }

  // True when any engine reads character data or end-element names; false
  // lets a batching producer skip copying those payloads (lean capture).
  // The shared automaton never consumes text (shareable queries carry no
  // predicates or captures), so only per-engine subscriptions count.
  bool wants_text_events() { return fleet_.wants_text_events(); }
  // Capture-time element elision (EngineFleet::element_interest): the
  // element names worth a record, or nullptr when elision is off. Builds
  // the shared index first: an attached shared matcher turns elision off,
  // and the interest must reflect it before the document's first event is
  // captured.
  const xml::ElementInterest* element_interest() {
    EnsureSharedIndex();
    return fleet_.element_interest();
  }
  const char* elision_off_reason() {
    EnsureSharedIndex();
    return fleet_.elision_off_reason();
  }

  // Document-projection filter derived from the x-dags of every
  // subscription added so far, for installation into
  // xml::ParserOptions::projection_filter. The returned pointer stays valid
  // for the evaluator's lifetime; the parser resets its per-document state
  // at each document start. Returns nullptr when the union degraded to
  // keep-all — no subtree could ever be skipped, so callers install no
  // filter and the parser pays zero per-tag overhead.
  xml::ProjectionFilter* projection_filter();
  // The spec behind projection_filter(). Both accessors share one lazy
  // rebuild, run when queries were added since the last one; a rebuild
  // that degrades to keep-all counts in xaos_projection_disabled_total.
  const query::ProjectionSpec& projection_spec() const;
  // Installs `other`'s spec instead of analysing this evaluator's queries
  // (ParallelRouter workers hold identical query sets); `other` must hold
  // as many queries, added in the same order. Counts nothing.
  void AdoptProjectionSpec(const MultiQueryEvaluator& other);

  // Abandons the current document after a mid-stream producer failure
  // (parse error, limit rejection, I/O error): buffered records are
  // discarded unreplayed (a partial capture must not reach the engines) and
  // the per-document dispatch state is reset. `cause` is what status()
  // reports until the next document starts; the evaluator stays reusable.
  void AbortDocument(const Status& cause);

  // The abort cause of an abandoned document, else the first engine error.
  Status status() const;
  // Whether query `q` matched. Valid after EndDocument. Inline: a router's
  // read-out calls it once per subscription per document.
  bool Matched(size_t q) const {
    if (q >= live_queries_) return false;
    const uint32_t route = routes_[q];
    if ((route & kEngineRoute) == 0) return shared_matcher_->Matched(route);
    return EngineMatched(route & ~kEngineRoute);
  }
  // True as soon as query `q`'s match is guaranteed (usable mid-stream).
  // Records reach the engines a batch at a time, so the verdict reflects
  // the last replayed batch; a callback feeder that reads it at an exact
  // event calls Flush() first.
  bool MatchConfirmed(size_t q) const {
    if (q >= live_queries_) return false;
    const uint32_t route = routes_[q];
    if ((route & kEngineRoute) == 0) {
      return shared_matcher_->MatchConfirmed(route);
    }
    return EngineConfirmed(route & ~kEngineRoute);
  }
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
  // Folds AggregateStats() (see EngineStats::ToMetrics) and the shared
  // index's gauges into `registry`.
  void ExportMetrics(obs::MetricsRegistry* registry) const;
  // Engine deliveries the dispatch index suppressed (cumulative).
  uint64_t engines_skipped() const { return fleet_.engines_skipped(); }
  size_t engine_count() const { return engines_.size(); }
  const std::vector<std::unique_ptr<XaosEngine>>& engines() const {
    return engines_;
  }
  // The per-engine dispatch fleet (introspection: tests, benches).
  const EngineFleet& fleet() const { return fleet_; }
  size_t pool_free_for_test() const { return free_.size(); }

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
  // | the index of its canonical query's engine record. An alias carries
  // its canonical query's word.
  static constexpr uint32_t kEngineRoute = 0x80000000u;
  static constexpr uint32_t kNoQuery = UINT32_MAX;

  // One per engine-backed canonical query, in query order.
  struct EngineRecord {
    uint32_t query;  // the canonical query's index
    uint32_t begin;  // its engines occupy [begin, end)
    uint32_t end;
    // The engines point into these.
    std::shared_ptr<const std::vector<query::XTree>> trees;
  };
  // A subscription's latency series, resolved on its first matching
  // document (pointers are stable for the registry's lifetime).
  struct LatencySeries {
    obs::Histogram* match_latency = nullptr;
    obs::Histogram* first_match = nullptr;
  };

  // StartDocument installs both for every document; a caller's setting
  // would be overwritten.
  using xml::EventBatcher::set_element_interest;
  using xml::EventBatcher::set_lean_payload;

  // xml::RecordWriter::Sink: batches from the pool, replayed on publish.
  xml::EventBatch* AcquireBatch() override;
  void PublishBatch(xml::EventBatch* batch) override;
  void ReleaseToPool(xml::EventBatch* batch);
  // Adds this document's elided events to xaos_capture_events_elided_total.
  void ExportElided();

  // Replay-side document boundaries, run by ReplayBatch on kStartDocument
  // and kEndDocument records: the engine and matcher reset, and the
  // finalization plus the observability fold.
  void BeginDocument();
  void FinishDocument();

  // The registry latency/high-water series report into.
  obs::MetricsRegistry& metrics_registry() const;
  // Once per document with obs or the flight recorder on: O(queries +
  // engines) fold of match latency, time-to-first-match and
  // buffered-candidate/arena high-water marks, plus the flight recorder's
  // document span and a counter sample at its boundary.
  void FinishDocumentObservability();
  // Whether live query `q` matched this document and when the match was
  // first confirmed (0 = unknown). Unlike Matched, an engine-backed query
  // whose engine failed does not count.
  bool MatchedWithConfirm(size_t q, uint64_t* confirm_ns) const;
  // Whether any disjunct engine of engine record `record` matched, or has
  // its match guaranteed.
  bool EngineMatched(uint32_t record) const;
  bool EngineConfirmed(uint32_t record) const;
  // Appends `canonical` and its aliases that joined by the last
  // StartDocument.
  void AppendWithAliases(uint32_t canonical, std::vector<size_t>* out) const;
  // (Re)builds the shared index + matcher when subscriptions were added
  // since the last build; attaches the matcher to the fleet.
  void EnsureSharedIndex();
  // Folds shared-index gauges and the dispatch-work-saved counter into
  // `registry`.
  void ExportSharedMetrics(obs::MetricsRegistry* registry) const;

  EngineOptions options_;
  // Dense per-query words (see the class comment).
  std::vector<uint32_t> routes_;
  // Alias chain: a canonical query links its aliases, each alias the next
  // one (the reverse map MatchedQueries fans verdicts out through).
  std::vector<uint32_t> next_alias_;
  // routes_.size() at the last document start: later queries have seen no
  // document yet.
  size_t live_queries_ = 0;
  // Canonical query of each shared-index subscription id.
  std::vector<uint32_t> shared_queries_;
  // Engine-backed canonical queries, ascending by query index.
  std::vector<EngineRecord> engine_records_;
  // The one matching arena every per-engine subscription allocates from,
  // confined to this evaluator's thread (each ParallelRouter worker owns
  // its own evaluator); declared before engines_ so it outlives them.
  util::PoolArena arena_;
  uint64_t arena_baseline_ = 0;  // arena_.bytes_allocated() at doc start
  std::vector<std::unique_ptr<XaosEngine>> engines_;
  EngineFleet fleet_;
  // Shared-prefix backend: the builder accumulates shareable subscriptions
  // at AddQuery; the index/matcher are (re)built lazily at document start.
  bool shared_enabled_ = false;
  SharedIndexBuilder shared_builder_;
  std::unique_ptr<SharedIndex> shared_index_;
  std::unique_ptr<SharedMatcher> shared_matcher_;
  size_t shared_built_for_ = 0;  // builder sub count the index covers
  size_t shared_subscriptions_ = 0;
  size_t alias_subscriptions_ = 0;
  // expression -> canonical query index, for byte-identical dedupe.
  std::unordered_map<std::string, size_t> by_expression_;
  // Last exported cumulative dispatch-saved value (counter delta base).
  mutable uint64_t dispatch_saved_exported_ = 0;
  // Rebuilt lazily, also through the const projection_spec().
  mutable query::ProjectionGate gate_;
  mutable size_t gate_built_for_ = 0;  // query count the spec unions over
  Status abort_status_;  // non-OK while the last document was abandoned
  uint64_t doc_ordinal_ = 0;   // documents started (flight attribution)
  uint64_t doc_begin_ns_ = 0;  // document start timestamp when observing

  // Record pool (see the header comment).
  std::vector<std::unique_ptr<xml::EventBatch>> pool_;  // owns every batch
  std::vector<xml::EventBatch*> free_;
  std::vector<xml::AttributeView> attr_scratch_;
  uint64_t sequence_ = 0;
  uint64_t batches_replayed_ = 0;
  uint64_t elided_base_ = 0;  // events_elided() at StartDocument / export

  // Cold side tables, kept last so they do not move the hot members.
  // (query, label) for each query added with a non-empty label, ascending.
  std::vector<std::pair<uint32_t, std::string>> labels_;
  // Latency series of the subscriptions that matched with obs on.
  std::unordered_map<uint32_t, LatencySeries> latency_series_;
};

// Evaluates one compiled query: a MultiQueryEvaluator holding exactly that
// query, one XaosEngine per disjunct. The shared automaton is forced off:
// for one subscription it saves nothing and would turn capture-time
// elision off.
class StreamingEvaluator : public MultiQueryEvaluator {
 public:
  explicit StreamingEvaluator(const Query& query, EngineOptions options = {});

  // True as soon as any disjunct's match is guaranteed (usable mid-stream;
  // see XaosEngine::match_confirmed).
  bool MatchConfirmed() const { return MultiQueryEvaluator::MatchConfirmed(0); }
  // Union of the disjuncts' results (document order, deduplicated). Valid
  // after EndDocument.
  QueryResult Result() const { return MultiQueryEvaluator::Result(0); }
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
