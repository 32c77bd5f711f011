// Label-indexed multi-engine dispatch, replayed one engine at a time.
//
// A fleet drives N XaosEngines from one SAX stream. Instead of fanning
// every event out to every engine (O(N) per event), the fleet keeps an
// inverted index from interned label Symbols to the engines whose x-trees
// mention that label: a start-element only reaches (a) engines mentioning
// the element's tag or one of its attribute names, and (b) a small
// "always-dispatch" set — engines with wildcard node tests, sibling axes
// (they need a dense ancestor stack) or subtree capture (they need every
// event inside matched subtrees). End-element events mirror their start
// exactly; character events go to the engines that test text() or capture.
//
// Event numbering comes from one DocumentCursor: the fleet advances it for
// every event and hands each delivered node's position to the engines, so
// the filtered view each engine sees produces byte-identical results to a
// naive fan-out (ids are uniform and monotone in document order).
//
// Replay is engine-major. ReplayRun makes two passes over a run of events:
//   1. In event order, it advances the cursor, steps the shared matcher,
//      computes each event's delivery set and records, for every event
//      delivered to at least one engine, the event's batch index and node
//      position plus its delivery list.
//   2. It visits each engine the run touched once and feeds it its own
//      events in document order, so that engine's tables, frames and
//      structures stay in cache for the whole run instead of being evicted
//      by the ~N other engines between two of its events.
// A fleet of one engine is fed during the first pass instead (both orders
// coincide there) and records nothing. Engines are independent of one
// another given their positions, so the order of the second pass cannot
// change any result. Two observable contracts are kept exactly as
// per-event delivery would produce them:
//   * early_item_sink calls: items emitted while the second pass feeds
//     more than one engine are buffered and released by (event, the
//     engine's rank in that event's delivery list);
//   * engines_skipped(): an engine that turns inert mid-run has its
//     remaining start-elements of the run counted as skipped.
// Per-run scratch is bounded: when the recorded delivery lists would pass
// kMaxRunDeliveries, the run is split and the part recorded so far is
// replayed first (a single event's deliveries are never split).
//
// Element interest. When the index alone decides every delivery — no
// shared matcher (it steps on every element), no always-dispatch engine
// and no engine reading text — an element whose name and attribute names
// index no engine reaches nobody. element_interest() then exposes the
// indexed symbols so a batching producer can elide such elements at
// capture (xml::EventBatcher::set_element_interest). The first pass turns
// the producer's records back into exactly what per-event delivery would
// have done: a kElidedStart pushes the cursor and an empty delivered set, a
// kGap advances the cursor, and both count their elided elements as
// skipped by every engine. Projection skips are gaps too, and stay
// uncounted, as SkipSubtree leaves them.

#ifndef XAOS_CORE_ENGINE_FLEET_H_
#define XAOS_CORE_ENGINE_FLEET_H_

#include <cstdint>
#include <vector>

#include "core/document_cursor.h"
#include "core/xaos_engine.h"
#include "util/symbol_table.h"
#include "xml/event_batch.h"
#include "xml/sax_event.h"

namespace xaos::core {

class SharedMatcher;

class EngineFleet {
 public:
  // Cap on the deliveries one replay run records before it is split.
  static constexpr size_t kMaxRunDeliveries = 16384;

  EngineFleet() = default;
  EngineFleet(const EngineFleet&) = delete;
  EngineFleet& operator=(const EngineFleet&) = delete;

  // Registers an engine (not owned; must outlive the fleet's use). All
  // engines must be added before the first StartDocument.
  void AddEngine(XaosEngine* engine);

  // Attaches the shared-prefix subscription matcher (core/shared_index.h;
  // not owned, may be null). The matcher is its own index: it is stepped by
  // the first replay pass for every element event, after the cursor
  // advanced. Attach before StartDocument.
  void AttachSharedMatcher(SharedMatcher* matcher) { matcher_ = matcher; }

  // Classifies engines and builds the symbol index. Called lazily by
  // StartDocument; call explicitly after the last AddEngine if you want the
  // cost out of the timed path.
  void Finalize();

  // Event interface, mirroring ContentHandler (the owning evaluator
  // forwards its callbacks here). Each element or character event is
  // replayed as a one-event run through the same two passes as ReplayRun.
  void StartDocument();
  void StartElement(const xml::QName& name, xml::AttributeSpan attributes);
  void EndElement(std::string_view name);
  void Characters(std::string_view text);
  void EndDocument();

  // A projection skip (xml/skip_scanner.h) replaced a subtree's events:
  // advance the cursor so downstream ids match a full parse. No engine is
  // notified — a skipped subtree is irrelevant to all of them.
  void SkipSubtree(const xml::SkipReport& report) {
    cursor_.SkipSubtree(report.node_ids, report.elements);
  }

  // Replays batch events [begin, end) — which must not contain
  // document-boundary events — in the two passes described above. Every
  // engine has consumed the run when this returns. `attr_scratch` is
  // per-caller reusable storage for attribute views.
  void ReplayRun(const xml::EventBatch& batch, size_t begin, size_t end,
                 std::vector<xml::AttributeView>* attr_scratch);

  // Abandons the current document mid-stream (the producer failed): resets
  // the per-document dispatch state so the next StartDocument starts clean
  // instead of tripping the balance checks. Engine per-document state is
  // reset by that StartDocument, as always.
  void AbortDocument();

  size_t engine_count() const { return engines_.size(); }
  // True when at least one engine consumes character data or end-element
  // names (text predicates or subtree captures). When false, a batching
  // producer may capture those events lean — record without payload bytes
  // (xml::EventBatcher::set_lean_payload).
  bool wants_text_events() {
    Finalize();
    return !text_engines_.empty();
  }
  // Why capture-time element elision is off ("wildcard step", "sibling
  // axis", "subtree capture", "text test", "shared automaton"), or nullptr
  // when it is exact and on.
  const char* elision_off_reason() {
    Finalize();
    return matcher_ != nullptr ? "shared automaton" : elision_off_;
  }
  // The symbols some engine is indexed under, for a producer that elides
  // every other element (see the header comment); nullptr when elision is
  // off. Valid until the next AddEngine.
  const xml::ElementInterest* element_interest() {
    return elision_off_reason() == nullptr ? &interest_ : nullptr;
  }
  // Engine deliveries suppressed by the dispatch index so far (cumulative
  // across documents): for each element event, engines that did not
  // receive it.
  uint64_t engines_skipped() const { return engines_skipped_; }
  // Most deliveries one replay run has recorded (never above
  // kMaxRunDeliveries unless a single event reaches more engines).
  size_t run_deliveries_peak() const { return run_deliveries_peak_; }
  const DocumentCursor& cursor() const { return cursor_; }

 private:
  // An event of the current run delivered to at least one engine.
  struct RunRecord {
    uint32_t event;          // index into the event source
    uint32_t first;          // start of its delivery list in run_engines_
    NodePosition node;       // element / text run position (unused for ends)
  };
  // An early item buffered during the second pass, and its release key.
  struct EarlyItemKey {
    uint32_t delivery;  // position in run_engines_: (event, rank) order
    uint32_t engine;
    uint32_t item;      // index into early_items_
  };

  void Deliver(int idx) {
    if (stamps_[static_cast<size_t>(idx)] != stamp_) {
      stamps_[static_cast<size_t>(idx)] = stamp_;
      // An inert engine (stop_after_confirmed_match triggered) ignores
      // every further event of this document — don't dispatch to it. Its
      // skipped tail is folded back in at EndDocument.
      if (engines_[static_cast<size_t>(idx)]->inert()) return;
      delivered_scratch_.push_back(idx);
    }
  }
  void AddSymbolTargets(util::Symbol symbol, std::string_view name);
  // Computes delivered_scratch_ for a start-element (label index + memo).
  void CollectStartTargets(const xml::QName& name,
                           xml::AttributeSpan attributes);

  // The two replay passes, generic over where events come from: a
  // BatchSource (records of a captured batch) or a LiveSource (the one
  // event of a per-event call), both defined in engine_fleet.cc. Events
  // are addressed by their index in the source. Always inlined: a
  // per-event call then folds to the one case its event kind needs.
  template <typename Source>
  [[gnu::always_inline]] inline void Replay(const Source& source,
                                            uint32_t begin, uint32_t end);
  // Appends one event's deliveries to the run, first replaying the part
  // recorded so far if the new list would pass kMaxRunDeliveries. A fleet
  // of one engine is fed the event at once instead.
  template <typename Source>
  void RecordDeliveries(const Source& source, uint32_t event,
                        const NodePosition& node,
                        const std::vector<int>& targets);
  // The second pass over the recorded (non-empty) run; leaves it empty.
  template <typename Source>
  void FlushRun(const Source& source);
  // Feeds engine `idx` the recorded events run_order_[begin, end).
  template <typename Source>
  void FeedEngine(const Source& source, uint32_t idx, uint32_t begin,
                  uint32_t end, bool buffer_early_items);
  // Feeds event `event` to one engine at the recorded `node` position.
  template <typename Source>
  static void DeliverEvent(XaosEngine* engine, const Source& source,
                           uint32_t event, const NodePosition& node);
  // Releases buffered early items to their sinks in per-event order.
  void ReleaseEarlyItems();
  void CountSkipped(uint64_t skipped) {
    engines_skipped_ += skipped;
    engines_skipped_document_ += skipped;
  }

  std::vector<XaosEngine*> engines_;
  SharedMatcher* matcher_ = nullptr;
  bool finalized_ = false;
  bool any_early_item_sink_ = false;

  DocumentCursor cursor_;

  // --- dispatch index (rebuilt by Finalize) ---
  std::vector<int> always_dispatch_;           // engine indices
  std::vector<int> text_engines_;              // want Characters events
  std::vector<std::vector<int>> by_symbol_;    // Symbol -> engine indices
  xml::ElementInterest interest_;              // by_symbol_ non-empty
  const char* elision_off_ = nullptr;          // see elision_off_reason()

  // --- per-event scratch ---
  // Stamp-based dedup: an engine can be reached through several symbols of
  // one event; it is delivered at most once.
  std::vector<uint32_t> stamps_;
  uint32_t stamp_ = 0;
  std::vector<int> delivered_scratch_;
  // Per-depth record of which engines received the StartElement, so the
  // EndElement reaches exactly the same set. Entries are reused across
  // elements at the same depth.
  std::vector<std::vector<int>> delivered_stack_;
  size_t depth_ = 0;

  // --- per-run scratch (bounded by kMaxRunDeliveries) ---
  std::vector<RunRecord> run_records_;
  std::vector<uint32_t> run_engines_;   // every record's delivery list
  std::vector<uint32_t> run_order_;     // record indices grouped by engine
  std::vector<uint32_t> run_touched_;   // engines in first-delivery order
  std::vector<uint32_t> run_count_;     // per engine; zero between runs
  size_t run_deliveries_peak_ = 0;
  // Early items buffered by the second pass (only while it feeds more
  // than one engine and some engine has a sink).
  std::vector<OutputItem> early_items_;
  std::vector<EarlyItemKey> early_keys_;

  uint64_t engines_skipped_ = 0;
  uint64_t engines_skipped_document_ = 0;

  // --- start-element run memo ---
  // One-entry memo over the last start-element's candidate set: consecutive
  // attribute-free elements with the same resolved symbol resolve to the
  // same engines, so the label-index walk is skipped for the whole run.
  // Inertness is monotone within a document, so the memoized set is
  // re-filtered by inert() on reuse instead of being re-derived.
  bool memo_valid_ = false;
  util::Symbol memo_symbol_ = util::kInvalidSymbol;
  std::vector<int> memo_delivered_;
  // Length of the current same-candidate-set run, flushed into the
  // xaos_dispatch_run_length histogram at each run break / document end.
  // Elided elements (kElidedStart, kGap) never reach the memo, so under
  // capture-time elision a run counts kept starts only.
  uint64_t run_length_ = 0;
  void BreakRun();
};

}  // namespace xaos::core

#endif  // XAOS_CORE_ENGINE_FLEET_H_
