// Label-indexed multi-engine dispatch.
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
// Event numbering moves to one shared DocumentCursor: the fleet advances it
// for every event, attached engines read node ids/levels/ordinals from it,
// so the filtered view each engine sees produces byte-identical results to
// a naive fan-out (ids are uniform and monotone in document order).

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
  EngineFleet() = default;
  EngineFleet(const EngineFleet&) = delete;
  EngineFleet& operator=(const EngineFleet&) = delete;

  // Registers an engine (not owned; must outlive the fleet's use). All
  // engines must be added before the first StartDocument.
  void AddEngine(XaosEngine* engine);

  // Attaches the shared-prefix subscription matcher (core/shared_index.h;
  // not owned, may be null). The matcher is its own index: it receives
  // every element event, after the shared cursor advanced, alongside the
  // label-filtered engine deliveries. Attach before StartDocument.
  void AttachSharedMatcher(SharedMatcher* matcher) { matcher_ = matcher; }

  // Classifies engines and builds the symbol index. Called lazily by
  // StartDocument; call explicitly after the last AddEngine if you want the
  // cost out of the timed path.
  void Finalize();

  // Event interface, mirroring ContentHandler (the owning evaluator
  // forwards its callbacks here).
  void StartDocument();
  void StartElement(const xml::QName& name, xml::AttributeSpan attributes);
  void EndElement(std::string_view name);
  void Characters(std::string_view text);
  void EndDocument();

  // A projection skip (xml/skip_scanner.h) replaced a subtree's events:
  // advance the shared cursor so downstream ids match a full parse. No
  // engine is notified — a skipped subtree is irrelevant to all of them.
  void SkipSubtree(const xml::SkipReport& report) {
    cursor_.SkipSubtree(report.node_ids, report.elements);
  }

  // Batched dispatch: decodes batch events [begin, end) — which must not
  // contain document-boundary events — and feeds each through the same
  // StartElement/EndElement/Characters/SkipSubtree members the per-event
  // interface uses, so both entries share one dispatch implementation.
  // `attr_scratch` is per-caller reusable storage for attribute views.
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
  // Engine deliveries suppressed by the dispatch index so far (cumulative
  // across documents): for each element event, engines that did not
  // receive it.
  uint64_t engines_skipped() const { return engines_skipped_; }
  const DocumentCursor& cursor() const { return cursor_; }

 private:
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

  std::vector<XaosEngine*> engines_;
  SharedMatcher* matcher_ = nullptr;
  bool finalized_ = false;

  DocumentCursor cursor_;

  // --- dispatch index (rebuilt by Finalize) ---
  std::vector<int> always_dispatch_;           // engine indices
  std::vector<int> text_engines_;              // want Characters events
  std::vector<std::vector<int>> by_symbol_;    // Symbol -> engine indices

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
  uint64_t run_length_ = 0;
  void BreakRun();
};

}  // namespace xaos::core

#endif  // XAOS_CORE_ENGINE_FLEET_H_
