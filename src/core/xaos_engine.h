// The χαoς streaming XPath engine (paper Section 4).
//
// XaosEngine evaluates one x-tree over a stream of SAX events in a single
// document-order pass, in time linear in the document and with storage
// proportional to the *relevant* part of the document only. It combines:
//
//   * relevance filtering driven by the x-dag — the looking-for machinery
//     of Section 4.1: an element is examined further only if every incoming
//     (forward-only) x-dag constraint of a candidate x-node is supported by
//     currently open elements;
//   * matching-structure composition over the x-tree (Sections 4.2/4.3):
//     at each end-element event, structures of completed sub-matchings are
//     propagated into their parent structures; backward-axis submatchings
//     are filled in *optimistically* from the open ancestor stack and
//     retracted (undone, recursively) if the optimism proves wrong;
//   * output emission (Section 4.4): at end of document, a marked traversal
//     of the structure graph projects all total matchings at Root onto the
//     output x-node(s).
//
// The engine is a ContentHandler, so it can be driven by xml::SaxParser
// (streaming), by dom::ReplayDocument (the paper's χαoς(DOM) configuration)
// or by any other event source.
//
// Attribute and text() node tests are supported by synthesizing leaf child
// nodes for attributes and character runs; this is an extension beyond the
// paper's element-only data model and is enabled automatically when the
// query mentions attributes or text().

#ifndef XAOS_CORE_XAOS_ENGINE_H_
#define XAOS_CORE_XAOS_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/document_cursor.h"
#include "core/element_info.h"
#include "core/engine_stats.h"
#include "core/matching_structure.h"
#include "core/result.h"
#include "query/xtree.h"
#include "util/pool_arena.h"
#include "util/statusor.h"
#include "util/symbol_table.h"
#include "xml/sax_event.h"
#include "xml/xml_writer.h"

namespace xaos::core {

struct EngineOptions {
  // The looking-for relevance filter of Section 4.1. Disabling it is only
  // useful for the ablation study: results are unchanged but every
  // label-matching element allocates a structure.
  bool enable_relevance_filter = true;

  // Record the serialized XML subtree of every element matched to an output
  // x-node (whether or not it survives to the final result); survivors
  // carry it in OutputItem::captured_xml. This implements "storing the
  // relevant portions of the document" for consumers that need content,
  // not just node identities.
  bool capture_output_subtrees = false;

  // Abort processing with ResourceExhausted when more than this many
  // matching structures are simultaneously alive (0 = unlimited).
  uint64_t max_live_structures = 0;

  // Boolean submatchings (paper Section 5.1): slots whose x-tree subtree
  // contains no output node do not need stored matchings — a count of
  // confirmed sub-matchings suffices, and confirmed entries are released
  // immediately. Cuts retained memory on predicate-heavy queries; results
  // are identical.
  bool enable_boolean_submatchings = true;

  // Stop doing any per-event work once a total matching at Root is
  // *guaranteed* (see match_confirmed()). The final result then reports
  // matched == true with no items — the publish/subscribe filtering mode,
  // where only the boolean answer is needed and documents can be routed
  // without reading them to the end (paper Section 5.1's eager emission).
  bool stop_after_confirmed_match = false;

  // Multi-query evaluators route shareable subscriptions (linear forward
  // chains — see core/shared_index.h) through the merged shared-prefix
  // automaton instead of one engine each; per-event cost then scales with
  // distinct query structure, not subscription count. Results are identical
  // either way — disabling selects the per-engine path everywhere, which
  // the differential tests use as the oracle. Ignored by single-query
  // evaluators; automatically off when capture_output_subtrees or
  // max_live_structures demand exact per-engine semantics.
  bool enable_shared_index = true;

  // Registry the evaluators report per-subscription latency and high-water
  // instrumentation into when obs::Enabled(); nullptr selects
  // obs::MetricsRegistry::Default(). Lets embedders (pubsub_router,
  // parallel-fleet shards) keep those series in their own registry.
  obs::MetricsRegistry* metrics_registry = nullptr;

  // Earliest answering ("Earliest query answering over streamed trees"):
  // emit each output item at the earliest event where its membership in the
  // final result is provable — when its structure is *anchored*, i.e.
  // confirmed and reachable from the confirmed Root through a chain of
  // confirmed structures — instead of waiting for EndDocument. For queries
  // with a single output x-node, anchored structures whose slots have
  // drained to confirmed counts additionally release their slot, backref
  // and capture storage back to the arena, so peak matching-structure bytes
  // track open-path state rather than document size. Results stay
  // byte-identical (document order, no duplicates) either way; only the
  // moment of emission and the amount of live state change.
  bool enable_earliest_emission = true;

  // Optional callback invoked once per output item at the moment it is
  // proven to be in the final result (requires enable_earliest_emission).
  // Emission order follows proof order, which can differ from document
  // order (an ancestor output may be proven only when an inner descendant
  // confirms); the final QueryResult is still sorted into document order.
  // Under an EngineFleet the calls follow per-event order across engines —
  // by event, then by the engine's rank in that event's delivery — however
  // the fleet schedules its engines; a batch replay releases them when its
  // run (at most one batch) has been replayed.
  std::function<void(const OutputItem&)> early_item_sink;
};

// Result of tuple enumeration (multiple output nodes, Section 5.3).
struct TupleEnumeration {
  std::vector<OutputTuple> tuples;
  // False if enumeration stopped at the tuple or exploration limit.
  bool complete = true;
};

// An entry of the paper's looking-for set L (Table 2): an x-node we are
// prepared to match, at a specific level or at any level (kAnyLevel).
struct LookingForEntry {
  query::XNodeId xnode;
  int level;  // kAnyLevel for the paper's ∞
  std::string label;

  static constexpr int kAnyLevel = -1;
};

class XaosEngine : public xml::ContentHandler {
 public:
  // `tree` must outlive the engine. Node 0 of the tree must test for the
  // virtual root (which every tree built by BuildXTree does). `arena`
  // backs the engine's matching structures, their slot/backref vectors and
  // its captures, and must outlive the engine; evaluators pass the one
  // arena all of their engines share. Null gives the engine a private
  // arena.
  explicit XaosEngine(const query::XTree* tree, EngineOptions options = {},
                      util::PoolArena* arena = nullptr);

  // ContentHandler interface. StartDocument resets per-document state, so
  // one engine can process a sequence of documents.
  void StartDocument() override;
  void EndDocument() override;
  void StartElement(const xml::QName& name,
                    xml::AttributeSpan attributes) override;
  void EndElement(std::string_view name) override;
  void Characters(std::string_view text) override;

  // --- multi-query dispatch support (EngineFleet) ---
  // Event entry points that take the node's identity from the caller
  // instead of the engine's private cursor. The caller owns event
  // numbering: it numbers *every* document event (including events it does
  // not deliver to this engine), so ids stay uniform across engines fed
  // different subsets of one stream. `node` is the element's position;
  // `text_node` the text run's (a child of the innermost open element).
  void DeliverStartElement(const xml::QName& name,
                           xml::AttributeSpan attributes,
                           const NodePosition& node);
  void DeliverEndElement();
  void DeliverCharacters(std::string_view text,
                         const NodePosition& text_node);
  // True if DeliverStartElement reads its attribute views (attribute node
  // tests or subtree capture); otherwise an empty span may be passed.
  bool reads_attributes() const {
    return wants_attributes_ || options_.capture_output_subtrees;
  }
  // Redirects early items (EngineOptions::early_item_sink) into `buffer`
  // instead of the sink, or back to the sink when null. The fleet uses it
  // to restore per-event emission order after an engine-at-a-time replay.
  void set_early_item_buffer(std::vector<OutputItem>* buffer) {
    early_item_buffer_ = buffer;
  }
  bool has_early_item_sink() const {
    return static_cast<bool>(options_.early_item_sink);
  }
  void SendToEarlyItemSink(const OutputItem& item) const {
    options_.early_item_sink(item);
  }
  // Folds `n` elements this engine never saw (filtered out by dispatch)
  // into its per-document stats as discarded, so elements_total still
  // reflects the whole document.
  void AccountSkippedElements(uint64_t n) {
    stats_.elements_total += n;
    stats_.elements_discarded += n;
  }
  // Interned names this engine's x-tree tests mention (elements and
  // attributes, deduplicated) — the dispatch index key set.
  const std::vector<util::Symbol>& mentioned_symbols() const {
    return mentioned_symbols_;
  }
  // True if the engine must see every element regardless of its name.
  bool has_any_element_candidates() const { return !any_element_.empty(); }
  bool has_any_attribute_candidates() const {
    return !any_attribute_.empty();
  }
  bool wants_attributes() const { return wants_attributes_; }
  bool wants_text() const { return wants_text_; }
  bool wants_siblings() const { return wants_siblings_; }
  bool captures_subtrees() const { return options_.capture_output_subtrees; }

  const query::XTree& tree() const { return *tree_; }
  const EngineStats& stats() const { return stats_; }

  // Non-OK if processing hit a configured limit; the engine then ignores
  // further events and reports no results.
  const Status& status() const { return error_; }
  // True once EndDocument has been processed.
  bool done() const { return done_; }

  // True if at least one total matching at Root exists. Valid after
  // EndDocument.
  bool Matched() const { return result_.matched; }

  // True as soon as a total matching at Root is guaranteed regardless of
  // future events — typically long before EndDocument. Monotone:
  // confirmation is only granted to matchings with no optimistic
  // (retractable) constituents, so it is never revoked. Usable mid-stream
  // for early routing decisions (see EngineOptions::
  // stop_after_confirmed_match).
  bool match_confirmed() const {
    return early_match_ || (done_ && result_.matched);
  }
  // obs::NowNs() timestamp of the moment the match became guaranteed (or,
  // failing early confirmation, of EndDocument for a matching document).
  // 0 when unmatched or when obs was disabled. Recorded only at the rare
  // confirmation transition, so it adds no per-event cost; evaluators turn
  // it into the per-subscription time-to-first-match histogram.
  uint64_t match_confirm_ns() const { return confirm_ns_; }
  // True once the engine has stopped doing per-event work for the current
  // document (stop_after_confirmed_match triggered). Dispatchers can skip
  // delivering further events to an inert engine.
  bool inert() const { return inert_; }
  // The computed result. Valid after EndDocument.
  const QueryResult& result() const { return result_; }

  // Enumerates distinct output tuples (projections of total matchings onto
  // the output x-nodes, ordered by x-node id). Exploration stops after
  // `max_tuples` tuples or `max_tuples * 64` partial matchings. Valid after
  // EndDocument.
  TupleEnumeration OutputTuples(size_t max_tuples = 10000) const;

  // The current looking-for set in the paper's presentation (Table 2);
  // intended for tests and debugging. {(Root, 0)} before the document
  // starts and after it ends.
  std::vector<LookingForEntry> DebugLookingForSet() const;

 private:
  struct Frame {
    ElementInfo info;
    std::vector<query::XNodeId> xnodes;       // matched x-nodes (topo order)
    std::vector<MatchingPtr> structures;      // parallel to xnodes
    // Structures of already-closed children, per x-node; only maintained
    // (and only for sibling-relevant x-nodes) when the query uses sibling
    // axes. Sources of following-sibling relevance, targets of deferred
    // following-sibling propagation, and candidates for preceding-sibling
    // pulls.
    std::vector<std::vector<MatchingPtr>> closed_by_xnode;
    int capture_index = -1;                   // index into active_captures_
  };

  struct Capture {
    ElementId element_id;
    std::string xml;
    xml::XmlWriter writer{&xml};
  };
  // Captures are placement-new'd into the arena; the deleter returns the
  // block to its free list.
  struct CaptureDeleter {
    util::PoolArena* arena;
    void operator()(Capture* c) const {
      c->~Capture();
      arena->Deallocate(c, sizeof(Capture));
    }
  };
  using CapturePtr = std::unique_ptr<Capture, CaptureDeleter>;

  // One row per x-node: everything the per-event hot path reads about the
  // x-tree and x-dag, packed so that an engine's query tables span a few
  // cache lines (a fleet feeds hundreds of engines; each starts cold).
  struct XNodeRow {
    query::XNodeId parent = query::kInvalidXNode;
    int32_t slot = -1;              // index among the parent's children
    uint32_t children_begin = 0;    // [begin, end) of child_ids_
    uint32_t children_end = 0;
    uint32_t in_edges_begin = 0;    // [begin, end) of in_edges_
    uint32_t in_edges_end = 0;
    xpath::Axis incoming_axis = xpath::Axis::kChild;
    int16_t depth = 0;              // distance from the x-tree root
    uint8_t flags = 0;              // XNodeFlag bits
  };
  enum XNodeFlag : uint8_t {
    kOutput = 1 << 0,
    // The node test constrains the string value (attribute / text).
    kValueTest = 1 << 1,
    // The subtree contains no output node: structures matched here are
    // counted, not stored, once confirmed (boolean submatchings).
    kCounted = 1 << 2,
    // Closed structures must stay reachable from the parent frame for
    // sibling-axis processing.
    kSiblingListed = 1 << 3,
    // Structures must never be reclaimed early: sibling-listed nodes (their
    // closed structures stay reachable from the parent frame) and nodes
    // with a following-sibling child slot (late entries arrive through
    // links that reclaim would sever).
    kReclaimBlocked = 1 << 4,
  };
  // A forward x-dag edge into a row's x-node.
  struct InEdge {
    query::XNodeId from;
    xpath::Axis axis;
  };
  // A [begin, end) range of candidates_.
  struct CandidateSpan {
    uint32_t begin = 0;
    uint32_t end = 0;
    bool empty() const { return begin == end; }
  };

  const XNodeRow& row(query::XNodeId v) const {
    return rows_[static_cast<size_t>(v)];
  }
  bool HasFlag(query::XNodeId v, uint8_t flag) const {
    return (row(v).flags & flag) != 0;
  }
  std::span<const query::XNodeId> Children(query::XNodeId v) const {
    const XNodeRow& r = row(v);
    return std::span<const query::XNodeId>(child_ids_.data() + r.children_begin,
                                           r.children_end - r.children_begin);
  }

  // Creates the frame for a new document node, matching it against
  // `candidates` (x-nodes whose name test the node passes, in x-dag
  // topological order), and pushes it onto the stack.
  void ProcessStart(query::DocNodeKind kind, std::string_view name,
                    std::span<const query::XNodeId> candidates,
                    std::string_view value, const NodePosition& position);
  // Closes the top frame: optimistic pulls, satisfaction checks,
  // propagation/undo, and stack maintenance (Section 4.3).
  void ProcessEnd();

  // The relevance check of Section 4.1 for candidate x-node `v` against the
  // not-yet-pushed `frame`.
  bool IsRelevant(query::XNodeId v, const Frame& frame) const;

  // The x-nodes whose tests a node of the given kind and interned name
  // passes by name, sorted by x-dag topological rank (so self-edges see
  // their sources first). Name tests resolve through the symbol-indexed
  // span tables — integer index, no hashing, no merge: named lists already
  // include the kind's wildcard x-nodes.
  std::span<const query::XNodeId> CollectCandidates(query::DocNodeKind kind,
                                                    util::Symbol symbol) const;

  // Recursively retracts a structure that cannot be part of a total
  // matching (the undo of Section 4.3 / Table 2 step 23).
  void Undo(MatchingStructure* m);

  // Pushes a satisfied structure into its parent-matchings (the forward
  // half of Section 4.3's propagation) and attempts confirmation. Safe to
  // call late for structures whose following-sibling slots filled after
  // their close (deferred completion).
  void PropagateUp(const MatchingPtr& m);

  // If `m` (a closed sibling-axis target) just became satisfied, runs its
  // deferred propagation.
  void MaybeCompleteDeferred(const MatchingPtr& m);

  // Removes `m` from its parents. In full mode (dead structure) all links
  // go; in retract mode only push-links go, optimistic links stay.
  void CascadeRemoval(MatchingStructure* m, bool retract_only);

  // Un-propagates a closed structure whose refillable (following-sibling)
  // slot emptied; it may complete and re-propagate later.
  void RetractPropagation(MatchingStructure* m);

  // True if slot `slot` of `parent` can still gain entries: it is a
  // following-sibling slot and the element's parent is still open.
  bool SlotRefillable(const MatchingStructure& parent, int slot) const;

  // True if entries of this x-node are counted rather than stored once
  // confirmed (its subtree contains no output node).
  bool IsCountedXNode(query::XNodeId xnode) const {
    return HasFlag(xnode, kCounted);
  }

  // Marks `m` confirmed if it provably represents a total matching, and
  // cascades the confirmation into its parents.
  void TryConfirm(MatchingStructure* m);

  // --- earliest answering (see EngineOptions::enable_earliest_emission) ---
  // Marks `m` anchored (confirmed + reachable from the confirmed Root via
  // confirmed structures), emits its output if it is an output x-node, and
  // recursively anchors the confirmed entries of its non-counted slots.
  void Anchor(MatchingStructure* m);
  // Emits the output item for an anchored output structure exactly once
  // (capture buffers move into the item and are erased).
  void EmitEarly(MatchingStructure* m);
  // Releases `m`'s storage back to the arena and detaches it from its
  // parents if it can no longer influence the result: anchored, closed,
  // every non-counted slot drained to confirmed counts, and its x-node not
  // reclaim-blocked (sibling axes). Only active when reclaim_enabled_.
  void MaybeReclaim(MatchingStructure* m);

  // Links a child into a parent slot, propagating confirmation if the
  // child is already confirmed. `optimistic` — see MatchingStructure::Link.
  void LinkChild(const MatchingPtr& parent, int slot, const MatchingPtr& child,
                 bool optimistic);

  // Finds the structure matched to `xnode` in `frame`, or null.
  static const MatchingPtr* FindMatch(const Frame& frame,
                                      query::XNodeId xnode);

  void BuildResult(const MatchingPtr& root_structure);
  void ResetDocumentState();
  // Drops the per-document matching state: the frames this document used,
  // the open-structure registry, captures and early items.
  void ClearMatchingState();
  // Sets the per-document arena figures in stats_ — private arena only;
  // an evaluator reports its shared arena itself.
  void AccountPrivateArena();
  void FailWith(Status status);

  const query::XTree* tree_;
  EngineOptions options_;

  // Backing store for all matching structures, their internal vectors and
  // captures: the owning evaluator's arena, or own_arena_ for an engine
  // constructed on its own. own_arena_ is declared before every member that
  // can hold a MatchingPtr (stack_, open_by_xnode_, active_captures_,
  // root_structure_) so it is destroyed after them. Freed blocks recycle
  // through size-classed free lists, so steady-state per-event allocation
  // never reaches the heap.
  std::unique_ptr<util::PoolArena> own_arena_;
  util::PoolArena* arena_;

  // --- immutable query-derived tables ---
  std::vector<XNodeRow> rows_;            // by x-node id
  std::vector<query::XNodeId> child_ids_;  // rows' children, concatenated
  std::vector<InEdge> in_edges_;           // rows' x-dag in-edges
  // Every candidate list, concatenated. Element / attribute name tests are
  // indexed by interned Symbol (a symbol past the table or without named
  // x-nodes gets the kind's wildcard list); each named list is merged with
  // its kind's wildcard x-nodes at construction.
  std::vector<query::XNodeId> candidates_;
  std::vector<CandidateSpan> element_spans_;
  std::vector<CandidateSpan> attribute_spans_;
  CandidateSpan any_element_;
  CandidateSpan any_attribute_;
  CandidateSpan text_;
  CandidateSpan root_;
  std::vector<util::Symbol> mentioned_symbols_;
  bool wants_attributes_ = false;
  bool wants_text_ = false;
  bool wants_siblings_ = false;
  // enable_earliest_emission resolved against this tree; reclaim_enabled_
  // additionally requires exactly one output x-node (multi-output tuple
  // enumeration needs the full structure graph).
  bool earliest_ = false;
  bool reclaim_enabled_ = false;

  // --- per-document state ---
  // Frame stack. `stack_` is used as an arena indexed by `depth_` so that
  // frame vectors keep their capacity across elements (allocation-free in
  // steady state). Frames at index >= depth_ are spent and empty, except
  // for the closed-sibling lists of frames below `stack_dirty_`: the
  // number of frames this document has used, which bounds the per-document
  // reset.
  std::vector<Frame> stack_;
  size_t depth_ = 0;
  size_t stack_dirty_ = 0;
  // Structures of currently open document nodes, per x-node (stack
  // discipline: the newest open match is at the back).
  std::vector<std::vector<MatchingPtr>> open_by_xnode_;
  std::vector<CapturePtr> active_captures_;
  std::unordered_map<ElementId, std::string> captured_;
  MatchingPtr root_structure_;
  // The Root structure of the document in progress (owned by stack_[0]);
  // used to detect early match confirmation.
  MatchingStructure* live_root_ = nullptr;
  // Node numbering for the ContentHandler entry points; the Deliver*
  // entry points take positions from the caller instead.
  DocumentCursor own_cursor_;
  // own_arena_->bytes_allocated() at the start of the current document.
  uint64_t arena_baseline_ = 0;
  // Items emitted before EndDocument (proof order) and the ids already
  // emitted — BuildResult merges these with the residual traversal and
  // restores document order.
  std::vector<OutputItem> early_items_;
  std::unordered_set<ElementId> emitted_ids_;
  bool done_ = false;
  bool early_match_ = false;
  uint64_t confirm_ns_ = 0;  // see match_confirm_ns()
  bool inert_ = false;  // stop_after_confirmed_match triggered
  Status error_;
  EngineStats stats_;
  QueryResult result_;

  // Non-null while a fleet collects early items (set_early_item_buffer).
  std::vector<OutputItem>* early_item_buffer_ = nullptr;
  std::vector<size_t> order_scratch_;
};

}  // namespace xaos::core

#endif  // XAOS_CORE_XAOS_ENGINE_H_
