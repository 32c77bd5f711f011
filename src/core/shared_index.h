// Shared-prefix subscription index: many compiled x-dags merged into one
// automaton, for sublinear multi-query matching.
//
// The per-engine pub/sub path (engine_fleet.h) runs one XaosEngine per
// subscription behind a label index; an event still costs O(engines whose
// labels it carries), i.e. linear in the subscription count for popular
// labels. This module collapses the *shareable* subscriptions — queries
// whose x-dags are linear forward chains (child/descendant axes, element or
// wildcard tests, no predicates, no value tests, output at the leaf) — into
// one hash-consed trie-automaton, YFilter-style: structurally identical
// prefix states are shared across subscriptions, and per-subscription
// acceptance sets hang off the accepting states. Fully identical queries
// collapse to a single state chain with an N-entry acceptance set, so
// per-event cost scales with *distinct query structure*, not with the
// subscription count.
//
// Hash-consing invariant: a state is identified by (parent state, edge kind,
// symbol), where edge kind is child/descendant x named/wildcard. Each key
// has at most one target, so a document element can enter any given state at
// most once per event — the runtime needs no per-event deduplication.
//
// The runtime (SharedMatcher) is an NFA simulation with the classic
// fresh/carry split: child transitions fire only from the states entered at
// the parent element (the "fresh" set of the parent depth), while
// descendant transitions fire from the "carry" set of armed states — a
// state with descendant out-edges is armed when entered and stays armed
// until the element that entered it closes, covering its whole subtree.
// Both sets are hash-consed into one flat pool of interned state sets, so
// an open element's configuration is a pair of set ids and a step is
// (fresh, carry, symbol) -> (fresh', carry'), memoized in a direct-mapped
// step cache. The pool is bounded: when it fills, the matcher re-interns
// just the open elements' configurations into an empty pool and carries on.
//
// Queries the merger cannot share (backward or sibling axes, predicates,
// attribute/text tests, value constraints) stay on the per-engine path,
// which doubles as the differential oracle: verdicts and result items are
// byte-identical between the two backends (tests/shared_index_test.cc,
// fuzz/fuzz_shared_index_diff.cc).

#ifndef XAOS_CORE_SHARED_INDEX_H_
#define XAOS_CORE_SHARED_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/document_cursor.h"
#include "core/result.h"
#include "query/projection.h"
#include "query/xtree.h"
#include "util/symbol_table.h"

namespace xaos::core {

class SharedIndex;

// Accumulates subscriptions into the hash-consed trie. Build() snapshots it
// into the flat, immutable SharedIndex the matcher runs on; the builder
// stays usable for further AddSubscription calls followed by a rebuild.
class SharedIndexBuilder {
 public:
  SharedIndexBuilder();

  // True if `tree` is a linear forward chain the merger can represent:
  // Root at node 0, every step child or descendant with an element or
  // wildcard test (no value), single-child spine, output exactly at the
  // leaf.
  static bool ShareableTree(const query::XTree& tree);
  // A query is shareable iff every disjunct tree is.
  static bool Shareable(const std::vector<query::XTree>& trees);

  // Inserts a subscription's chains and returns its dense id (0, 1, ...).
  // Trees must be shareable (checked).
  uint32_t AddSubscription(const std::vector<query::XTree>& trees);

  // Trie states so far, including the root state.
  size_t state_count() const { return states_.size(); }
  size_t subscription_count() const { return subscription_count_; }
  // Chain nodes inserted before sharing (the root excluded): what a
  // per-subscription representation would have cost. state_count()-1 over
  // this is the sharing ratio.
  uint64_t chain_nodes_total() const { return chain_nodes_total_; }

  // The document-projection spec of the whole inserted pool, derived from
  // one walk of the merged trie. Equivalent to unioning
  // ProjectionSpec::Analyze over every inserted chain: shared prefixes are
  // analyzed once. Empty spec (keeps nothing) when no subscriptions.
  query::ProjectionSpec AnalyzeProjection() const;

  // Snapshots the trie into the immutable runtime form.
  std::unique_ptr<SharedIndex> Build() const;

 private:
  // Edge kinds, two axes x named/wildcard. A named target and a wildcard
  // target of the same parent are distinct states ("/a/b" and "/a/*" do not
  // share their second step).
  enum EdgeKind : uint32_t {
    kChildNamed = 0,
    kDescNamed = 1,
    kChildWild = 2,
    kDescWild = 3,
  };

  struct Edge {
    EdgeKind kind;
    util::Symbol symbol;  // kInvalidSymbol for wildcard kinds
    int32_t target;
  };

  struct State {
    std::vector<Edge> out;
    std::vector<uint32_t> accepts;
    // Projection bookkeeping, fixed at creation (a trie state has exactly
    // one incoming path): document level when every match sits at one
    // depth, kFloatingLevel below a descendant step.
    int level = 0;
    util::Symbol symbol = util::kInvalidSymbol;  // incoming named test
    bool wildcard = false;   // incoming wildcard test
    bool desc_in = false;    // entered via a descendant edge
    bool portal = false;     // fixed-level source of a descendant edge
    bool has_desc_out = false;
  };

  static constexpr int kFloatingLevel = -1;

  static uint64_t EdgeKey(int32_t parent, EdgeKind kind, util::Symbol symbol);
  // Follows (parent, kind, symbol); returns the target or -1.
  int32_t Lookup(int32_t parent, EdgeKind kind, util::Symbol symbol) const;
  // Lookup-or-create; updates portal/has_desc_out bookkeeping.
  int32_t Intern(int32_t parent, EdgeKind kind, util::Symbol symbol);

  std::vector<State> states_;
  std::unordered_map<uint64_t, int32_t> edges_;
  uint32_t subscription_count_ = 0;
  uint64_t chain_nodes_total_ = 0;
  // A descendant edge leaves the root state: every chain below it floats
  // from the document root, so projection degrades to keep-all.
  bool root_portal_ = false;
};

// The immutable runtime form: one open-addressed step table resolving both
// named targets of (state, symbol) in a single probe, per-state wildcard
// targets, and acceptance slices. Read-only after construction, so fleet
// workers can share one index across threads.
class SharedIndex {
 public:
  struct BuildStats {
    size_t states = 0;          // including the root state
    size_t subscriptions = 0;
    uint64_t chain_nodes = 0;   // pre-merge chain nodes (root excluded)
  };

  static constexpr int32_t kRootState = 0;

  size_t state_count() const { return states_.size(); }
  size_t subscription_count() const { return stats_.subscriptions; }
  const BuildStats& stats() const { return stats_; }

  // Sharing ratio in per-mille: 1000 * (states - root) / chain_nodes.
  // 1000 = nothing shared; small = heavy sharing.
  int64_t SharingRatioPermille() const {
    if (stats_.chain_nodes == 0) return 1000;
    return static_cast<int64_t>((stats_.states - 1) * 1000 /
                                stats_.chain_nodes);
  }

  // Named transitions of (state, symbol). Entries exist only for keys with
  // at least one named edge; a missing target is -1.
  struct StepEntry {
    int32_t state = -1;  // -1 marks an empty slot
    util::Symbol symbol = util::kInvalidSymbol;
    int32_t child_target = -1;
    int32_t desc_target = -1;
  };
  const StepEntry* FindStep(int32_t state, util::Symbol symbol) const {
    if (step_mask_ == 0 || symbol == util::kInvalidSymbol) return nullptr;
    size_t slot = StepHash(state, symbol) & step_mask_;
    for (;;) {
      const StepEntry& entry = step_table_[slot];
      if (entry.state == state && entry.symbol == symbol) return &entry;
      if (entry.state < 0) return nullptr;
      slot = (slot + 1) & step_mask_;
    }
  }
  int32_t child_wild(int32_t state) const {
    return states_[static_cast<size_t>(state)].child_wild;
  }
  int32_t desc_wild(int32_t state) const {
    return states_[static_cast<size_t>(state)].desc_wild;
  }

  bool HasDescOut(int32_t state) const {
    return states_[static_cast<size_t>(state)].has_desc_out;
  }
  // Subscriptions accepted at `state` ([begin, end) into a stable array).
  const uint32_t* AcceptsBegin(int32_t state) const {
    return accepts_.data() + states_[static_cast<size_t>(state)].accept_begin;
  }
  const uint32_t* AcceptsEnd(int32_t state) const {
    return accepts_.data() + states_[static_cast<size_t>(state)].accept_end;
  }

 private:
  friend class SharedIndexBuilder;

  struct StateMeta {
    int32_t child_wild = -1;
    int32_t desc_wild = -1;
    uint32_t accept_begin = 0, accept_end = 0;
    bool has_desc_out = false;
  };

  static size_t StepHash(int32_t state, util::Symbol symbol) {
    uint64_t key = (static_cast<uint64_t>(static_cast<uint32_t>(state)) << 32) |
                   static_cast<uint32_t>(symbol);
    // splitmix64 finalizer: dense state/symbol ids need real mixing before
    // the power-of-two mask.
    key ^= key >> 30;
    key *= 0xbf58476d1ce4e5b9ull;
    key ^= key >> 27;
    key *= 0x94d049bb133111ebull;
    key ^= key >> 31;
    return static_cast<size_t>(key);
  }
  // Inserts or extends the entry of (state, symbol); capacity is sized by
  // the builder before the first call.
  void AddNamedEdge(int32_t state, util::Symbol symbol, bool desc,
                    int32_t target);

  std::vector<StateMeta> states_;
  std::vector<uint32_t> accepts_;
  std::vector<StepEntry> step_table_;   // open-addressed, power-of-two size
  size_t step_mask_ = 0;                // table size - 1; 0 = no named edges
  BuildStats stats_;
};

// Per-evaluator runtime over one SharedIndex: the only mutable state of the
// shared backend. Driven by EngineFleet for every element event (the trie
// is its own index; no label pre-filtering). Verdict semantics mirror
// XaosEngine: MatchConfirmed is monotone and usable mid-stream, Matched and
// Result are valid after EndDocument, an aborted document reports
// Matched() == false while the confirmation flag persists until the next
// StartDocument.
//
// Verdict state is sized by what confirmed, not by the subscription count:
// one confirmation byte per subscription, a list of the subscriptions
// confirmed this document (StartDocument clears only those bytes), and one
// flat per-document item log that chains each subscription's items in
// document order. An element's name is copied once into a per-document
// byte buffer however many subscriptions select it.
//
// Each open element holds one configuration: an interned fresh set (states
// entered at it) and an interned carry set (states armed at it or above).
// Interned sets and cached steps are document-independent and persist
// across documents. When a step could push the interner past
// set_flat_set_limit_for_test sets (64k by default), the open elements'
// configurations — at most 2 * (depth + 1) sets, and ParserLimits::max_depth
// bounds depth — are re-interned into an emptied pool first. The pool
// therefore never exceeds limit + 2 * (depth + 1) sets: pathological tag
// diversity costs a reset, never unbounded memory.
class SharedMatcher {
 public:
  // `index` must outlive the matcher. `bool_only` mirrors
  // EngineOptions::stop_after_confirmed_match: report matched with no
  // items.
  SharedMatcher(const SharedIndex* index, bool bool_only);

  void StartDocument();
  // `node` is the cursor node of the element being started (the fleet
  // advances the shared cursor first). `symbol` may be kInvalidSymbol
  // (replay paths); `name` resolves it.
  void StartElement(util::Symbol symbol, std::string_view name,
                    const DocumentCursor::Node& node);
  void EndElement();
  void EndDocument();
  void AbortDocument();

  // --- interner introspection (tests, benches) ---
  // Takes effect at the next step that would intern a new set.
  void set_flat_set_limit_for_test(size_t limit) { flat_set_limit_ = limit; }
  // Interned sets, the empty and root sets included.
  size_t interned_set_count() const { return sets_.size(); }
  // Times the interner hit its limit and re-interned the open elements.
  uint64_t universe_resets() const { return universe_resets_; }
  uint64_t flat_cache_hits() const { return flat_cache_hits_; }
  uint64_t flat_cache_misses() const { return flat_cache_misses_; }

  // Valid after EndDocument (false mid-stream and after an abort).
  bool Matched(uint32_t sub) const { return end_seen_ && confirmed_[sub] != 0; }
  // Monotone mid-stream confirmation, like XaosEngine::match_confirmed.
  bool MatchConfirmed(uint32_t sub) const { return confirmed_[sub] != 0; }
  // obs::NowNs() of the confirmation transition; 0 unmatched / obs off.
  uint64_t confirm_ns(uint32_t sub) const {
    return confirmed_[sub] != 0 ? confirm_ns_[sub] : 0;
  }
  // The subscription's result; items in document order, deduplicated
  // (empty under bool_only, like stop_after_confirmed_match).
  QueryResult Result(uint32_t sub) const;
  // Subscriptions confirmed this document, in confirmation order; an
  // aborted document's list stands until the next StartDocument.
  const std::vector<uint32_t>& confirmed_subs() const {
    return confirmed_list_;
  }

  // --- accounting (cumulative across documents) ---
  uint64_t elements_total() const { return elements_total_; }
  uint64_t states_entered_total() const { return states_entered_total_; }
  // This document's element / state-entry counts (dispatch-work-saved
  // attribution at document end).
  uint64_t elements_document() const { return elements_document_; }
  uint64_t states_entered_document() const { return states_entered_document_; }

 private:
  static constexpr uint32_t kNoItem = UINT32_MAX;

  // One selected element in the per-document item log. A subscription's
  // items chain through `next` in document order; the name is a slice of
  // names_.
  struct LoggedItem {
    NodePosition node;
    uint32_t name_begin = 0;
    uint32_t name_size = 0;
    uint32_t next = kNoItem;
  };
  // First and last log entry of one subscription's chain; read only while
  // the subscription is confirmed, so it needs no per-document reset.
  struct ItemChain {
    uint32_t head = kNoItem;
    uint32_t tail = kNoItem;
  };

  // Active-state sets interned into one flat pool: sets_[id] spans
  // set_pool_. Id 0 is always the empty set, id 1 the root-state set.
  struct SetSpan {
    uint32_t begin = 0;
    uint32_t size = 0;
  };
  static constexpr uint32_t kEmptySetId = 0;
  static constexpr uint32_t kRootSetId = 1;
  static constexpr size_t kDefaultFlatSetLimit = 1 << 16;
  static constexpr size_t kStepCacheSize = 4096;  // direct-mapped, power of 2

  struct StepSlot {
    uint32_t fresh = UINT32_MAX;  // UINT32_MAX = never filled
    uint32_t carry = 0;
    util::Symbol symbol = util::kInvalidSymbol;
    uint32_t fresh_child = 0;
    uint32_t carry_child = 0;
  };

  // Confirms `sub` and, unless bool_only, logs `node` into its item chain;
  // the element's name is names_[name_begin, name_begin + name_size).
  void Fire(uint32_t sub, const DocumentCursor::Node& node,
            uint32_t name_begin, uint32_t name_size);
  // Interns the state list [data, data+size) and returns its id.
  uint32_t InternSet(const int32_t* data, uint32_t size);
  // Computes the child configuration of (fresh, carry) on `symbol` through
  // the index's step table, interning at most two new sets.
  void ComputeStep(uint32_t fresh, uint32_t carry, util::Symbol symbol,
                   uint32_t* fresh_child, uint32_t* carry_child);
  // Drops every interned set and cached step (set ids are invalidated
  // together, so the step cache can never serve a stale id), then interns
  // the empty and root sets.
  void ResetFlatUniverse();
  // ResetFlatUniverse, keeping the configurations of depths [0, top]: their
  // member lists are copied out first and re-interned into the new pool.
  void RebaseFlatUniverse(size_t top);

  const SharedIndex* index_;
  bool bool_only_;
  size_t depth_ = 0;  // open elements; the document root is depth 0
  bool end_seen_ = false;

  // Per subscription: 1 once confirmed this document, and when.
  std::vector<uint8_t> confirmed_;
  std::vector<uint64_t> confirm_ns_;  // valid while confirmed
  // Subscriptions confirmed this document; StartDocument resets exactly
  // these. Under bool_only, once every subscription is confirmed no
  // transition can change any verdict, so StartElement degrades to depth
  // bookkeeping (earliest answering's inert mode for the shared acceptance
  // path).
  std::vector<uint32_t> confirmed_list_;
  // This document's item log and the name bytes it slices (both empty under
  // bool_only); chains_ is indexed by subscription.
  std::vector<LoggedItem> items_;
  std::string names_;
  std::vector<ItemChain> chains_;

  uint64_t elements_total_ = 0;
  uint64_t states_entered_total_ = 0;
  uint64_t elements_document_ = 0;
  uint64_t states_entered_document_ = 0;

  std::vector<int32_t> set_pool_;
  std::vector<SetSpan> sets_;
  // Per-set accept lists, concatenated in member-state order at intern
  // time: the per-element fire loop reads one span (usually empty) instead
  // of probing every entered state's accept range.
  std::vector<uint32_t> accept_pool_;
  std::vector<SetSpan> set_accepts_;
  std::vector<uint32_t> set_table_;  // open-addressed: id + 1, 0 = empty
  size_t set_mask_ = 0;
  std::vector<StepSlot> step_cache_;
  // Configuration of each open element, indexed by depth.
  std::vector<uint32_t> fresh_stack_;
  std::vector<uint32_t> carry_stack_;
  std::vector<int32_t> entered_scratch_;
  std::vector<int32_t> carry_scratch_;
  std::vector<int32_t> rebase_states_;   // RebaseFlatUniverse copy-out
  std::vector<uint32_t> rebase_sizes_;
  size_t flat_set_limit_ = kDefaultFlatSetLimit;
  uint64_t universe_resets_ = 0;
  uint64_t flat_cache_hits_ = 0;
  uint64_t flat_cache_misses_ = 0;
};

}  // namespace xaos::core

#endif  // XAOS_CORE_SHARED_INDEX_H_
