// The matching-structure: the paper's compact representation of all
// matchings at an x-node (Section 4.2, Figure 4).
//
// A MatchingStructure M(v, e) records that document node `e` matches x-node
// `v`, and holds one *submatching slot* per x-tree child of `v`. Each slot
// is a set of references to child structures M(w, e') with (v,e) consistent
// with (w,e'). M(v,e) represents at least one total matching at `v` exactly
// when every slot is non-empty (with all referenced structures themselves
// total) — the engine maintains this invariant through propagation and undo
// (Section 4.3).
//
// Storage. A structure is one PoolArena block: the header below, then its
// slot lists, then its per-slot confirmed counts. Each parent–child edge is
// one StructureLink, which is at the same time the parent's slot entry and
// the child's back reference (the child's list of parents, walked by undo
// cascades). Lifetimes are counted intrusively and without atomics — each
// engine, its arena and its structures are confined to one thread:
//   * strong references: a slot entry, an open frame's match, a closed-
//     sibling list entry, the engine's finished Root, and the engine's
//     short-lived holds inside one operation. When the last one goes, the
//     structure is *released*: its stats are settled and its slot entries
//     dropped, exactly when a shared_ptr would have destroyed it;
//   * weak references: a back reference keeps its parent's block readable,
//     so an undo cascade still sees a released parent as gone. The block
//     returns to the arena when both counts reach zero.
// The x-tree is a tree and every link points from an x-node's structure to
// one of its x-tree children's, so strong references never form a cycle.
//
// A structure stores a NodeRecord, not an ElementInfo: position, kind and
// interned name. Name and value bytes are kept (in a heap block the
// structure owns) only for output matches whose spelling the symbol table
// cannot give back — an unknown element name, an attribute or text value.
// Output items are built from the record when they are emitted.
//
// StructureStore creates, links, unlinks and releases structures; the
// engine (core/xaos_engine.h) runs the algorithm over them.

#ifndef XAOS_CORE_MATCHING_STRUCTURE_H_
#define XAOS_CORE_MATCHING_STRUCTURE_H_

#include <cstdint>
#include <string_view>

#include "core/element_info.h"
#include "core/engine_stats.h"
#include "query/xtree.h"
#include "util/pool_arena.h"
#include "util/symbol_table.h"

namespace xaos::core {

// What frames and structures remember of a document node.
struct NodeRecord {
  NodePosition position;
  util::Symbol symbol = util::kInvalidSymbol;  // resolved element/attr name
  query::DocNodeKind kind = query::DocNodeKind::kElement;
};

struct MatchingStructure;

// One parent–child edge. While `in_slot` it is an entry of the parent's
// slot list and holds a strong reference to the child; while
// `in_backrefs` it is on the child's back-reference list and holds a weak
// reference to the parent. It returns to the arena when it is on neither.
struct StructureLink {
  MatchingStructure* parent;
  MatchingStructure* child;
  StructureLink* next_in_slot;
  StructureLink* next_backref;
  uint32_t slot;
  bool optimistic;  // a pull made before the child's satisfaction was known
  bool in_slot;
  bool in_backrefs;
};

// A singly linked list in insertion order.
struct LinkList {
  StructureLink* head = nullptr;
  StructureLink* tail = nullptr;
  bool empty() const { return head == nullptr; }
};

// Header of a structure block; `slot_count` LinkLists and as many uint32_t
// confirmed counts follow it in the same block.
struct MatchingStructure {
  enum Flag : uint8_t {
    kClosed = 1 << 0,
    kDead = 1 << 1,
    kConfirmed = 1 << 2,
    // Satisfaction pushed into the parent-matchings; cleared if a
    // refillable (following-sibling) slot empties and the push is
    // retracted.
    kPropagated = 1 << 3,
    // Confirmed AND reachable from the confirmed Root through confirmed
    // structures (earliest answering): provably part of the final result.
    kAnchored = 1 << 4,
    // Output emitted and slot/backref storage returned early; never
    // re-linked.
    kReclaimed = 1 << 5,
    // Reached by the result walk (XaosEngine::BuildResult), which clears
    // it again before it returns.
    kVisited = 1 << 6,
  };

  uint32_t strong;
  uint32_t weak;
  query::XNodeId xnode;
  uint16_t slot_count;
  uint8_t flags;
  NodeRecord node;
  // Output matches only, when the symbol cannot spell the name or there is
  // a value: [uint32 name size][uint32 value size][name][value].
  char* text;
  // The previous open match of the same x-node (the engine's per-x-node
  // open list, newest first); meaningful while the element is open.
  MatchingStructure* prev_open;
  LinkList backrefs;  // links to the parents referencing this structure

  LinkList* slots() { return reinterpret_cast<LinkList*>(this + 1); }
  const LinkList* slots() const {
    return reinterpret_cast<const LinkList*>(this + 1);
  }
  LinkList& slot(int i) { return slots()[i]; }
  const LinkList& slot(int i) const { return slots()[i]; }
  uint32_t* confirmed_counts() {
    return reinterpret_cast<uint32_t*>(slots() + slot_count);
  }
  const uint32_t* confirmed_counts() const {
    return reinterpret_cast<const uint32_t*>(slots() + slot_count);
  }
  uint32_t confirmed_count(int i) const { return confirmed_counts()[i]; }
  void bump_confirmed(int i) { ++confirmed_counts()[i]; }

  bool has(Flag f) const { return (flags & f) != 0; }
  void set(Flag f) { flags |= f; }
  void clear(Flag f) { flags = static_cast<uint8_t>(flags & ~f); }
  bool closed() const { return has(kClosed); }
  bool dead() const { return has(kDead); }
  bool confirmed() const { return has(kConfirmed); }
  bool propagated() const { return has(kPropagated); }
  bool anchored() const { return has(kAnchored); }
  bool reclaimed() const { return has(kReclaimed); }
  // Released: no strong reference is left (a weak one keeps it readable).
  bool expired() const { return strong == 0; }

  // A slot counts as non-empty if it stores an entry or has accumulated
  // confirmed entries (boolean submatchings release confirmed entries and
  // keep only the count — paper Section 5.1).
  bool SlotEmpty(int i) const {
    return slot(i).empty() && confirmed_count(i) == 0;
  }
  // True when every submatching slot is non-empty (a leaf is trivially
  // satisfied).
  bool AllSlotsNonEmpty() const {
    for (int i = 0; i < slot_count; ++i) {
      if (SlotEmpty(i)) return false;
    }
    return true;
  }
  // True if every slot holds a confirmed entry (paper Section 5.1's
  // confirmation).
  bool AllSlotsConfirmed() const {
    for (int i = 0; i < slot_count; ++i) {
      if (confirmed_count(i) == 0) return false;
    }
    return true;
  }

  // Name and value as an OutputItem reports them.
  std::string_view name() const;
  std::string_view value() const;
  ElementInfo Info() const;

  static size_t BlockBytes(int slot_count) {
    return sizeof(MatchingStructure) +
           static_cast<size_t>(slot_count) *
               (sizeof(LinkList) + sizeof(uint32_t));
  }
};

// Allocation, linking and lifetime of one engine's structures.
class StructureStore {
 public:
  StructureStore(util::PoolArena* arena, EngineStats* stats)
      : arena_(arena), stats_(stats) {}
  StructureStore(const StructureStore&) = delete;
  StructureStore& operator=(const StructureStore&) = delete;

  // A new structure holding one strong reference (the caller's). `name` and
  // `value` are kept only when `keep_text` (see MatchingStructure::text).
  // Counts the creation in the stats.
  MatchingStructure* Create(query::XNodeId xnode, const NodeRecord& node,
                            int slot_count, bool keep_text,
                            std::string_view name, std::string_view value);

  static void Retain(MatchingStructure* m) { ++m->strong; }
  void Release(MatchingStructure* m) {
    if (--m->strong == 0) Expire(m);
  }
  static void RetainWeak(MatchingStructure* m) { ++m->weak; }
  void ReleaseWeak(MatchingStructure* m) {
    if (--m->weak == 0 && m->strong == 0) FreeBlock(m);
  }

  // Links `child` into slot `i` of `parent` and onto the child's back
  // references. A child confirmed before the link counts at once.
  void Link(MatchingStructure* parent, int i, MatchingStructure* child,
            bool optimistic);

  // Removes the first entry of slot `i` whose child is `child` (no-op if
  // there is none) and drops its strong reference, which can release
  // `child`.
  void RemoveFromSlot(MatchingStructure* parent, int i,
                      const MatchingStructure* child);

  // Detaches and returns `m`'s back references; every link stays marked
  // `in_backrefs` (and keeps its weak reference) until DropBackref.
  LinkList TakeBackrefs(MatchingStructure* m) {
    LinkList out = m->backrefs;
    m->backrefs = LinkList{};
    return out;
  }
  // Ends a taken link's back-reference role.
  void DropBackref(StructureLink* link) {
    link->in_backrefs = false;
    MatchingStructure* parent = link->parent;
    if (!link->in_slot) FreeLink(link);
    ReleaseWeak(parent);
  }

  // Empties every slot of `m` (dropping the entries' strong references);
  // confirmed counts are kept. Earliest answering's eager reclaim.
  void ClearSlots(MatchingStructure* m);

 private:
  // The last strong reference went: settle the stats, drop the slot
  // entries and back references, free the block unless a weak reference
  // still reads it.
  void Expire(MatchingStructure* m);
  void FreeBlock(MatchingStructure* m);
  static void AppendBackref(MatchingStructure* m, StructureLink* link);
  void FreeLink(StructureLink* link) {
    arena_->Deallocate(link, sizeof(StructureLink));
  }
  // Unlinks a slot entry (the link is known to be in `list` after `prev`).
  void DropSlotEntry(LinkList* list, StructureLink* prev,
                     StructureLink* link);

  util::PoolArena* arena_;
  EngineStats* stats_;
};

}  // namespace xaos::core

#endif  // XAOS_CORE_MATCHING_STRUCTURE_H_
