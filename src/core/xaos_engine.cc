#include "core/xaos_engine.h"

#include <algorithm>
#include <functional>
#include <set>
#include <unordered_set>
#include <utility>

#include "obs/timer.h"
#include "query/xdag.h"

namespace xaos::core {

using query::DocNodeKind;
using query::kRootXNode;
using query::NodeTestSpec;
using query::XNodeId;
using xpath::Axis;

XaosEngine::XaosEngine(const query::XTree* tree, EngineOptions options,
                       util::PoolArena* arena)
    : tree_(tree),
      options_(options),
      own_arena_(arena == nullptr ? std::make_unique<util::PoolArena>()
                                  : nullptr),
      arena_(arena == nullptr ? own_arena_.get() : arena) {
  XAOS_CHECK(tree_->node(kRootXNode).test.kind == NodeTestSpec::Kind::kRoot)
      << "x-tree node 0 must test for the virtual root";

  // The x-dag is only needed to derive the tables below.
  const query::XDag xdag(*tree_);
  const int n = tree_->size();
  rows_.resize(static_cast<size_t>(n));
  for (XNodeId v = 0; v < n; ++v) {
    const query::XNode& node = tree_->node(v);
    XNodeRow& r = rows_[static_cast<size_t>(v)];
    r.parent = node.parent;
    r.incoming_axis = node.incoming_axis;
    r.depth = static_cast<int16_t>(node.depth);
    if (node.is_output) r.flags |= kOutput;
    // MatchesSpec constrains the string value of attribute and text tests
    // only.
    if (node.test.value.has_value() &&
        (node.test.kind == NodeTestSpec::Kind::kAttribute ||
         node.test.kind == NodeTestSpec::Kind::kAnyAttribute ||
         node.test.kind == NodeTestSpec::Kind::kText)) {
      r.flags |= kValueTest;
    }
    r.children_begin = static_cast<uint32_t>(child_ids_.size());
    for (size_t i = 0; i < node.children.size(); ++i) {
      rows_[static_cast<size_t>(node.children[i])].slot = static_cast<int>(i);
      child_ids_.push_back(node.children[i]);
    }
    r.children_end = static_cast<uint32_t>(child_ids_.size());
    r.in_edges_begin = static_cast<uint32_t>(in_edges_.size());
    for (const query::XDagEdge& edge : xdag.incoming(v)) {
      in_edges_.push_back(InEdge{edge.from, edge.axis});
    }
    r.in_edges_end = static_cast<uint32_t>(in_edges_.size());
  }

  // Candidate lists by node kind. Name tests are interned once here (the
  // x-tree compiler usually already did — name_symbol — so this is a no-op
  // hash at most once per x-node); at event time candidate lookup is a flat
  // index by the event's Symbol.
  std::vector<std::vector<XNodeId>> named_elements;
  std::vector<std::vector<XNodeId>> named_attributes;
  std::vector<XNodeId> any_element;
  std::vector<XNodeId> any_attribute;
  std::vector<XNodeId> text;
  std::vector<XNodeId> root;
  auto add_named = [this](std::vector<std::vector<XNodeId>>* table,
                          const NodeTestSpec& spec, XNodeId v) {
    util::Symbol s = spec.name_symbol != util::kInvalidSymbol
                         ? spec.name_symbol
                         : util::SymbolTable::Global().Intern(spec.name);
    if (static_cast<size_t>(s) >= table->size()) {
      table->resize(static_cast<size_t>(s) + 1);
    }
    (*table)[static_cast<size_t>(s)].push_back(v);
    mentioned_symbols_.push_back(s);
  };
  for (XNodeId v = 0; v < n; ++v) {
    const NodeTestSpec& test = tree_->node(v).test;
    switch (test.kind) {
      case NodeTestSpec::Kind::kRoot:
        root.push_back(v);
        break;
      case NodeTestSpec::Kind::kElement:
        add_named(&named_elements, test, v);
        break;
      case NodeTestSpec::Kind::kAnyElement:
        any_element.push_back(v);
        break;
      case NodeTestSpec::Kind::kAttribute:
        add_named(&named_attributes, test, v);
        wants_attributes_ = true;
        break;
      case NodeTestSpec::Kind::kAnyAttribute:
        any_attribute.push_back(v);
        wants_attributes_ = true;
        break;
      case NodeTestSpec::Kind::kText:
        text.push_back(v);
        wants_text_ = true;
        break;
    }
  }
  std::sort(mentioned_symbols_.begin(), mentioned_symbols_.end());
  mentioned_symbols_.erase(
      std::unique(mentioned_symbols_.begin(), mentioned_symbols_.end()),
      mentioned_symbols_.end());
  mentioned_symbols_.shrink_to_fit();
  // Every list is sorted by topological rank so that self-edges are
  // resolved in order within a single event; each named list is merged with
  // its kind's wildcards here, once, instead of at every event.
  auto append = [this, &xdag](std::vector<XNodeId> list) {
    std::sort(list.begin(), list.end(), [&xdag](XNodeId a, XNodeId b) {
      return xdag.TopologicalRank(a) < xdag.TopologicalRank(b);
    });
    CandidateSpan span;
    span.begin = static_cast<uint32_t>(candidates_.size());
    candidates_.insert(candidates_.end(), list.begin(), list.end());
    span.end = static_cast<uint32_t>(candidates_.size());
    return span;
  };
  root_ = append(root);
  text_ = append(text);
  any_element_ = append(any_element);
  any_attribute_ = append(any_attribute);
  auto build_spans = [&append](
                         const std::vector<std::vector<XNodeId>>& named,
                         const std::vector<XNodeId>& wildcards,
                         CandidateSpan wildcard_span,
                         std::vector<CandidateSpan>* spans) {
    spans->assign(named.size(), wildcard_span);
    for (size_t s = 0; s < named.size(); ++s) {
      if (named[s].empty()) continue;
      std::vector<XNodeId> merged = named[s];
      merged.insert(merged.end(), wildcards.begin(), wildcards.end());
      (*spans)[s] = append(std::move(merged));
    }
  };
  build_spans(named_elements, any_element, any_element_, &element_spans_);
  build_spans(named_attributes, any_attribute, any_attribute_,
              &attribute_spans_);
  open_by_xnode_.resize(static_cast<size_t>(n));

  // Boolean submatchings (Section 5.1): an x-node whose subtree contains no
  // output node never needs its matchings enumerated — confirmed ones are
  // counted and released.
  if (options_.enable_boolean_submatchings) {
    // Post-order: a subtree is output-free if the node itself is not an
    // output and all child subtrees are output-free. Children have larger
    // ids than their parents (builder order), so a reverse scan works.
    for (XNodeId v = n - 1; v > kRootXNode; --v) {
      bool output_free = !HasFlag(v, kOutput);
      for (XNodeId w : Children(v)) {
        output_free = output_free && HasFlag(w, kCounted);
      }
      if (output_free) rows_[static_cast<size_t>(v)].flags |= kCounted;
    }
  }

  // Sibling support tables: a closed child structure must stay reachable
  // from its parent frame when its x-node (a) supports following-sibling
  // relevance, (b) is a preceding-sibling pull source, or (c) is the target
  // of deferred following-sibling propagation.
  for (XNodeId v = 0; v < n; ++v) {
    for (const query::XDagEdge& edge : xdag.outgoing(v)) {
      if (edge.axis == Axis::kFollowingSibling) {
        rows_[static_cast<size_t>(v)].flags |= kSiblingListed;  // (a)
        wants_siblings_ = true;
      }
    }
    if (v != kRootXNode) {
      Axis incoming = row(v).incoming_axis;
      if (incoming == Axis::kPrecedingSibling) {
        rows_[static_cast<size_t>(v)].flags |= kSiblingListed;  // (b)
        wants_siblings_ = true;
      }
      if (incoming == Axis::kFollowingSibling) {
        rows_[static_cast<size_t>(row(v).parent)].flags |=
            kSiblingListed;  // (c)
        wants_siblings_ = true;
      }
    }
  }

  // Earliest answering: anchored structures can be emitted at any event.
  // Eager reclamation additionally requires a single output x-node (tuple
  // enumeration over several outputs walks the full structure graph) and
  // excludes x-nodes involved in sibling axes: sibling-listed structures
  // stay reachable from parent frames, and a structure with a
  // following-sibling child slot receives late entries through links that
  // reclamation would sever.
  earliest_ = options_.enable_earliest_emission;
  int output_count = 0;
  for (XNodeId v = 0; v < n; ++v) {
    if (HasFlag(v, kOutput)) ++output_count;
  }
  reclaim_enabled_ = earliest_ && output_count == 1;
  for (XNodeId v = 0; v < n; ++v) {
    bool blocked = HasFlag(v, kSiblingListed);
    for (XNodeId w : Children(v)) {
      if (row(w).incoming_axis == Axis::kFollowingSibling) blocked = true;
    }
    if (blocked) rows_[static_cast<size_t>(v)].flags |= kReclaimBlocked;
  }
}

void XaosEngine::ClearMatchingState() {
  // Frames past stack_dirty_ were cleared by an earlier reset and not
  // touched since, so the sweep is bounded by this document's depth, not by
  // the deepest document the engine has ever seen.
  for (size_t i = 0; i < stack_dirty_; ++i) {
    Frame& frame = stack_[i];
    frame.xnodes.clear();
    frame.structures.clear();
    for (auto& list : frame.closed_by_xnode) list.clear();
    frame.capture_index = -1;
  }
  stack_dirty_ = 0;
  depth_ = 0;
  for (std::vector<MatchingPtr>& open : open_by_xnode_) open.clear();
  active_captures_.clear();
  root_structure_.reset();
  live_root_ = nullptr;
  early_items_.clear();
  emitted_ids_.clear();
}

void XaosEngine::ResetDocumentState() {
  ClearMatchingState();
  captured_.clear();
  done_ = false;
  early_match_ = false;
  confirm_ns_ = 0;
  inert_ = false;
  error_ = Status::Ok();
  stats_ = EngineStats{};
  result_ = QueryResult{};
  // Releasing the previous document's structures above returned their
  // blocks to the arena's free lists; from here on the delta of
  // bytes_allocated() is this document's allocation traffic.
  if (own_arena_ != nullptr) arena_baseline_ = own_arena_->bytes_allocated();
}

void XaosEngine::AccountPrivateArena() {
  if (own_arena_ == nullptr) return;
  stats_.arena_bytes_allocated =
      own_arena_->bytes_allocated() - arena_baseline_;
  stats_.arena_bytes_reserved = own_arena_->bytes_reserved();
}

void XaosEngine::FailWith(Status status) {
  error_ = std::move(status);
  ClearMatchingState();
}

const MatchingPtr* XaosEngine::FindMatch(const Frame& frame, XNodeId xnode) {
  for (size_t i = 0; i < frame.xnodes.size(); ++i) {
    if (frame.xnodes[i] == xnode) return &frame.structures[i];
  }
  return nullptr;
}

std::span<const XNodeId> XaosEngine::CollectCandidates(
    DocNodeKind kind, util::Symbol symbol) const {
  // A symbol outside the table (or never interned at all) cannot equal any
  // interned query name — only the kind's wildcards remain.
  auto named = [symbol](const std::vector<CandidateSpan>& spans,
                        CandidateSpan wildcards) {
    if (symbol < 0 || static_cast<size_t>(symbol) >= spans.size()) {
      return wildcards;
    }
    return spans[static_cast<size_t>(symbol)];
  };
  CandidateSpan span;
  switch (kind) {
    case DocNodeKind::kRoot:
      span = root_;
      break;
    case DocNodeKind::kElement:
      span = named(element_spans_, any_element_);
      break;
    case DocNodeKind::kAttribute:
      span = named(attribute_spans_, any_attribute_);
      break;
    case DocNodeKind::kText:
      span = text_;
      break;
  }
  return std::span<const XNodeId>(candidates_.data() + span.begin,
                                  span.end - span.begin);
}

bool XaosEngine::IsRelevant(XNodeId v, const Frame& frame) const {
  const XNodeRow& r = row(v);
  for (uint32_t e = r.in_edges_begin; e < r.in_edges_end; ++e) {
    const InEdge& edge = in_edges_[e];
    XNodeId u = edge.from;
    switch (edge.axis) {
      case Axis::kChild:
      case Axis::kAttribute:
        // The would-be parent of the new node is the current stack top —
        // unless dispatch filtering skipped the real parent (sparse stack),
        // in which case the top is some higher ancestor. A skipped element
        // matched nothing, so the constraint is unsupported either way; the
        // parent-id guard makes that explicit.
        if (depth_ == 0 ||
            stack_[depth_ - 1].info.id != frame.info.parent_id ||
            FindMatch(stack_[depth_ - 1], u) == nullptr) {
          return false;
        }
        break;
      case Axis::kDescendant:
        // Every open element is a proper ancestor of the new node.
        if (open_by_xnode_[static_cast<size_t>(u)].empty()) return false;
        break;
      case Axis::kDescendantOrSelf:
        if (open_by_xnode_[static_cast<size_t>(u)].empty() &&
            FindMatch(frame, u) == nullptr) {
          return false;
        }
        break;
      case Axis::kSelf:
        // Candidates are processed in topological order, so a match of `u`
        // on this very node has already been decided.
        if (FindMatch(frame, u) == nullptr) return false;
        break;
      case Axis::kFollowingSibling: {
        // A preceding sibling (a closed child of the would-be parent) must
        // match `u`. Sibling-axis engines always see every element (dense
        // stack), but guard the parent identity anyway.
        if (depth_ == 0) return false;
        const Frame& parent = stack_[depth_ - 1];
        if (parent.info.id != frame.info.parent_id) return false;
        bool found = false;
        for (const MatchingPtr& p :
             parent.closed_by_xnode[static_cast<size_t>(u)]) {
          if (!p->dead()) {
            found = true;
            break;
          }
        }
        if (!found) return false;
        break;
      }
      case Axis::kParent:
      case Axis::kAncestor:
      case Axis::kAncestorOrSelf:
      case Axis::kPrecedingSibling:
      case Axis::kFollowing:
      case Axis::kPreceding:
        // Backward axes never appear in an x-dag; following/preceding are
        // desugared by the x-tree builder.
        XAOS_CHECK(false) << "unexpected axis in x-dag";
    }
  }
  return true;
}

void XaosEngine::ProcessStart(DocNodeKind kind, std::string_view name,
                              std::span<const XNodeId> candidates,
                              std::string_view value,
                              const NodePosition& position) {
  // Acquire (or reuse) the frame at the current depth; it is only made
  // visible (depth_ incremented) after matching, so relevance checks still
  // see the previous top as the parent.
  if (depth_ == stack_.size()) stack_.emplace_back();
  if (depth_ == stack_dirty_) ++stack_dirty_;
  Frame& frame = stack_[depth_];
  frame.xnodes.clear();
  frame.structures.clear();
  frame.capture_index = -1;
  if (wants_siblings_) {
    if (frame.closed_by_xnode.size() != open_by_xnode_.size()) {
      frame.closed_by_xnode.assign(open_by_xnode_.size(), {});
    } else {
      for (auto& list : frame.closed_by_xnode) list.clear();
    }
  }

  // Identity comes from the caller's document cursor, not from this
  // engine's view of the stream: ids/levels/ordinals are uniform across a
  // fleet of engines even when dispatch filtering gives each a different
  // event subset, and remain monotone in document order.
  frame.info.id = position.id;
  frame.info.parent_id = position.parent_id;
  frame.info.level = static_cast<int>(position.level);
  frame.info.ordinal = position.ordinal;
  frame.info.kind = kind;
  if (kind == DocNodeKind::kElement) ++stats_.elements_total;

  // Candidates already passed their name test (the symbol index implies
  // it); only attribute / text value constraints remain to check.
  bool info_filled = false;
  for (XNodeId v : candidates) {
    const XNodeRow& r = row(v);
    if ((r.flags & kValueTest) != 0 && value != *tree_->node(v).test.value) {
      continue;
    }
    if (options_.enable_relevance_filter && !IsRelevant(v, frame)) continue;
    if (!info_filled && (r.flags & kOutput) != 0) {
      // Node names/values are only retained for output matches — the ones
      // that become result items; the storage frugality the paper's
      // Table 3 measures.
      frame.info.name.assign(name);
      frame.info.value.assign(value);
      info_filled = true;
    }
    // Creation/live/peak/byte accounting happens inside the constructor via
    // EngineStats::OnStructureCreated, so no allocation path can miss it.
    // allocate_shared puts object and control block in the arena while
    // keeping shared/weak_ptr semantics and destructor timing.
    auto structure = std::allocate_shared<MatchingStructure>(
        util::PoolAllocator<MatchingStructure>(arena_), v, frame.info,
        static_cast<int>(r.children_end - r.children_begin), &stats_, arena_);
    frame.xnodes.push_back(v);
    frame.structures.push_back(std::move(structure));
  }
  if (!info_filled) {
    frame.info.name.clear();
    frame.info.value.clear();
  }
  if (kind == DocNodeKind::kElement && frame.xnodes.empty()) {
    ++stats_.elements_discarded;
  }

  ++depth_;
  for (size_t i = 0; i < frame.xnodes.size(); ++i) {
    open_by_xnode_[static_cast<size_t>(frame.xnodes[i])].push_back(
        frame.structures[i]);
  }

  if (options_.max_live_structures != 0 &&
      stats_.structures_live > options_.max_live_structures) {
    FailWith(ResourceExhaustedError(
        "live matching structures exceeded the configured limit of " +
        std::to_string(options_.max_live_structures)));
  }
}

// Inserts `child` into `parent`'s slot and, if the child is already
// confirmed, lets the confirmation propagate into the parent immediately.
void XaosEngine::LinkChild(const MatchingPtr& parent, int slot,
                           const MatchingPtr& child, bool optimistic) {
  if (child->confirmed() &&
      (IsCountedXNode(child->xnode()) || child->reclaimed())) {
    // Boolean submatching: a confirmed, output-free sub-matching only needs
    // to be counted. No storage, and no back reference either — confirmed
    // structures are never retracted. A reclaimed child is the same shape:
    // its output is already emitted and its storage is gone, so only its
    // (permanent) confirmation matters to the parent.
    parent->bump_confirmed(slot);
    TryConfirm(parent.get());
    return;
  }
  bool was_confirmed = child->confirmed();
  MatchingStructure::Link(parent, slot, child, optimistic);
  if (was_confirmed) TryConfirm(parent.get());
  // A confirmed child linked under an already-anchored parent is itself
  // reachable from the confirmed Root through confirmed structures.
  if (earliest_ && parent->anchored() && child->confirmed() &&
      !child->anchored()) {
    Anchor(child.get());
  }
}

bool XaosEngine::SlotRefillable(const MatchingStructure& parent,
                                int slot) const {
  XNodeId w = Children(parent.xnode())[static_cast<size_t>(slot)];
  if (row(w).incoming_axis != Axis::kFollowingSibling) return false;
  // Following-sibling entries can still arrive while the element's parent
  // is open (later siblings have not been seen yet).
  int level = parent.element().level;
  if (level == 0) return false;
  size_t parent_depth = static_cast<size_t>(level - 1);
  return parent_depth < depth_ &&
         stack_[parent_depth].info.id == parent.element().parent_id;
}

void XaosEngine::CascadeRemoval(MatchingStructure* m, bool retract_only) {
  // Locals share the structure's arena allocator so cascades stay off the
  // heap too.
  util::ArenaVector<MatchingStructure::BackRef> kept(
      m->backrefs().get_allocator());
  util::ArenaVector<MatchingStructure::BackRef> refs(
      m->backrefs().get_allocator());
  refs.swap(m->backrefs());
  for (const MatchingStructure::BackRef& ref : refs) {
    if (retract_only && ref.optimistic) {
      // Optimistic links (backward/sibling pulls) are kept: the consumer
      // will learn of this structure's fate through a later undo or keep
      // the reference if it completes again.
      kept.push_back(ref);
      continue;
    }
    MatchingPtr parent = ref.parent.lock();
    if (parent == nullptr || parent->dead()) continue;
    parent->RemoveFromSlot(ref.slot, m);
    // An anchored parent's slots are satisfied by confirmed counts forever;
    // losing a stored (unconfirmed) extra entry cannot undo it, but it may
    // drain the slot and make the parent reclaimable.
    if (earliest_ && parent->anchored()) {
      MaybeReclaim(parent.get());
      continue;
    }
    // An open parent may still receive entries for this slot. A closed
    // parent's emptiness is final (Table 2, step 23) — unless the slot is a
    // refillable following-sibling slot, in which case the parent merely
    // returns to the pending state. Emptiness accounts for released
    // (counted) confirmed entries, which keep the slot satisfied forever.
    if (!parent->SlotEmpty(ref.slot) || !parent->closed()) continue;
    if (SlotRefillable(*parent, ref.slot)) {
      RetractPropagation(parent.get());
    } else {
      Undo(parent.get());
    }
  }
  m->backrefs() = std::move(kept);
}

void XaosEngine::Undo(MatchingStructure* m) {
  m->set_dead();
  ++stats_.structures_undone;
  CascadeRemoval(m, /*retract_only=*/false);
}

void XaosEngine::RetractPropagation(MatchingStructure* m) {
  if (m->dead() || !m->propagated()) return;
  XAOS_CHECK(!m->confirmed()) << "confirmed matchings cannot be retracted";
  m->set_propagated(false);
  CascadeRemoval(m, /*retract_only=*/true);
}

void XaosEngine::MaybeCompleteDeferred(const MatchingPtr& m) {
  if (m->closed() && !m->dead() && !m->propagated() && m->AllSlotsNonEmpty()) {
    PropagateUp(m);
  }
}

// Pushes a (possibly optimistically) total matching into the appropriate
// submatchings of its parent-matchings. Runs at the structure's own end
// event, or later (deferred) when a pending following-sibling slot fills —
// in that case the current stack top is a later sibling, so the parent
// frame index and the open-ancestor registry are still valid for this
// structure's element.
void XaosEngine::PropagateUp(const MatchingPtr& m) {
  if (m->propagated() || m->dead()) return;
  m->set_propagated(true);
  XNodeId v = m->xnode();
  const ElementId element_id = m->element().id;
  if (v != kRootXNode) {
    const XNodeRow& r = row(v);
    XNodeId parent_xnode = r.parent;
    int slot = r.slot;
    switch (r.incoming_axis) {
      case Axis::kChild:
      case Axis::kAttribute: {
        // stack_[depth_ - 2] is the document parent only if dispatch did
        // not skip it (sparse stack); a skipped parent matched nothing.
        if (depth_ < 2 ||
            stack_[depth_ - 2].info.id != m->element().parent_id) {
          break;
        }
        const MatchingPtr* p = FindMatch(stack_[depth_ - 2], parent_xnode);
        if (p != nullptr && !(*p)->dead()) {
          LinkChild(*p, slot, m, /*optimistic=*/false);
          ++stats_.propagations;
        }
        break;
      }
      case Axis::kDescendant:
        for (const MatchingPtr& p :
             open_by_xnode_[static_cast<size_t>(parent_xnode)]) {
          // Proper ancestors only: they opened before this element did.
          if (p->element().id >= element_id || p->dead()) continue;
          LinkChild(p, slot, m, /*optimistic=*/false);
          ++stats_.propagations;
        }
        break;
      case Axis::kDescendantOrSelf:
        // The self part is pulled by the parent at its own close; here only
        // proper ancestors receive the push.
        for (const MatchingPtr& p :
             open_by_xnode_[static_cast<size_t>(parent_xnode)]) {
          if (p->element().id >= element_id || p->dead()) continue;
          LinkChild(p, slot, m, /*optimistic=*/false);
          ++stats_.propagations;
        }
        break;
      case Axis::kFollowingSibling: {
        // Targets are the already-closed preceding siblings matched to the
        // parent x-node; filling their slot may complete them (deferred
        // propagation).
        if (depth_ < 2 ||
            stack_[depth_ - 2].info.id != m->element().parent_id) {
          break;
        }
        Frame& parent_frame = stack_[depth_ - 2];
        // Copy: deferred completion may append to this list... it cannot
        // (registration happens at pop), but undo cascades may mutate it.
        std::vector<MatchingPtr> targets =
            parent_frame.closed_by_xnode[static_cast<size_t>(parent_xnode)];
        for (const MatchingPtr& p : targets) {
          if (p->dead() || p->element().id >= element_id) continue;
          LinkChild(p, slot, m, /*optimistic=*/false);
          ++stats_.propagations;
          MaybeCompleteDeferred(p);
        }
        break;
      }
      case Axis::kSelf:
      case Axis::kParent:
      case Axis::kAncestor:
      case Axis::kAncestorOrSelf:
      case Axis::kPrecedingSibling:
        // Self submatchings are pulled by the x-tree parent at its own end
        // event; backward-axis parent-matchings adopted this structure
        // optimistically when they closed. Nothing to push.
        break;
      case Axis::kFollowing:
      case Axis::kPreceding:
        XAOS_CHECK(false) << "desugared axis in x-tree";
    }
  }
  TryConfirm(m.get());
}

void XaosEngine::ProcessEnd() {
  XAOS_CHECK(depth_ > 0);
  Frame& frame = stack_[depth_ - 1];
  const ElementId element_id = frame.info.id;

  // Children that were pending on a following sibling can no longer
  // complete: once this element closes, no further siblings of its children
  // will ever arrive. Retract them now.
  if (wants_siblings_) {
    for (std::vector<MatchingPtr>& list : frame.closed_by_xnode) {
      for (const MatchingPtr& child : list) {
        if (!child->dead() && !child->AllSlotsNonEmpty()) {
          Undo(child.get());
        }
      }
    }
  }

  // Process deepest x-tree nodes first: x-tree children that may be mapped
  // to this very element (self / *-or-self axes) must be finalized before
  // their x-tree parent fills its slots.
  std::vector<size_t>& order = order_scratch_;
  order.resize(frame.xnodes.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  if (order.size() > 1) {
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return row(frame.xnodes[a]).depth > row(frame.xnodes[b]).depth;
    });
  }

  for (size_t idx : order) {
    XNodeId v = frame.xnodes[idx];
    const MatchingPtr& m = frame.structures[idx];
    if (m->dead()) continue;
    m->set_closed();

    // Pull phase: submatchings whose candidates are known at this end event
    // but may not yet be total are adopted *optimistically* and retracted
    // later if they fail (Section 4.3): backward axes map to open
    // ancestors, preceding-sibling to closed earlier siblings, self /
    // descendant-or-self's self part to this very element.
    const std::span<const XNodeId> children = Children(v);
    for (size_t slot = 0; slot < children.size(); ++slot) {
      XNodeId w = children[slot];
      switch (row(w).incoming_axis) {
        case Axis::kParent: {
          // Sparse-stack guard: stack_[depth_ - 2] must be the document
          // parent (skipped ancestors matched nothing).
          if (depth_ < 2 ||
              stack_[depth_ - 2].info.id != frame.info.parent_id) {
            break;
          }
          const MatchingPtr* p = FindMatch(stack_[depth_ - 2], w);
          if (p != nullptr && !(*p)->dead()) {
            LinkChild(m, static_cast<int>(slot), *p, /*optimistic=*/true);
            ++stats_.optimistic_propagations;
          }
          break;
        }
        case Axis::kAncestor:
          for (const MatchingPtr& p :
               open_by_xnode_[static_cast<size_t>(w)]) {
            if (p->element().id == element_id || p->dead()) continue;
            LinkChild(m, static_cast<int>(slot), p, /*optimistic=*/true);
            ++stats_.optimistic_propagations;
          }
          break;
        case Axis::kAncestorOrSelf:
          for (const MatchingPtr& p :
               open_by_xnode_[static_cast<size_t>(w)]) {
            if (p->dead()) continue;
            LinkChild(m, static_cast<int>(slot), p, /*optimistic=*/true);
            ++stats_.optimistic_propagations;
          }
          break;
        case Axis::kSelf:
        case Axis::kDescendantOrSelf: {
          // The same element may match `w` (its structure was finalized
          // earlier in this event — deeper x-tree nodes first). For
          // descendant-or-self this is the "self" part; proper descendants
          // were pushed when they closed.
          const MatchingPtr* p = FindMatch(frame, w);
          if (p != nullptr && p->get() != m.get() && !(*p)->dead()) {
            LinkChild(m, static_cast<int>(slot), *p, /*optimistic=*/true);
            ++stats_.optimistic_propagations;
          }
          break;
        }
        case Axis::kPrecedingSibling: {
          if (depth_ < 2 ||
              stack_[depth_ - 2].info.id != frame.info.parent_id) {
            break;
          }
          Frame& parent_frame = stack_[depth_ - 2];
          for (const MatchingPtr& p :
               parent_frame.closed_by_xnode[static_cast<size_t>(w)]) {
            if (p->dead()) continue;
            LinkChild(m, static_cast<int>(slot), p, /*optimistic=*/true);
            ++stats_.optimistic_propagations;
          }
          break;
        }
        default:
          break;  // child/descendant/following-sibling: filled by pushes
      }
    }

    if (!m->AllSlotsNonEmpty()) {
      // Distinguish dead from *pending*: an empty following-sibling slot
      // can still fill while this element's parent remains open.
      bool pending = depth_ >= 2;
      if (pending) {
        for (size_t slot = 0; slot < children.size(); ++slot) {
          if (!m->SlotEmpty(static_cast<int>(slot))) continue;
          if (row(children[slot]).incoming_axis != Axis::kFollowingSibling) {
            pending = false;
            break;
          }
        }
      }
      if (!pending) Undo(m.get());
      // Pending structures stay registered (closed, unpropagated) and are
      // completed by MaybeCompleteDeferred or retracted at parent close.
      continue;
    }

    PropagateUp(m);

    // A structure anchored before (or during) its close: its subtree
    // capture is complete now, so a deferred emission can go out, and its
    // slots may already have drained to confirmed counts.
    if (earliest_ && m->anchored()) {
      if (HasFlag(v, kOutput)) EmitEarly(m.get());
      MaybeReclaim(m.get());
    }
  }

  // A confirmed entry in every Root slot guarantees a total matching at
  // Root no matter what the rest of the stream contains (Section 5.1).
  if (!early_match_ && live_root_ != nullptr && !live_root_->dead() &&
      live_root_->AllSlotsConfirmed()) {
    early_match_ = true;
    if (obs::Enabled()) confirm_ns_ = obs::NowNs();
    if (options_.stop_after_confirmed_match) {
      inert_ = true;
    } else if (earliest_) {
      // The Root is confirmed: it and everything reachable from it through
      // confirmed structures is provably in the final result. Anchoring
      // cascades emission (and reclamation) down the confirmed graph; later
      // confirmations anchor incrementally via the TryConfirm / LinkChild
      // hooks. Skipped in stop_after_confirmed_match mode, which reports
      // matched with no items.
      Anchor(live_root_);
    }
  }

  // Unregister this element's open matches (they are the newest entries of
  // their per-x-node stacks).
  for (size_t i = 0; i < frame.xnodes.size(); ++i) {
    std::vector<MatchingPtr>& open =
        open_by_xnode_[static_cast<size_t>(frame.xnodes[i])];
    XAOS_CHECK(!open.empty() && open.back().get() == frame.structures[i].get());
    open.pop_back();
  }
  // Keep sibling-relevant matches reachable from the parent frame until the
  // parent closes.
  if (wants_siblings_ && depth_ >= 2 &&
      stack_[depth_ - 2].info.id == frame.info.parent_id) {
    Frame& parent_frame = stack_[depth_ - 2];
    for (size_t i = 0; i < frame.xnodes.size(); ++i) {
      XNodeId v = frame.xnodes[i];
      if (HasFlag(v, kSiblingListed) &&
          !frame.structures[i]->dead()) {
        parent_frame.closed_by_xnode[static_cast<size_t>(v)].push_back(
            frame.structures[i]);
      }
    }
  }
  // Spend the frame: release structure references but keep the vectors'
  // capacity for reuse at this depth.
  frame.xnodes.clear();
  frame.structures.clear();
  frame.capture_index = -1;
  --depth_;
}

void XaosEngine::TryConfirm(MatchingStructure* m) {
  // Note: open structures are confirmable too — their slots only ever gain
  // entries, confirmed entries are never retracted, and the consistency of
  // every existing link was checked when it was made. An open structure
  // with a confirmed entry in every slot is therefore guaranteed to
  // represent a total matching once it closes.
  if (m->confirmed() || m->dead() || !m->AllSlotsConfirmed()) {
    return;
  }
  m->set_confirmed();
  // Walk the parents that linked this structure before it was confirmed
  // (later links count it directly, see LinkChild).
  bool counted = IsCountedXNode(m->xnode());
  util::ArenaVector<MatchingStructure::BackRef> backrefs(
      m->backrefs().get_allocator());
  if (counted) {
    // Once counted, the stored entries (and back references) are released:
    // confirmed structures are immutable, so nothing will ever need to
    // retract or re-find them. This is what frees predicate-only matchings
    // long before end of document.
    backrefs.swap(m->backrefs());
  } else {
    backrefs = m->backrefs();
  }
  bool anchor_after = false;
  for (const MatchingStructure::BackRef& ref : backrefs) {
    MatchingPtr parent = ref.parent.lock();
    if (parent == nullptr || parent->dead()) continue;
    parent->bump_confirmed(ref.slot);
    if (counted) {
      // Migrate from stored entry to count. Note: this may release the last
      // strong reference to `m` held by `parent`; callers of TryConfirm keep
      // `m` alive for the duration of the call.
      parent->RemoveFromSlot(ref.slot, m);
      if (earliest_ && parent->anchored()) MaybeReclaim(parent.get());
    }
    // A live anchored parent makes the freshly confirmed `m` reachable from
    // the confirmed Root. Anchoring is deferred past the loop: Anchor can
    // reclaim `m`, which would detach it from parents not yet visited.
    if (earliest_ && !counted && parent->anchored()) anchor_after = true;
    TryConfirm(parent.get());
  }
  if (anchor_after) Anchor(m);
}

void XaosEngine::Anchor(MatchingStructure* m) {
  if (!earliest_ || m == nullptr || m->anchored() || m->dead() ||
      !m->confirmed()) {
    return;
  }
  m->set_anchored();
  if (HasFlag(m->xnode(), kOutput) &&
      (m->closed() || !options_.capture_output_subtrees)) {
    // An anchored output structure is provably in the final result. With
    // subtree capture the serialized XML only exists once the element
    // closes; emission of a still-open structure is deferred to its close
    // (ProcessEnd re-checks anchored structures at their end event).
    EmitEarly(m);
  }
  // Recursively anchor the confirmed entries of stored (non-counted)
  // slots: every one of them is reachable through `m`'s confirmed link.
  // Two-phase: anchoring a child can reclaim it, which erases it from the
  // slot vector being iterated, so collect strong references first.
  std::vector<MatchingPtr> to_anchor;
  const std::span<const XNodeId> children = Children(m->xnode());
  for (size_t slot = 0; slot < children.size(); ++slot) {
    if (IsCountedXNode(children[slot])) continue;
    for (const MatchingPtr& child : m->slot(static_cast<int>(slot))) {
      if (child->confirmed() && !child->anchored()) {
        to_anchor.push_back(child);
      }
    }
  }
  for (const MatchingPtr& child : to_anchor) Anchor(child.get());
  MaybeReclaim(m);
}

void XaosEngine::EmitEarly(MatchingStructure* m) {
  if (!emitted_ids_.insert(m->element().id).second) return;
  OutputItem item;
  item.info = m->element();
  auto it = captured_.find(m->element().id);
  if (it != captured_.end()) {
    // Move the capture buffer out — its heap storage is freed with the
    // item instead of lingering until end of document.
    item.captured_xml = std::move(it->second);
    captured_.erase(it);
  }
  ++stats_.candidates_emitted_early;
  if (options_.early_item_sink) {
    if (early_item_buffer_ != nullptr) {
      early_item_buffer_->push_back(item);
    } else {
      options_.early_item_sink(item);
    }
  }
  early_items_.push_back(std::move(item));
}

void XaosEngine::MaybeReclaim(MatchingStructure* m) {
  if (!reclaim_enabled_ || m->reclaimed() || !m->anchored() || m->dead() ||
      !m->closed() || m->xnode() == kRootXNode ||
      HasFlag(m->xnode(), kReclaimBlocked)) {
    return;
  }
  // Reclaim only once every non-counted slot has drained to its confirmed
  // count. A stored entry — even an anchored one — may still be the only
  // strong reference keeping an unconfirmed grandchild's backref target
  // alive; destroying it here could lose an item that confirms later.
  // Counted slots never store confirmed entries (TryConfirm migrates them
  // to counts); their remaining stored entries are unconfirmed, output-free
  // candidates whose loss is harmless (expired backrefs are skipped).
  const std::span<const XNodeId> children = Children(m->xnode());
  for (size_t slot = 0; slot < children.size(); ++slot) {
    if (!IsCountedXNode(children[slot]) &&
        !m->slot(static_cast<int>(slot)).empty()) {
      return;
    }
  }
  m->set_reclaimed();
  ++stats_.candidates_reclaimed;
  util::ArenaVector<MatchingStructure::BackRef> detached(
      m->backrefs().get_allocator());
  m->ReleaseStorage(arena_, &detached);
  // Detach from parents. Lock every parent first: removing `m` from a slot
  // can drop the last strong reference and destroy it mid-loop, so after
  // the first removal only the raw pointer *value* may be used.
  std::vector<std::pair<MatchingPtr, int>> parents;
  parents.reserve(detached.size());
  for (const MatchingStructure::BackRef& ref : detached) {
    MatchingPtr parent = ref.parent.lock();
    if (parent == nullptr || parent->dead()) continue;
    parents.emplace_back(std::move(parent), ref.slot);
  }
  const MatchingStructure* raw = m;
  for (auto& [parent, slot] : parents) {
    // Anchored => every confirmed count >= 1, so the slot stays satisfied
    // and no undo can trigger; this is pure storage release.
    parent->RemoveFromSlot(slot, raw);
  }
  for (auto& [parent, slot] : parents) {
    (void)slot;
    if (parent->anchored()) MaybeReclaim(parent.get());
  }
}

void XaosEngine::StartDocument() {
  ResetDocumentState();
  own_cursor_.Reset();
  ProcessStart(DocNodeKind::kRoot, "", CollectCandidates(DocNodeKind::kRoot,
                                                         util::kInvalidSymbol),
               "", NodePosition{});
  const MatchingPtr* root = FindMatch(stack_[0], kRootXNode);
  live_root_ = (root != nullptr) ? root->get() : nullptr;
}

void XaosEngine::StartElement(const xml::QName& name,
                              xml::AttributeSpan attributes) {
  own_cursor_.StartElement(attributes.size());
  DeliverStartElement(name, attributes, own_cursor_.top());
}

void XaosEngine::Characters(std::string_view text) {
  own_cursor_.Characters();
  DeliverCharacters(text, own_cursor_.text_node());
}

void XaosEngine::EndElement(std::string_view /*name*/) {
  DeliverEndElement();
  own_cursor_.EndElement();
}

void XaosEngine::DeliverStartElement(const xml::QName& name,
                                     xml::AttributeSpan attributes,
                                     const NodePosition& node) {
  if (!error_.ok() || inert_) return;
  // Replay paths (DOM replayer, recorded events, hand-fed tests) deliver
  // names without symbols; resolve against the global table. A
  // name the table has never seen cannot match any query name test.
  util::Symbol symbol = name.symbol;
  if (symbol == util::kInvalidSymbol) {
    symbol = util::SymbolTable::Global().Lookup(name.text);
  }
  ProcessStart(DocNodeKind::kElement, name.text,
               CollectCandidates(DocNodeKind::kElement, symbol), "", node);
  if (!error_.ok()) return;

  if (options_.capture_output_subtrees) {
    for (const CapturePtr& capture : active_captures_) {
      capture->writer.StartElement(name.text);
      for (const xml::AttributeView& attr : attributes) {
        capture->writer.WriteAttribute(attr.name, attr.value);
      }
    }
    Frame& top = stack_[depth_ - 1];
    bool output_match = false;
    for (XNodeId v : top.xnodes) {
      if (HasFlag(v, kOutput)) {
        output_match = true;
        break;
      }
    }
    if (output_match) {
      CapturePtr capture(new (arena_->Allocate(sizeof(Capture))) Capture,
                         CaptureDeleter{arena_});
      capture->element_id = top.info.id;
      capture->writer.StartElement(name.text);
      for (const xml::AttributeView& attr : attributes) {
        capture->writer.WriteAttribute(attr.name, attr.value);
      }
      top.capture_index = static_cast<int>(active_captures_.size());
      active_captures_.push_back(std::move(capture));
    }
  }

  if (wants_attributes_) {
    for (size_t k = 0; k < attributes.size(); ++k) {
      const xml::AttributeView& attr = attributes[k];
      util::Symbol attr_symbol = attr.symbol;
      if (attr_symbol == util::kInvalidSymbol) {
        attr_symbol = util::SymbolTable::Global().Lookup(attr.name);
      }
      ProcessStart(
          DocNodeKind::kAttribute, attr.name,
          CollectCandidates(DocNodeKind::kAttribute, attr_symbol), attr.value,
          NodePosition{node.id + 1 + static_cast<ElementId>(k), node.id,
                       node.level + 1, node.ordinal});
      if (!error_.ok()) return;
      ProcessEnd();
    }
  }
}

void XaosEngine::DeliverCharacters(std::string_view text,
                                   const NodePosition& text_node) {
  if (!error_.ok() || inert_ || depth_ == 0) return;
  if (options_.capture_output_subtrees) {
    for (const CapturePtr& capture : active_captures_) {
      capture->writer.WriteText(text);
    }
  }
  if (wants_text_) {
    ProcessStart(DocNodeKind::kText, "",
                 CollectCandidates(DocNodeKind::kText, util::kInvalidSymbol),
                 text, text_node);
    if (!error_.ok()) return;
    ProcessEnd();
  }
}

void XaosEngine::DeliverEndElement() {
  if (!error_.ok() || inert_) return;
  if (options_.capture_output_subtrees) {
    for (const CapturePtr& capture : active_captures_) {
      capture->writer.EndElement();
    }
    Frame& top = stack_[depth_ - 1];
    if (top.capture_index >= 0) {
      XAOS_CHECK_EQ(top.capture_index,
                    static_cast<int>(active_captures_.size()) - 1);
      Capture& capture = *active_captures_.back();
      captured_[capture.element_id] = std::move(capture.xml);
      active_captures_.pop_back();
    }
  }
  ProcessEnd();
}

void XaosEngine::EndDocument() {
  if (!error_.ok()) return;
  if (inert_) {
    AccountPrivateArena();
    // Early-terminated filtering mode: the match is guaranteed; per-item
    // results were not tracked past the confirmation point.
    result_ = QueryResult{};
    result_.matched = true;
    done_ = true;
    return;
  }
  XAOS_CHECK_EQ(depth_, 1u) << "unbalanced events";
  const MatchingPtr* root = FindMatch(stack_[0], kRootXNode);
  root_structure_ = (root != nullptr) ? *root : nullptr;
  ProcessEnd();
  AccountPrivateArena();
  BuildResult(root_structure_);
  done_ = true;
  // A match that was never confirmed early becomes certain here.
  if (result_.matched && confirm_ns_ == 0 && obs::Enabled()) {
    confirm_ns_ = obs::NowNs();
  }
}

void XaosEngine::BuildResult(const MatchingPtr& root_structure) {
  result_ = QueryResult{};
  if (root_structure == nullptr || root_structure->dead() ||
      !root_structure->AllSlotsNonEmpty()) {
    // Emission requires an anchored (confirmed-through-Root) structure, so
    // an unmatched document can never have emitted anything.
    XAOS_CHECK(early_items_.empty()) << "early items without a root match";
    return;
  }
  result_.matched = true;

  // Items already emitted by earliest answering come first; the residual
  // marked traversal adds only what was never anchored (it skips emitted
  // ids), and the final sort restores document order — byte-identical to
  // the non-earliest engine.
  result_.items = std::move(early_items_);
  early_items_.clear();

  // Marked traversal (Section 4.4): every structure reachable from a
  // satisfied root participates in at least one total matching, so each
  // output x-node's reachable structures are exactly the selected nodes.
  std::unordered_set<const MatchingStructure*> visited;
  std::unordered_set<ElementId> emitted(emitted_ids_.begin(),
                                        emitted_ids_.end());
  std::vector<const MatchingStructure*> pending{root_structure.get()};
  visited.insert(root_structure.get());
  while (!pending.empty()) {
    const MatchingStructure* m = pending.back();
    pending.pop_back();
    if (HasFlag(m->xnode(), kOutput) &&
        emitted.insert(m->element().id).second) {
      OutputItem item;
      item.info = m->element();
      auto it = captured_.find(m->element().id);
      if (it != captured_.end()) item.captured_xml = it->second;
      result_.items.push_back(std::move(item));
    }
    for (int i = 0; i < m->slot_count(); ++i) {
      for (const MatchingPtr& child : m->slot(i)) {
        if (visited.insert(child.get()).second) {
          pending.push_back(child.get());
        }
      }
    }
  }
  std::sort(result_.items.begin(), result_.items.end(),
            [](const OutputItem& a, const OutputItem& b) {
              return a.info.id < b.info.id;
            });
}

TupleEnumeration XaosEngine::OutputTuples(size_t max_tuples) const {
  TupleEnumeration enumeration;
  if (!done_ || !result_.matched || root_structure_ == nullptr) {
    return enumeration;
  }
  if (stats_.candidates_reclaimed > 0) {
    // Parts of the structure graph were eagerly reclaimed. Reclamation is
    // only enabled for single-output trees, where the distinct tuples are
    // exactly the result items — synthesize singletons instead of walking
    // the (partially released) graph.
    for (const OutputItem& item : result_.items) {
      if (enumeration.tuples.size() >= max_tuples) {
        enumeration.complete = false;
        break;
      }
      enumeration.tuples.push_back(OutputTuple{item.info});
    }
    return enumeration;
  }
  std::vector<XNodeId> out_nodes;
  for (XNodeId v = 0; v < tree_->size(); ++v) {
    if (HasFlag(v, kOutput)) out_nodes.push_back(v);
  }

  std::vector<const ElementInfo*> assignment(
      static_cast<size_t>(tree_->size()), nullptr);
  std::set<std::vector<ElementId>> seen;
  size_t explored = 0;
  const size_t explore_budget = max_tuples * 64;

  // Full product enumeration over the structure graph: one entry is chosen
  // per slot, recursively; a complete choice is a total matching (x-tree
  // subtree domains are disjoint, so any per-slot combination is valid).
  // The work list holds (structure, next slot to decide) pairs.
  std::function<bool(std::vector<std::pair<const MatchingStructure*, int>>&)>
      run = [&](std::vector<std::pair<const MatchingStructure*, int>>& work)
      -> bool {
    if (++explored > explore_budget) {
      enumeration.complete = false;
      return false;
    }
    if (work.empty()) {
      std::vector<ElementId> key;
      OutputTuple tuple;
      key.reserve(out_nodes.size());
      for (XNodeId v : out_nodes) {
        const ElementInfo* info = assignment[static_cast<size_t>(v)];
        XAOS_CHECK(info != nullptr);
        key.push_back(info->id);
        tuple.push_back(*info);
      }
      if (seen.insert(std::move(key)).second) {
        enumeration.tuples.push_back(std::move(tuple));
        if (enumeration.tuples.size() >= max_tuples) {
          enumeration.complete = false;
          return false;
        }
      }
      return true;
    }
    auto [m, slot] = work.back();
    if (slot == m->slot_count()) {
      work.pop_back();
      bool keep_going = run(work);
      work.push_back({m, slot});
      return keep_going;
    }
    // Boolean submatchings: output-free slots contribute nothing to the
    // projection; their (released) entries need not be enumerated.
    XNodeId slot_child = Children(m->xnode())[static_cast<size_t>(slot)];
    if (IsCountedXNode(slot_child)) {
      work.back().second = slot + 1;
      bool keep_going = run(work);
      work.back().second = slot;
      return keep_going;
    }
    work.back().second = slot + 1;
    bool keep_going = true;
    for (const MatchingPtr& child : m->slot(slot)) {
      assignment[static_cast<size_t>(child->xnode())] = &child->element();
      work.push_back({child.get(), 0});
      keep_going = run(work);
      work.pop_back();
      assignment[static_cast<size_t>(child->xnode())] = nullptr;
      if (!keep_going) break;
    }
    work.back().second = slot;
    return keep_going;
  };

  assignment[kRootXNode] = &root_structure_->element();
  std::vector<std::pair<const MatchingStructure*, int>> work{
      {root_structure_.get(), 0}};
  run(work);
  return enumeration;
}

std::vector<LookingForEntry> XaosEngine::DebugLookingForSet() const {
  std::vector<LookingForEntry> out;
  if (depth_ == 0 || done_) {
    out.push_back({kRootXNode, 0, "Root"});
    return out;
  }
  constexpr int kAbsent = -3;
  constexpr int kAny = LookingForEntry::kAnyLevel;  // -1
  int top_level = stack_[depth_ - 1].info.level;
  std::vector<int> lf(static_cast<size_t>(tree_->size()), kAbsent);

  const query::XDag xdag(*tree_);
  for (XNodeId v : xdag.TopologicalOrder()) {
    if (v == kRootXNode) continue;  // the root is already matched, not sought
    int combined = kAny;
    for (const query::XDagEdge& edge : xdag.incoming(v)) {
      XNodeId u = edge.from;
      int constraint = kAbsent;
      bool top_has_u = FindMatch(stack_[depth_ - 1], u) != nullptr;
      bool any_open_u = !open_by_xnode_[static_cast<size_t>(u)].empty();
      switch (edge.axis) {
        case Axis::kChild:
        case Axis::kAttribute:
          if (top_has_u) constraint = top_level + 1;
          break;
        case Axis::kDescendant:
          if (any_open_u) constraint = kAny;
          break;
        case Axis::kDescendantOrSelf:
          if (any_open_u) {
            constraint = kAny;
          } else if (lf[static_cast<size_t>(u)] != kAbsent) {
            constraint = lf[static_cast<size_t>(u)];
          }
          break;
        case Axis::kSelf:
          if (lf[static_cast<size_t>(u)] != kAbsent) {
            constraint = lf[static_cast<size_t>(u)];
          }
          break;
        case Axis::kFollowingSibling: {
          const Frame& top = stack_[depth_ - 1];
          for (const MatchingPtr& p :
               top.closed_by_xnode[static_cast<size_t>(u)]) {
            if (!p->dead()) {
              constraint = top_level + 1;
              break;
            }
          }
          break;
        }
        case Axis::kParent:
        case Axis::kAncestor:
        case Axis::kAncestorOrSelf:
        case Axis::kPrecedingSibling:
        case Axis::kFollowing:
        case Axis::kPreceding:
          XAOS_CHECK(false) << "unexpected axis in x-dag";
      }
      if (constraint == kAbsent) {
        combined = kAbsent;
        break;
      }
      if (constraint == kAny) continue;
      if (combined == kAny) {
        combined = constraint;
      } else if (combined != constraint) {
        combined = kAbsent;
        break;
      }
    }
    lf[static_cast<size_t>(v)] = combined;
    if (combined != kAbsent) {
      out.push_back({v, combined, tree_->node(v).test.Label()});
    }
  }
  return out;
}

}  // namespace xaos::core
