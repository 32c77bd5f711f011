#include "core/xaos_engine.h"

#include <algorithm>
#include <functional>
#include <set>
#include <utility>

#include "obs/timer.h"
#include "query/xdag.h"

namespace xaos::core {

using query::DocNodeKind;
using query::kRootXNode;
using query::NodeTestSpec;
using query::XNodeId;
using xpath::Axis;

namespace {

// Bytes of `count` T rounded up to whole 8-byte words.
template <typename T>
size_t Words(size_t count) {
  return (count * sizeof(T) + sizeof(uint64_t) - 1) / sizeof(uint64_t);
}

}  // namespace

XaosEngine::XaosEngine(const query::XTree* tree, EngineOptions options,
                       util::PoolArena* arena)
    : own_arena_(arena == nullptr ? std::make_unique<util::PoolArena>()
                                  : nullptr),
      arena_(arena == nullptr ? own_arena_.get() : arena),
      tree_(tree),
      options_(std::move(options)) {
  XAOS_CHECK(tree_->node(kRootXNode).test.kind == NodeTestSpec::Kind::kRoot)
      << "x-tree node 0 must test for the virtual root";
  relevance_filter_ = options_.enable_relevance_filter;
  captures_ = options_.capture_output_subtrees;
  max_live_structures_ = options_.max_live_structures;

  // The x-dag is only needed to derive the tables below, which are built
  // in local vectors and then packed into one allocation.
  const query::XDag xdag(*tree_);
  const int n = tree_->size();
  std::vector<XNodeRow> rows(static_cast<size_t>(n));
  std::vector<XNodeId> child_ids;
  std::vector<InEdge> in_edges;
  for (XNodeId v = 0; v < n; ++v) {
    const query::XNode& node = tree_->node(v);
    XNodeRow& r = rows[static_cast<size_t>(v)];
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
    r.children_begin = static_cast<uint32_t>(child_ids.size());
    for (size_t i = 0; i < node.children.size(); ++i) {
      rows[static_cast<size_t>(node.children[i])].slot = static_cast<int>(i);
      child_ids.push_back(node.children[i]);
    }
    r.children_end = static_cast<uint32_t>(child_ids.size());
    r.in_edges_begin = static_cast<uint32_t>(in_edges.size());
    for (const query::XDagEdge& edge : xdag.incoming(v)) {
      in_edges.push_back(InEdge{edge.from, edge.axis});
    }
    r.in_edges_end = static_cast<uint32_t>(in_edges.size());
  }
  auto has = [&rows](XNodeId v, uint8_t flag) {
    return (rows[static_cast<size_t>(v)].flags & flag) != 0;
  };
  auto children = [&rows, &child_ids](XNodeId v) {
    const XNodeRow& r = rows[static_cast<size_t>(v)];
    return std::span<const XNodeId>(child_ids.data() + r.children_begin,
                                    r.children_end - r.children_begin);
  };

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
  std::vector<XNodeId> candidates;
  auto append = [&candidates, &xdag](std::vector<XNodeId> list) {
    std::sort(list.begin(), list.end(), [&xdag](XNodeId a, XNodeId b) {
      return xdag.TopologicalRank(a) < xdag.TopologicalRank(b);
    });
    CandidateSpan span;
    span.begin = static_cast<uint32_t>(candidates.size());
    candidates.insert(candidates.end(), list.begin(), list.end());
    span.end = static_cast<uint32_t>(candidates.size());
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
  std::vector<CandidateSpan> element_spans;
  std::vector<CandidateSpan> attribute_spans;
  build_spans(named_elements, any_element, any_element_, &element_spans);
  build_spans(named_attributes, any_attribute, any_attribute_,
              &attribute_spans);

  // Boolean submatchings (Section 5.1): an x-node whose subtree contains no
  // output node never needs its matchings enumerated — confirmed ones are
  // counted and released.
  if (options_.enable_boolean_submatchings) {
    // Post-order: a subtree is output-free if the node itself is not an
    // output and all child subtrees are output-free. Children have larger
    // ids than their parents (builder order), so a reverse scan works.
    for (XNodeId v = n - 1; v > kRootXNode; --v) {
      bool output_free = !has(v, kOutput);
      for (XNodeId w : children(v)) {
        output_free = output_free && has(w, kCounted);
      }
      if (output_free) rows[static_cast<size_t>(v)].flags |= kCounted;
    }
  }

  // Sibling support tables: a closed child structure must stay reachable
  // from its parent frame when its x-node (a) supports following-sibling
  // relevance, (b) is a preceding-sibling pull source, or (c) is the target
  // of deferred following-sibling propagation.
  for (XNodeId v = 0; v < n; ++v) {
    for (const query::XDagEdge& edge : xdag.outgoing(v)) {
      if (edge.axis == Axis::kFollowingSibling) {
        rows[static_cast<size_t>(v)].flags |= kSiblingListed;  // (a)
        wants_siblings_ = true;
      }
    }
    if (v != kRootXNode) {
      Axis incoming = rows[static_cast<size_t>(v)].incoming_axis;
      if (incoming == Axis::kPrecedingSibling) {
        rows[static_cast<size_t>(v)].flags |= kSiblingListed;  // (b)
        wants_siblings_ = true;
      }
      if (incoming == Axis::kFollowingSibling) {
        rows[static_cast<size_t>(rows[static_cast<size_t>(v)].parent)].flags |=
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
    if (has(v, kOutput)) ++output_count;
  }
  reclaim_enabled_ = earliest_ && output_count == 1;
  for (XNodeId v = 0; v < n; ++v) {
    bool blocked = has(v, kSiblingListed);
    for (XNodeId w : children(v)) {
      if (rows[static_cast<size_t>(w)].incoming_axis ==
          Axis::kFollowingSibling) {
        blocked = true;
      }
    }
    if (blocked) rows[static_cast<size_t>(v)].flags |= kReclaimBlocked;
  }

  // Pack: the open-match heads (the only mutable part) first, for
  // alignment, then every table, so an engine's query tables and open
  // lists share a few adjacent cache lines.
  const size_t words = Words<Structure*>(static_cast<size_t>(n)) +
                       Words<XNodeRow>(rows.size()) +
                       Words<XNodeId>(child_ids.size()) +
                       Words<InEdge>(in_edges.size()) +
                       Words<CandidateSpan>(element_spans.size()) +
                       Words<CandidateSpan>(attribute_spans.size()) +
                       Words<XNodeId>(candidates.size());
  tables_ = std::make_unique<uint64_t[]>(words);
  uint64_t* at = tables_.get();
  auto place = [&at](const auto& vec) {
    using T = typename std::decay_t<decltype(vec)>::value_type;
    T* out = reinterpret_cast<T*>(at);
    std::copy(vec.begin(), vec.end(), out);
    at += Words<T>(vec.size());
    return out;
  };
  open_top_ = place(std::vector<Structure*>(static_cast<size_t>(n), nullptr));
  open_count_ = static_cast<uint32_t>(n);
  rows_ = place(rows);
  child_ids_ = place(child_ids);
  in_edges_ = place(in_edges);
  element_spans_ = place(element_spans);
  element_span_count_ = static_cast<uint32_t>(element_spans.size());
  attribute_spans_ = place(attribute_spans);
  attribute_span_count_ = static_cast<uint32_t>(attribute_spans.size());
  candidates_ = place(candidates);
}

XaosEngine::~XaosEngine() { ClearMatchingState(); }

void XaosEngine::ClearMatchingState() {
  for (const Match& match : matches_) store_.Release(match.structure);
  matches_.clear();
  depth_ = 0;
  std::fill(open_top_, open_top_ + open_count_, nullptr);
  // Lists past closed_dirty_ were cleared by an earlier reset and not
  // touched since, so the sweep is bounded by this document's depth.
  for (size_t d = 0; d < closed_dirty_; ++d) {
    for (std::vector<Structure*>& list : closed_[d]) {
      for (Structure* m : list) store_.Release(m);
      list.clear();
    }
  }
  closed_dirty_ = 0;
  active_captures_.clear();
  if (root_structure_ != nullptr) {
    store_.Release(root_structure_);
    root_structure_ = nullptr;
  }
  live_root_ = nullptr;
  early_items_.clear();
  if (!emitted_ids_.empty()) emitted_ids_.clear();
}

void XaosEngine::ResetDocumentState() {
  ClearMatchingState();
  if (!captured_.empty()) captured_.clear();
  done_ = false;
  early_match_ = false;
  confirm_ns_ = 0;
  inert_ = false;
  if (failed_) {
    error_ = Status::Ok();
    failed_ = false;
  }
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
  failed_ = true;
  ClearMatchingState();
}

MatchingStructure* XaosEngine::FindMatch(const Frame& frame,
                                         XNodeId xnode) const {
  for (const Match& match : Matches(frame)) {
    if (match.xnode == xnode) return match.structure;
  }
  return nullptr;
}

template <typename F>
void XaosEngine::ForEachOpen(XNodeId u, F&& f) {
  constexpr size_t kInline = 32;
  Structure* inline_list[kInline];
  size_t count = 0;
  Structure* p = open_top_[u];
  for (; p != nullptr && count < kInline; p = p->prev_open) {
    inline_list[count++] = p;
  }
  if (p == nullptr) {
    while (count > 0) f(inline_list[--count]);
    return;
  }
  std::vector<Structure*> list;
  for (p = open_top_[u]; p != nullptr; p = p->prev_open) list.push_back(p);
  for (size_t i = list.size(); i > 0; --i) f(list[i - 1]);
}

std::span<const XNodeId> XaosEngine::CollectCandidates(
    DocNodeKind kind, util::Symbol symbol) const {
  // A symbol outside the table (or never interned at all) cannot equal any
  // interned query name — only the kind's wildcards remain.
  auto named = [symbol](const CandidateSpan* spans, uint32_t count,
                        CandidateSpan wildcards) {
    if (symbol < 0 || static_cast<uint32_t>(symbol) >= count) {
      return wildcards;
    }
    return spans[symbol];
  };
  CandidateSpan span;
  switch (kind) {
    case DocNodeKind::kRoot:
      span = root_;
      break;
    case DocNodeKind::kElement:
      span = named(element_spans_, element_span_count_, any_element_);
      break;
    case DocNodeKind::kAttribute:
      span = named(attribute_spans_, attribute_span_count_, any_attribute_);
      break;
    case DocNodeKind::kText:
      span = text_;
      break;
  }
  return std::span<const XNodeId>(candidates_ + span.begin,
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
            frames_[depth_ - 1].node.position.id !=
                frame.node.position.parent_id ||
            FindMatch(frames_[depth_ - 1], u) == nullptr) {
          return false;
        }
        break;
      case Axis::kDescendant:
        // Every open element is a proper ancestor of the new node.
        if (open_top_[static_cast<size_t>(u)] == nullptr) return false;
        break;
      case Axis::kDescendantOrSelf:
        if (open_top_[static_cast<size_t>(u)] == nullptr &&
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
        const Frame& parent = frames_[depth_ - 1];
        if (parent.node.position.id != frame.node.position.parent_id) {
          return false;
        }
        bool found = false;
        for (const Structure* p : closed_[depth_ - 1][static_cast<size_t>(u)]) {
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
                              util::Symbol symbol,
                              std::span<const XNodeId> candidates,
                              std::string_view value,
                              const NodePosition& position) {
  // Acquire (or reuse) the frame at the current depth; it is only made
  // visible (depth_ incremented) after matching, so relevance checks still
  // see the previous top as the parent.
  if (depth_ == frames_.size()) frames_.emplace_back();
  Frame& frame = frames_[depth_];
  frame.begin = frame.end = static_cast<uint32_t>(matches_.size());
  frame.capture_index = -1;
  if (wants_siblings_) {
    if (depth_ == closed_.size()) closed_.emplace_back(open_count_);
    if (depth_ == closed_dirty_) ++closed_dirty_;
    for (std::vector<Structure*>& list : closed_[depth_]) {
      for (Structure* m : list) store_.Release(m);
      list.clear();
    }
  }

  // Identity comes from the caller's document cursor, not from this
  // engine's view of the stream: ids/levels/ordinals are uniform across a
  // fleet of engines even when dispatch filtering gives each a different
  // event subset, and remain monotone in document order.
  frame.node.position = position;
  frame.node.symbol = symbol;
  frame.node.kind = kind;
  if (kind == DocNodeKind::kElement) ++stats_.elements_total;

  // Candidates already passed their name test (the symbol index implies
  // it); only attribute / text value constraints remain to check.
  for (XNodeId v : candidates) {
    const XNodeRow& r = row(v);
    if ((r.flags & kValueTest) != 0 && value != *tree_->node(v).test.value) {
      continue;
    }
    if (relevance_filter_ && !IsRelevant(v, frame)) continue;
    // Node names/values are only retained for output matches — the ones
    // that become result items; the storage frugality the paper's Table 3
    // measures. Creation/live/peak/byte accounting happens in Create.
    Structure* structure = store_.Create(
        v, frame.node, static_cast<int>(r.children_end - r.children_begin),
        (r.flags & kOutput) != 0, name, value);
    matches_.push_back(Match{v, structure});
    frame.end = static_cast<uint32_t>(matches_.size());
  }
  if (kind == DocNodeKind::kElement && frame.begin == frame.end) {
    ++stats_.elements_discarded;
  }

  ++depth_;
  for (const Match& match : Matches(frame)) {
    Structure*& top = open_top_[static_cast<size_t>(match.xnode)];
    match.structure->prev_open = top;
    top = match.structure;
  }

  if (max_live_structures_ != 0 &&
      stats_.structures_live > max_live_structures_) {
    FailWith(ResourceExhaustedError(
        "live matching structures exceeded the configured limit of " +
        std::to_string(max_live_structures_)));
  }
}

// Inserts `child` into `parent`'s slot and, if the child is already
// confirmed, lets the confirmation propagate into the parent immediately.
void XaosEngine::LinkChild(Structure* parent, int slot, Structure* child,
                           bool optimistic) {
  if (child->confirmed() &&
      (IsCountedXNode(child->xnode) || child->reclaimed())) {
    // Boolean submatching: a confirmed, output-free sub-matching only needs
    // to be counted. No storage, and no back reference either — confirmed
    // structures are never retracted. A reclaimed child is the same shape:
    // its output is already emitted and its storage is gone, so only its
    // (permanent) confirmation matters to the parent.
    parent->bump_confirmed(slot);
    TryConfirm(parent);
    return;
  }
  bool was_confirmed = child->confirmed();
  store_.Link(parent, slot, child, optimistic);
  if (was_confirmed) TryConfirm(parent);
  // A confirmed child linked under an already-anchored parent is itself
  // reachable from the confirmed Root through confirmed structures.
  if (earliest_ && parent->anchored() && child->confirmed() &&
      !child->anchored()) {
    Anchor(child);
  }
}

bool XaosEngine::SlotRefillable(const Structure& parent, int slot) const {
  XNodeId w = Children(parent.xnode)[static_cast<size_t>(slot)];
  if (row(w).incoming_axis != Axis::kFollowingSibling) return false;
  // Following-sibling entries can still arrive while the element's parent
  // is open (later siblings have not been seen yet).
  uint32_t level = parent.node.position.level;
  if (level == 0) return false;
  size_t parent_depth = static_cast<size_t>(level - 1);
  return parent_depth < depth_ && frames_[parent_depth].node.position.id ==
                                      parent.node.position.parent_id;
}

void XaosEngine::CascadeRemoval(Structure* m, bool retract_only) {
  LinkList refs = store_.TakeBackrefs(m);
  LinkList kept;
  for (StructureLink* ref = refs.head; ref != nullptr;) {
    StructureLink* next = ref->next_backref;
    if (retract_only && ref->optimistic) {
      // Optimistic links (backward/sibling pulls) are kept: the consumer
      // will learn of this structure's fate through a later undo or keep
      // the reference if it completes again.
      if (kept.tail == nullptr) {
        kept.head = ref;
      } else {
        kept.tail->next_backref = ref;
      }
      kept.tail = ref;
      ref = next;
      continue;
    }
    Structure* parent_ptr = ref->parent;
    const int slot = static_cast<int>(ref->slot);
    if (parent_ptr->expired() || parent_ptr->dead()) {
      store_.DropBackref(ref);
      ref = next;
      continue;
    }
    Hold parent(&store_, parent_ptr);
    store_.DropBackref(ref);
    ref = next;
    store_.RemoveFromSlot(parent_ptr, slot, m);
    // An anchored parent's slots are satisfied by confirmed counts forever;
    // losing a stored (unconfirmed) extra entry cannot undo it, but it may
    // drain the slot and make the parent reclaimable.
    if (earliest_ && parent_ptr->anchored()) {
      MaybeReclaim(parent_ptr);
      continue;
    }
    // An open parent may still receive entries for this slot. A closed
    // parent's emptiness is final (Table 2, step 23) — unless the slot is a
    // refillable following-sibling slot, in which case the parent merely
    // returns to the pending state. Emptiness accounts for released
    // (counted) confirmed entries, which keep the slot satisfied forever.
    if (!parent_ptr->SlotEmpty(slot) || !parent_ptr->closed()) continue;
    if (SlotRefillable(*parent_ptr, slot)) {
      RetractPropagation(parent_ptr);
    } else {
      Undo(parent_ptr);
    }
  }
  // The kept links become the back references again. Nothing links `m`
  // during a cascade (links are made only by propagation and pulls).
  XAOS_CHECK(m->backrefs.empty());
  if (kept.tail != nullptr) kept.tail->next_backref = nullptr;
  m->backrefs = kept;
}

void XaosEngine::Undo(Structure* m) {
  m->set(Structure::kDead);
  ++stats_.structures_undone;
  CascadeRemoval(m, /*retract_only=*/false);
}

void XaosEngine::RetractPropagation(Structure* m) {
  if (m->dead() || !m->propagated()) return;
  XAOS_CHECK(!m->confirmed()) << "confirmed matchings cannot be retracted";
  m->flags &= static_cast<uint8_t>(~Structure::kPropagated);
  CascadeRemoval(m, /*retract_only=*/true);
}

void XaosEngine::MaybeCompleteDeferred(Structure* m) {
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
void XaosEngine::PropagateUp(Structure* m) {
  if (m->propagated() || m->dead()) return;
  m->set(Structure::kPropagated);
  XNodeId v = m->xnode;
  const ElementId element_id = m->node.position.id;
  const ElementId parent_id = m->node.position.parent_id;
  if (v != kRootXNode) {
    const XNodeRow& r = row(v);
    XNodeId parent_xnode = r.parent;
    int slot = r.slot;
    switch (r.incoming_axis) {
      case Axis::kChild:
      case Axis::kAttribute: {
        // frames_[depth_ - 2] is the document parent only if dispatch did
        // not skip it (sparse stack); a skipped parent matched nothing.
        if (depth_ < 2 || frames_[depth_ - 2].node.position.id != parent_id) {
          break;
        }
        Structure* p = FindMatch(frames_[depth_ - 2], parent_xnode);
        if (p != nullptr && !p->dead()) {
          LinkChild(p, slot, m, /*optimistic=*/false);
          ++stats_.propagations;
        }
        break;
      }
      case Axis::kDescendant:
      case Axis::kDescendantOrSelf: {
        // Proper ancestors only: they opened before this element did. (For
        // descendant-or-self the self part is pulled by the parent at its
        // own close.)
        ForEachOpen(parent_xnode, [&](Structure* p) {
          if (p->node.position.id >= element_id || p->dead()) return;
          LinkChild(p, slot, m, /*optimistic=*/false);
          ++stats_.propagations;
        });
        break;
      }
      case Axis::kFollowingSibling: {
        // Targets are the already-closed preceding siblings matched to the
        // parent x-node; filling their slot may complete them (deferred
        // propagation).
        if (depth_ < 2 || frames_[depth_ - 2].node.position.id != parent_id) {
          break;
        }
        // Held copy: undo cascades run while the targets are visited.
        std::vector<Hold> targets;
        for (Structure* p :
             closed_[depth_ - 2][static_cast<size_t>(parent_xnode)]) {
          targets.emplace_back(&store_, p);
        }
        for (const Hold& target : targets) {
          Structure* p = target.get();
          if (p->dead() || p->node.position.id >= element_id) continue;
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
  TryConfirm(m);
}

void XaosEngine::ProcessEnd() {
  XAOS_CHECK(depth_ > 0);
  Frame& frame = frames_[depth_ - 1];
  const ElementId element_id = frame.node.position.id;
  const ElementId parent_id = frame.node.position.parent_id;

  // Children that were pending on a following sibling can no longer
  // complete: once this element closes, no further siblings of its children
  // will ever arrive. Retract them now.
  if (wants_siblings_) {
    for (std::vector<Structure*>& list : closed_[depth_ - 1]) {
      for (Structure* child : list) {
        if (!child->dead() && !child->AllSlotsNonEmpty()) Undo(child);
      }
    }
  }

  // Process deepest x-tree nodes first: x-tree children that may be mapped
  // to this very element (self / *-or-self axes) must be finalized before
  // their x-tree parent fills its slots.
  const Match* matches = matches_.data() + frame.begin;
  const size_t count = frame.end - frame.begin;
  constexpr size_t kInline = 16;
  size_t inline_order[kInline];
  if (count > kInline) order_scratch_.resize(count);
  const std::span<size_t> order(
      count > kInline ? order_scratch_.data() : inline_order, count);
  for (size_t i = 0; i < count; ++i) order[i] = i;
  if (count > 1) {
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return row(matches[a].xnode).depth > row(matches[b].xnode).depth;
    });
  }

  for (size_t idx : order) {
    XNodeId v = matches[idx].xnode;
    Structure* m = matches[idx].structure;
    if (m->dead()) continue;
    m->set(Structure::kClosed);

    // Pull phase: submatchings whose candidates are known at this end event
    // but may not yet be total are adopted *optimistically* and retracted
    // later if they fail (Section 4.3): backward axes map to open
    // ancestors, preceding-sibling to closed earlier siblings, self /
    // descendant-or-self's self part to this very element.
    const std::span<const XNodeId> children = Children(v);
    for (size_t slot = 0; slot < children.size(); ++slot) {
      XNodeId w = children[slot];
      const int s = static_cast<int>(slot);
      switch (row(w).incoming_axis) {
        case Axis::kParent: {
          // Sparse-stack guard: frames_[depth_ - 2] must be the document
          // parent (skipped ancestors matched nothing).
          if (depth_ < 2 || frames_[depth_ - 2].node.position.id != parent_id) {
            break;
          }
          Structure* p = FindMatch(frames_[depth_ - 2], w);
          if (p != nullptr && !p->dead()) {
            LinkChild(m, s, p, /*optimistic=*/true);
            ++stats_.optimistic_propagations;
          }
          break;
        }
        case Axis::kAncestor:
        case Axis::kAncestorOrSelf: {
          const bool proper = row(w).incoming_axis == Axis::kAncestor;
          ForEachOpen(w, [&](Structure* p) {
            if ((proper && p->node.position.id == element_id) || p->dead()) {
              return;
            }
            LinkChild(m, s, p, /*optimistic=*/true);
            ++stats_.optimistic_propagations;
          });
          break;
        }
        case Axis::kSelf:
        case Axis::kDescendantOrSelf: {
          // The same element may match `w` (its structure was finalized
          // earlier in this event — deeper x-tree nodes first). For
          // descendant-or-self this is the "self" part; proper descendants
          // were pushed when they closed.
          Structure* p = FindMatch(frame, w);
          if (p != nullptr && p != m && !p->dead()) {
            LinkChild(m, s, p, /*optimistic=*/true);
            ++stats_.optimistic_propagations;
          }
          break;
        }
        case Axis::kPrecedingSibling: {
          if (depth_ < 2 || frames_[depth_ - 2].node.position.id != parent_id) {
            break;
          }
          for (Structure* p : closed_[depth_ - 2][static_cast<size_t>(w)]) {
            if (p->dead()) continue;
            LinkChild(m, s, p, /*optimistic=*/true);
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
      if (!pending) Undo(m);
      // Pending structures stay registered (closed, unpropagated) and are
      // completed by MaybeCompleteDeferred or retracted at parent close.
      continue;
    }

    PropagateUp(m);

    // A structure anchored before (or during) its close: its subtree
    // capture is complete now, so a deferred emission can go out, and its
    // slots may already have drained to confirmed counts.
    if (earliest_ && m->anchored()) {
      if (HasFlag(v, kOutput)) EmitEarly(m);
      MaybeReclaim(m);
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
  // their per-x-node open lists).
  for (const Match& match : Matches(frame)) {
    Structure*& top = open_top_[static_cast<size_t>(match.xnode)];
    XAOS_CHECK(top == match.structure);
    top = match.structure->prev_open;
  }
  // Keep sibling-relevant matches reachable from the parent frame until the
  // parent closes.
  if (wants_siblings_ && depth_ >= 2 &&
      frames_[depth_ - 2].node.position.id == parent_id) {
    std::vector<std::vector<Structure*>>& parent_lists = closed_[depth_ - 2];
    for (const Match& match : Matches(frame)) {
      if (HasFlag(match.xnode, kSiblingListed) && !match.structure->dead()) {
        StructureStore::Retain(match.structure);
        parent_lists[static_cast<size_t>(match.xnode)].push_back(
            match.structure);
      }
    }
  }
  // Spend the frame: drop its references to its matches.
  for (const Match& match : Matches(frame)) store_.Release(match.structure);
  matches_.resize(frame.begin);
  frame.end = frame.begin;
  frame.capture_index = -1;
  --depth_;
}

void XaosEngine::TryConfirm(Structure* m) {
  // Note: open structures are confirmable too — their slots only ever gain
  // entries, confirmed entries are never retracted, and the consistency of
  // every existing link was checked when it was made. An open structure
  // with a confirmed entry in every slot is therefore guaranteed to
  // represent a total matching once it closes.
  if (m->confirmed() || m->dead() || !m->AllSlotsConfirmed()) {
    return;
  }
  m->set(Structure::kConfirmed);
  // Walk the parents that linked this structure before it was confirmed
  // (later links count it directly, see LinkChild).
  if (IsCountedXNode(m->xnode)) {
    // Once counted, the stored entries (and back references) are released:
    // confirmed structures are immutable, so nothing will ever need to
    // retract or re-find them. This is what frees predicate-only matchings
    // long before end of document.
    LinkList refs = store_.TakeBackrefs(m);
    for (StructureLink* ref = refs.head; ref != nullptr;) {
      StructureLink* next = ref->next_backref;
      Structure* parent_ptr = ref->parent;
      const int slot = static_cast<int>(ref->slot);
      if (parent_ptr->expired() || parent_ptr->dead()) {
        store_.DropBackref(ref);
        ref = next;
        continue;
      }
      Hold parent(&store_, parent_ptr);
      store_.DropBackref(ref);
      ref = next;
      parent_ptr->bump_confirmed(slot);
      // Migrate from stored entry to count. Note: this may release the last
      // strong reference to `m` held by `parent`; callers of TryConfirm
      // keep `m` alive for the duration of the call.
      store_.RemoveFromSlot(parent_ptr, slot, m);
      if (earliest_ && parent_ptr->anchored()) MaybeReclaim(parent_ptr);
      TryConfirm(parent_ptr);
    }
    return;
  }
  // A snapshot of the parents: anchoring inside the cascade can reclaim
  // `m` and detach it from its back references mid-walk. The weak
  // references keep every snapshot parent readable.
  const size_t mark = backref_scratch_.size();
  for (const StructureLink* ref = m->backrefs.head; ref != nullptr;
       ref = ref->next_backref) {
    StructureStore::RetainWeak(ref->parent);
    backref_scratch_.emplace_back(ref->parent, ref->slot);
  }
  const size_t end = backref_scratch_.size();
  bool anchor_after = false;
  for (size_t i = mark; i < end; ++i) {
    auto [parent_ptr, slot] = backref_scratch_[i];
    if (parent_ptr->expired() || parent_ptr->dead()) continue;
    Hold parent(&store_, parent_ptr);
    parent_ptr->bump_confirmed(static_cast<int>(slot));
    // A live anchored parent makes the freshly confirmed `m` reachable from
    // the confirmed Root. Anchoring is deferred past the loop: Anchor can
    // reclaim `m`, which would detach it from parents not yet visited.
    if (earliest_ && parent_ptr->anchored()) anchor_after = true;
    TryConfirm(parent_ptr);
  }
  for (size_t i = mark; i < end; ++i) {
    store_.ReleaseWeak(backref_scratch_[i].first);
  }
  backref_scratch_.resize(mark);
  if (anchor_after) Anchor(m);
}

void XaosEngine::Anchor(Structure* m) {
  if (!earliest_ || m == nullptr || m->anchored() || m->dead() ||
      !m->confirmed()) {
    return;
  }
  m->set(Structure::kAnchored);
  if (HasFlag(m->xnode, kOutput) &&
      (m->closed() || !options_.capture_output_subtrees)) {
    // An anchored output structure is provably in the final result. With
    // subtree capture the serialized XML only exists once the element
    // closes; emission of a still-open structure is deferred to its close
    // (ProcessEnd re-checks anchored structures at their end event).
    EmitEarly(m);
  }
  // Recursively anchor the confirmed entries of stored (non-counted)
  // slots: every one of them is reachable through `m`'s confirmed link.
  // Two-phase: anchoring a child can reclaim it, which removes it from the
  // slot being walked, so hold the children first.
  std::vector<Hold> to_anchor;
  const std::span<const XNodeId> children = Children(m->xnode);
  for (size_t slot = 0; slot < children.size(); ++slot) {
    if (IsCountedXNode(children[slot])) continue;
    for (const StructureLink* link = m->slot(static_cast<int>(slot)).head;
         link != nullptr; link = link->next_in_slot) {
      if (link->child->confirmed() && !link->child->anchored()) {
        to_anchor.emplace_back(&store_, link->child);
      }
    }
  }
  for (const Hold& child : to_anchor) Anchor(child.get());
  MaybeReclaim(m);
}

void XaosEngine::EmitEarly(Structure* m) {
  const ElementId id = m->node.position.id;
  if (!emitted_ids_.insert(id).second) return;
  OutputItem item;
  item.info = m->Info();
  auto it = captured_.find(id);
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

void XaosEngine::MaybeReclaim(Structure* m) {
  if (!reclaim_enabled_ || m->reclaimed() || !m->anchored() || m->dead() ||
      !m->closed() || m->xnode == kRootXNode ||
      HasFlag(m->xnode, kReclaimBlocked)) {
    return;
  }
  // Reclaim only once every non-counted slot has drained to its confirmed
  // count. A stored entry — even an anchored one — may still be the only
  // strong reference keeping an unconfirmed grandchild's backref target
  // alive; releasing it here could lose an item that confirms later.
  // Counted slots never store confirmed entries (TryConfirm migrates them
  // to counts); their remaining stored entries are unconfirmed, output-free
  // candidates whose loss is harmless (released parents are skipped).
  const std::span<const XNodeId> children = Children(m->xnode);
  for (size_t slot = 0; slot < children.size(); ++slot) {
    if (!IsCountedXNode(children[slot]) &&
        !m->slot(static_cast<int>(slot)).empty()) {
      return;
    }
  }
  m->set(Structure::kReclaimed);
  ++stats_.candidates_reclaimed;
  store_.ClearSlots(m);
  // Detach from parents. Hold every parent first: removing `m` from a slot
  // can drop its last strong reference and release it mid-loop, so after
  // the first removal only the pointer *value* may be used.
  std::vector<std::pair<Hold, int>> parents;
  LinkList detached = store_.TakeBackrefs(m);
  for (StructureLink* ref = detached.head; ref != nullptr;) {
    StructureLink* next = ref->next_backref;
    Structure* parent = ref->parent;
    if (!parent->expired() && !parent->dead()) {
      parents.emplace_back(Hold(&store_, parent), static_cast<int>(ref->slot));
    }
    store_.DropBackref(ref);
    ref = next;
  }
  const Structure* raw = m;
  for (auto& [parent, slot] : parents) {
    // Anchored => every confirmed count >= 1, so the slot stays satisfied
    // and no undo can trigger; this is pure storage release.
    store_.RemoveFromSlot(parent.get(), slot, raw);
  }
  for (auto& [parent, slot] : parents) {
    (void)slot;
    if (parent.get()->anchored()) MaybeReclaim(parent.get());
  }
}

void XaosEngine::StartDocument() {
  ResetDocumentState();
  own_cursor_.Reset();
  ProcessStart(DocNodeKind::kRoot, "", util::kInvalidSymbol,
               CollectCandidates(DocNodeKind::kRoot, util::kInvalidSymbol), "",
               NodePosition{});
  live_root_ = FindMatch(frames_[0], kRootXNode);
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
  if (failed_ || inert_) return;
  // Replay paths (DOM replayer, recorded events, hand-fed tests) deliver
  // names without symbols; resolve against the global table. A
  // name the table has never seen cannot match any query name test.
  util::Symbol symbol = name.symbol;
  if (symbol == util::kInvalidSymbol) {
    symbol = util::SymbolTable::Global().Lookup(name.text);
  }
  ProcessStart(DocNodeKind::kElement, name.text, symbol,
               CollectCandidates(DocNodeKind::kElement, symbol), "", node);
  if (failed_) return;

  if (captures_) {
    for (const CapturePtr& capture : active_captures_) {
      capture->writer.StartElement(name.text);
      for (const xml::AttributeView& attr : attributes) {
        capture->writer.WriteAttribute(attr.name, attr.value);
      }
    }
    Frame& top = frames_[depth_ - 1];
    bool output_match = false;
    for (const Match& match : Matches(top)) {
      if (HasFlag(match.xnode, kOutput)) {
        output_match = true;
        break;
      }
    }
    if (output_match) {
      CapturePtr capture(new (arena_->Allocate(sizeof(Capture))) Capture,
                         CaptureDeleter{arena_});
      capture->element_id = top.node.position.id;
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
          DocNodeKind::kAttribute, attr.name, attr_symbol,
          CollectCandidates(DocNodeKind::kAttribute, attr_symbol), attr.value,
          NodePosition{node.id + 1 + static_cast<ElementId>(k), node.id,
                       node.level + 1, node.ordinal});
      if (failed_) return;
      ProcessEnd();
    }
  }
}

void XaosEngine::DeliverCharacters(std::string_view text,
                                   const NodePosition& text_node) {
  if (failed_ || inert_ || depth_ == 0) return;
  if (captures_) {
    for (const CapturePtr& capture : active_captures_) {
      capture->writer.WriteText(text);
    }
  }
  if (wants_text_) {
    ProcessStart(DocNodeKind::kText, "", util::kInvalidSymbol,
                 CollectCandidates(DocNodeKind::kText, util::kInvalidSymbol),
                 text, text_node);
    if (failed_) return;
    ProcessEnd();
  }
}

void XaosEngine::DeliverEndElement() {
  if (failed_ || inert_) return;
  if (captures_) {
    for (const CapturePtr& capture : active_captures_) {
      capture->writer.EndElement();
    }
    Frame& top = frames_[depth_ - 1];
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
  if (failed_) return;
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
  root_structure_ = FindMatch(frames_[0], kRootXNode);
  if (root_structure_ != nullptr) StructureStore::Retain(root_structure_);
  ProcessEnd();
  AccountPrivateArena();
  BuildResult(root_structure_);
  done_ = true;
  // A match that was never confirmed early becomes certain here.
  if (result_.matched && confirm_ns_ == 0 && obs::Enabled()) {
    confirm_ns_ = obs::NowNs();
  }
}

void XaosEngine::BuildResult(Structure* root_structure) {
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
  // Structures are marked kVisited in their own block and unmarked after
  // the walk; items already emitted are found by binary search.
  std::vector<ElementId> emitted;
  emitted.reserve(result_.items.size());
  for (const OutputItem& item : result_.items) emitted.push_back(item.info.id);
  std::sort(emitted.begin(), emitted.end());
  const size_t early = result_.items.size();
  result_walk_.clear();
  result_walk_.push_back(root_structure);
  root_structure->set(Structure::kVisited);
  for (size_t next = 0; next < result_walk_.size(); ++next) {
    const Structure* m = result_walk_[next];
    if (HasFlag(m->xnode, kOutput) &&
        !std::binary_search(emitted.begin(), emitted.end(),
                            m->node.position.id)) {
      OutputItem item;
      item.info = m->Info();
      auto it = captured_.find(m->node.position.id);
      if (it != captured_.end()) item.captured_xml = it->second;
      result_.items.push_back(std::move(item));
    }
    for (int i = 0; i < m->slot_count; ++i) {
      for (const StructureLink* link = m->slot(i).head; link != nullptr;
           link = link->next_in_slot) {
        if (!link->child->has(Structure::kVisited)) {
          link->child->set(Structure::kVisited);
          result_walk_.push_back(link->child);
        }
      }
    }
  }
  for (Structure* m : result_walk_) m->clear(Structure::kVisited);
  std::sort(result_.items.begin(), result_.items.end(),
            [](const OutputItem& a, const OutputItem& b) {
              return a.info.id < b.info.id;
            });
  // Two output structures of one element yield one item.
  if (result_.items.size() - early > 1) {
    result_.items.erase(
        std::unique(result_.items.begin(), result_.items.end(),
                    [](const OutputItem& a, const OutputItem& b) {
                      return a.info.id == b.info.id;
                    }),
        result_.items.end());
  }
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

  std::vector<const Structure*> assignment(
      static_cast<size_t>(tree_->size()), nullptr);
  std::set<std::vector<ElementId>> seen;
  size_t explored = 0;
  const size_t explore_budget = max_tuples * 64;

  // Full product enumeration over the structure graph: one entry is chosen
  // per slot, recursively; a complete choice is a total matching (x-tree
  // subtree domains are disjoint, so any per-slot combination is valid).
  // The work list holds (structure, next slot to decide) pairs.
  std::function<bool(std::vector<std::pair<const Structure*, int>>&)>
      run = [&](std::vector<std::pair<const Structure*, int>>& work)
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
        const Structure* match = assignment[static_cast<size_t>(v)];
        XAOS_CHECK(match != nullptr);
        key.push_back(match->node.position.id);
        tuple.push_back(match->Info());
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
    if (slot == m->slot_count) {
      work.pop_back();
      bool keep_going = run(work);
      work.push_back({m, slot});
      return keep_going;
    }
    // Boolean submatchings: output-free slots contribute nothing to the
    // projection; their (released) entries need not be enumerated.
    XNodeId slot_child = Children(m->xnode)[static_cast<size_t>(slot)];
    if (IsCountedXNode(slot_child)) {
      work.back().second = slot + 1;
      bool keep_going = run(work);
      work.back().second = slot;
      return keep_going;
    }
    work.back().second = slot + 1;
    bool keep_going = true;
    for (const StructureLink* link = m->slot(slot).head; link != nullptr;
         link = link->next_in_slot) {
      const Structure* child = link->child;
      assignment[static_cast<size_t>(child->xnode)] = child;
      work.push_back({child, 0});
      keep_going = run(work);
      work.pop_back();
      assignment[static_cast<size_t>(child->xnode)] = nullptr;
      if (!keep_going) break;
    }
    work.back().second = slot;
    return keep_going;
  };

  assignment[kRootXNode] = root_structure_;
  std::vector<std::pair<const Structure*, int>> work{{root_structure_, 0}};
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
  int top_level = static_cast<int>(frames_[depth_ - 1].node.position.level);
  std::vector<int> lf(static_cast<size_t>(tree_->size()), kAbsent);

  const query::XDag xdag(*tree_);
  for (XNodeId v : xdag.TopologicalOrder()) {
    if (v == kRootXNode) continue;  // the root is already matched, not sought
    int combined = kAny;
    for (const query::XDagEdge& edge : xdag.incoming(v)) {
      XNodeId u = edge.from;
      int constraint = kAbsent;
      bool top_has_u = FindMatch(frames_[depth_ - 1], u) != nullptr;
      bool any_open_u = open_top_[static_cast<size_t>(u)] != nullptr;
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
          for (const Structure* p :
               closed_[depth_ - 1][static_cast<size_t>(u)]) {
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
