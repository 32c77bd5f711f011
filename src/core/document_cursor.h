// A document cursor: uniform node-id, level and ordinal assignment for
// consumers fed from one event stream.
//
// With label-indexed dispatch an engine no longer sees every event, so ids
// must come from a source that does: the fleet advances one DocumentCursor
// per event and hands each delivered node's NodePosition to the engines it
// delivers to (a stand-alone XaosEngine advances a private cursor the same
// way). The numbering is uniform — every element, every attribute and every
// text run gets an id whether or not any engine cares — so ids are
// identical across engines and monotone in document order (the property the
// engine's ancestor/ordering checks rely on).
//
// An engine fed a filtered stream keeps only a *sparse* stack (frames for
// elements it was shown); parent-id guards in its matching logic treat
// skipped ancestors as empty frames.

#ifndef XAOS_CORE_DOCUMENT_CURSOR_H_
#define XAOS_CORE_DOCUMENT_CURSOR_H_

#include <cstdint>
#include <vector>

#include "core/element_info.h"
#include "util/check.h"

namespace xaos::core {

class DocumentCursor {
 public:
  using Node = NodePosition;

  DocumentCursor() { Reset(); }

  // Starts a new document: spine holds only the virtual root.
  void Reset() {
    spine_.clear();
    spine_.push_back(Node{});
    next_id_ = 1;
    text_id_ = 0;
    elements_total_ = 0;
  }

  // Advances past a start-element with `attr_count` attributes. Ids are
  // assigned in event order: the element first, then one per attribute.
  void StartElement(size_t attr_count) {
    Node node;
    node.parent_id = spine_.back().id;
    node.id = next_id_;
    next_id_ += 1 + static_cast<ElementId>(attr_count);
    node.level = static_cast<uint32_t>(spine_.size());
    node.ordinal = static_cast<uint32_t>(++elements_total_);
    spine_.push_back(node);
  }

  void EndElement() {
    XAOS_CHECK(spine_.size() > 1);
    spine_.pop_back();
  }

  // Advances past one text run (each run gets its own id).
  void Characters() { text_id_ = next_id_++; }

  // Advances past a skipped subtree (document projection): `node_ids` ids
  // and `elements` start-elements the subtree would have consumed, so ids
  // and ordinals downstream stay identical to a full parse.
  void SkipSubtree(uint64_t node_ids, uint64_t elements) {
    next_id_ += static_cast<ElementId>(node_ids);
    elements_total_ += elements;
  }

  // The innermost open element (or the virtual root).
  const Node& top() const { return spine_.back(); }
  // Depth of the spine including the virtual root (== top().level + 1).
  size_t depth() const { return spine_.size(); }

  // Position of the text run most recently announced via Characters(): a
  // child of the innermost open element.
  Node text_node() const {
    const Node& parent = spine_.back();
    return Node{text_id_, parent.id, parent.level + 1, parent.ordinal};
  }

  // Total start-elements seen this document.
  uint64_t elements_total() const { return elements_total_; }

 private:
  std::vector<Node> spine_;
  ElementId next_id_ = 1;
  ElementId text_id_ = 0;
  uint64_t elements_total_ = 0;
};

}  // namespace xaos::core

#endif  // XAOS_CORE_DOCUMENT_CURSOR_H_
