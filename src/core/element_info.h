// Lightweight descriptors of document nodes retained by the engine.
//
// χαoς stores information only for the (few) document nodes that are
// relevant to the query (paper Section 6.1, Table 3), so these records are
// kept per matching-structure rather than per document node.

#ifndef XAOS_CORE_ELEMENT_INFO_H_
#define XAOS_CORE_ELEMENT_INFO_H_

#include <cstdint>
#include <string>

#include "query/xtree.h"

namespace xaos::core {

// Document-order ordinal of a node; the virtual root is 0. The paper's
// id(·) function (Section 2.1).
using ElementId = uint32_t;

// Document-position identity of one node, as a DocumentCursor assigns it:
// what an event source hands an engine along with the node itself. The
// attributes of an element take the ids right after it (attribute k of
// element `id` is `id + 1 + k`).
struct NodePosition {
  ElementId id = 0;         // this node's id (virtual root: 0)
  ElementId parent_id = 0;
  uint32_t level = 0;       // virtual root: 0, document element: 1
  uint32_t ordinal = 0;     // 1-based start-element ordinal; root: 0
};

struct ElementInfo {
  ElementId id = 0;
  // Event id of the parent node (0 for the virtual root itself).
  ElementId parent_id = 0;
  // Ordinal among *element* start events, in document order (the virtual
  // root is 0, the document element 1, ...). Matches the element ids the
  // paper uses in Figure 2, and is comparable across event sources that
  // differ in whether they surface attribute/text nodes. For attribute and
  // text nodes this is the owning element's ordinal.
  uint32_t ordinal = 0;
  int level = 0;                  // paper's level(·): virtual root is 0
  query::DocNodeKind kind = query::DocNodeKind::kElement;
  std::string name;               // element tag / attribute name; empty else
  std::string value;              // attribute value / text content

  // Debug rendering in the paper's style, e.g. "Y(2)@2".
  std::string ToString() const;
};

}  // namespace xaos::core

#endif  // XAOS_CORE_ELEMENT_INFO_H_
