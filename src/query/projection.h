// Static document projection: which parts of a document can a compiled
// query possibly touch?
//
// Type-based projection (Benzaken et al., PAPERS.md) prunes a document down
// to the regions a query can inspect before evaluating it. This header
// derives the streaming analogue from the x-dag, without a schema: a
// ProjectionSpec lists, per element depth, the element names that may start
// a relevant match along a rooted (fixed-depth) prefix of the query, plus
// which of them must keep their entire subtree because a descendant step
// ("//") is anchored there. An element whose (depth, name) the spec does
// not mention — and that is not below a kept subtree — provably cannot
// contribute a node to any match, so the parser may skip its whole subtree
// (xml/skip_scanner.h).
//
// Soundness over precision: every construct the analysis cannot bound —
// wildcards anchored at "//", sibling axes, re-rooted trees, contradictory
// depth constraints — degrades to "keep everything", so projection never
// changes results, only cost. The levels are sound because an x-node fixed
// at depth L is constrained level-by-level back to the virtual root: each
// candidate's ancestor chain threads exclusively through kept entries, so
// no ancestor of a relevant node is ever skipped.

#ifndef XAOS_QUERY_PROJECTION_H_
#define XAOS_QUERY_PROJECTION_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "query/xtree.h"
#include "util/symbol_table.h"
#include "xml/skip_scanner.h"

namespace xaos::query {

// The relevance table for one query (or the union across subscriptions).
struct ProjectionSpec {
  // What a kept element name at a given depth needs from the parser.
  // keep_subtree: a descendant step is anchored here, so the whole subtree
  // stays. needs_text / needs_attributes: a text()/attribute test applies
  // directly to this element (conservative; advisory for finer-grained
  // skipping — subtree-level skipping keeps both regardless).
  struct NameEntry {
    bool keep_subtree = false;
    bool needs_text = false;
    bool needs_attributes = false;
  };

  // Elements allowed at one open-element depth (the document element is at
  // depth 0). `any_name` covers wildcard steps fixed at this depth.
  struct Level {
    bool any_name = false;
    bool any_keep_subtree = false;
    bool any_needs_text = false;
    bool any_needs_attributes = false;
    std::unordered_map<util::Symbol, NameEntry> names;
  };

  // When set, the analysis could not bound the query; nothing is skipped.
  bool keep_all = false;
  std::string keep_all_reason;

  // levels[d] constrains elements at open depth d. Depths beyond the table
  // are irrelevant unless inside a kept subtree. An empty table (zero
  // queries) keeps nothing.
  std::vector<Level> levels;

  // Element names that can start a relevant match (rooted level-1 names and
  // targets of anchored descendant steps). Informational.
  std::vector<util::Symbol> seed_symbols;

  static ProjectionSpec KeepAll(std::string reason);
  // Analyzes one x-tree / the union over a query's disjunct trees.
  static ProjectionSpec Analyze(const XTree& tree);
  static ProjectionSpec Analyze(const std::vector<XTree>& trees);

  // Widens this spec to also cover everything `other` covers.
  void UnionWith(const ProjectionSpec& other);

  // Compact rendering for logs/--explain, e.g.
  // "keep-all (unanchored '//' step)" or "levels=3 [site; catgraph; edge]".
  std::string ToString() const;
};

// ProjectionFilter over a ProjectionSpec, installable via
// xml::ParserOptions::projection_filter. Tracks one piece of state: the
// depth of the shallowest open kept-subtree ("watermark"), below which
// nothing is skipped. The watermark needs no end-tag notification: leaving
// the subtree is only observable at the next start tag at or above the
// watermark depth, which re-evaluates and replaces it. The parser resets it
// at every document start (xml::ProjectionFilter::StartDocument).
class ProjectionGate : public xml::ProjectionFilter {
 public:
  ProjectionGate() = default;

  void SetSpec(ProjectionSpec spec);
  const ProjectionSpec& spec() const { return spec_; }

  void StartDocument() override { keep_watermark_ = kNoWatermark; }

  bool ShouldSkipSubtree(const xml::QName& name, size_t open_depth) override;

 private:
  static constexpr size_t kNoWatermark = static_cast<size_t>(-1);

  ProjectionSpec spec_;
  size_t keep_watermark_ = kNoWatermark;
};

}  // namespace xaos::query

#endif  // XAOS_QUERY_PROJECTION_H_
