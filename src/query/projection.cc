#include "query/projection.h"

#include <algorithm>
#include <utility>

#include "query/xdag.h"
#include "xpath/ast.h"

namespace xaos::query {
namespace {

using Kind = NodeTestSpec::Kind;

// Level lattice: kUnset < fixed depth (>= 0) < kFloating. A node is fixed
// at L when every candidate sits at document depth exactly L (virtual root
// at 0, document element at 1); floating when the depth is unbounded.
constexpr int kFloating = -1;
constexpr int kUnset = -2;

util::Symbol SymbolFor(const NodeTestSpec& test) {
  if (test.name_symbol != util::kInvalidSymbol) return test.name_symbol;
  return util::SymbolTable::Global().Intern(test.name);
}

void AddSeed(std::vector<util::Symbol>* seeds, util::Symbol s) {
  if (std::find(seeds->begin(), seeds->end(), s) == seeds->end()) {
    seeds->push_back(s);
  }
}

}  // namespace

ProjectionSpec ProjectionSpec::KeepAll(std::string reason) {
  ProjectionSpec spec;
  spec.keep_all = true;
  spec.keep_all_reason = std::move(reason);
  return spec;
}

ProjectionSpec ProjectionSpec::Analyze(const XTree& tree) {
  const int n = tree.size();
  for (XNodeId id = 0; id < n; ++id) {
    const XNode& node = tree.node(id);
    if ((node.test.kind == Kind::kRoot) != (id == kRootXNode)) {
      // Re-rooted intersections move the virtual-root test around; their
      // depth semantics are not the plain rooted ones this analysis knows.
      return KeepAll("re-rooted tree");
    }
    if (id == kRootXNode) continue;
    switch (node.incoming_axis) {
      case xpath::Axis::kChild:
      case xpath::Axis::kDescendant:
      case xpath::Axis::kParent:
      case xpath::Axis::kAncestor:
      case xpath::Axis::kSelf:
      case xpath::Axis::kDescendantOrSelf:
      case xpath::Axis::kAncestorOrSelf:
      case xpath::Axis::kAttribute:
        break;
      default:
        // Sibling (and undesugared following/preceding) constraints reach
        // outside the matched element's own ancestor chain, and the engine
        // tracks them with a dense per-level stack that skipping would
        // starve.
        return KeepAll("sibling axes need the full sibling sequence");
    }
    if (node.test.kind != Kind::kElement &&
        node.test.kind != Kind::kAnyElement && !node.children.empty()) {
      return KeepAll("non-element x-node with children");
    }
  }

  XDag dag(tree);
  std::vector<int> level(static_cast<size_t>(n), kUnset);
  std::vector<bool> portal(static_cast<size_t>(n), false);
  level[kRootXNode] = 0;
  for (XNodeId id : dag.TopologicalOrder()) {
    if (id == kRootXNode) continue;
    int combined = kUnset;
    for (const XDagEdge& edge : dag.incoming(id)) {
      int from = level[static_cast<size_t>(edge.from)];
      int candidate = kFloating;
      switch (edge.axis) {
        case xpath::Axis::kChild:
        case xpath::Axis::kAttribute:
          candidate = (from >= 0) ? from + 1 : kFloating;
          break;
        case xpath::Axis::kSelf:
          candidate = from;
          break;
        case xpath::Axis::kDescendant:
        case xpath::Axis::kDescendantOrSelf:
          // Candidates live anywhere below `from`: when `from` is fixed it
          // becomes a portal (its whole subtree is kept); when floating,
          // its own portal already covers everything below.
          if (from >= 0) portal[static_cast<size_t>(edge.from)] = true;
          break;
        default:
          return KeepAll("unanalyzable x-dag edge");  // dag edges are forward
      }
      // Constraints conjoin, so one fixed edge pins the node; two fixed
      // edges must agree.
      if (candidate >= 0) {
        if (combined >= 0 && combined != candidate) {
          return KeepAll("contradictory depth constraints");
        }
        combined = candidate;
      } else if (combined == kUnset) {
        combined = kFloating;
      }
    }
    if (combined == kUnset) {
      return KeepAll("x-node without incoming x-dag edges");
    }
    if (combined == 0) {
      return KeepAll("non-root x-node constrained to the root level");
    }
    level[static_cast<size_t>(id)] = combined;
  }
  if (portal[kRootXNode]) {
    return KeepAll("unanchored '//' step keeps the whole document");
  }

  ProjectionSpec spec;
  size_t max_level = 0;
  for (XNodeId id = 1; id < n; ++id) {
    const Kind kind = tree.node(id).test.kind;
    if ((kind == Kind::kElement || kind == Kind::kAnyElement) &&
        level[static_cast<size_t>(id)] >= 1) {
      max_level =
          std::max(max_level, static_cast<size_t>(level[static_cast<size_t>(id)]));
    }
  }
  spec.levels.resize(max_level);

  for (XNodeId id = 1; id < n; ++id) {
    const XNode& node = tree.node(id);
    const int lvl = level[static_cast<size_t>(id)];
    const bool is_portal = portal[static_cast<size_t>(id)];
    switch (node.test.kind) {
      case Kind::kElement: {
        util::Symbol s = SymbolFor(node.test);
        if (lvl >= 1) {
          NameEntry& entry = spec.levels[static_cast<size_t>(lvl - 1)].names[s];
          entry.keep_subtree |= is_portal;
          if (lvl == 1) AddSeed(&spec.seed_symbols, s);
        }
        // Targets of anchored descendant steps start relevant matches too.
        for (const XDagEdge& edge : dag.incoming(id)) {
          if (edge.axis == xpath::Axis::kDescendant ||
              edge.axis == xpath::Axis::kDescendantOrSelf) {
            AddSeed(&spec.seed_symbols, s);
          }
        }
        break;
      }
      case Kind::kAnyElement:
        if (lvl >= 1) {
          Level& l = spec.levels[static_cast<size_t>(lvl - 1)];
          l.any_name = true;
          l.any_keep_subtree |= is_portal;
        }
        break;
      case Kind::kAttribute:
      case Kind::kAnyAttribute:
      case Kind::kText: {
        // Mark what the owning element needs. Only child/attribute edges
        // from a fixed element matter: floating owners sit inside a kept
        // subtree already, and anchored-descendant owners are portals.
        const bool wants_text = node.test.kind == Kind::kText;
        for (const XDagEdge& edge : dag.incoming(id)) {
          if (edge.axis != xpath::Axis::kChild &&
              edge.axis != xpath::Axis::kAttribute) {
            continue;
          }
          if (edge.from == kRootXNode) {
            return KeepAll("attribute or text test at the root");
          }
          const XNode& owner = tree.node(edge.from);
          const int owner_level = level[static_cast<size_t>(edge.from)];
          if (owner_level < 1) continue;
          Level& l = spec.levels[static_cast<size_t>(owner_level - 1)];
          if (owner.test.kind == Kind::kAnyElement) {
            (wants_text ? l.any_needs_text : l.any_needs_attributes) = true;
          } else if (owner.test.kind == Kind::kElement) {
            NameEntry& entry = l.names[SymbolFor(owner.test)];
            (wants_text ? entry.needs_text : entry.needs_attributes) = true;
          }
        }
        break;
      }
      case Kind::kRoot:
        break;  // excluded above
    }
  }
  return spec;
}

ProjectionSpec ProjectionSpec::Analyze(const std::vector<XTree>& trees) {
  ProjectionSpec spec;
  for (const XTree& tree : trees) {
    spec.UnionWith(Analyze(tree));
    if (spec.keep_all) break;
  }
  return spec;
}

void ProjectionSpec::UnionWith(const ProjectionSpec& other) {
  if (keep_all) return;
  if (other.keep_all) {
    keep_all = true;
    keep_all_reason = other.keep_all_reason;
    levels.clear();
    seed_symbols.clear();
    return;
  }
  if (other.levels.size() > levels.size()) levels.resize(other.levels.size());
  for (size_t d = 0; d < other.levels.size(); ++d) {
    const Level& src = other.levels[d];
    Level& dst = levels[d];
    dst.any_name |= src.any_name;
    dst.any_keep_subtree |= src.any_keep_subtree;
    dst.any_needs_text |= src.any_needs_text;
    dst.any_needs_attributes |= src.any_needs_attributes;
    for (const auto& [symbol, entry] : src.names) {
      NameEntry& merged = dst.names[symbol];
      merged.keep_subtree |= entry.keep_subtree;
      merged.needs_text |= entry.needs_text;
      merged.needs_attributes |= entry.needs_attributes;
    }
  }
  for (util::Symbol s : other.seed_symbols) AddSeed(&seed_symbols, s);
}

std::string ProjectionSpec::ToString() const {
  if (keep_all) return "keep-all (" + keep_all_reason + ")";
  std::string out = "levels=" + std::to_string(levels.size()) + " [";
  for (size_t d = 0; d < levels.size(); ++d) {
    if (d > 0) out += "; ";
    const Level& l = levels[d];
    bool first = true;
    if (l.any_name) {
      out += l.any_keep_subtree ? "*.." : "*";
      first = false;
    }
    // Deterministic order for logs and tests.
    std::vector<util::Symbol> symbols;
    symbols.reserve(l.names.size());
    for (const auto& [symbol, entry] : l.names) symbols.push_back(symbol);
    std::sort(symbols.begin(), symbols.end(),
              [](util::Symbol a, util::Symbol b) {
                return util::SymbolTable::Global().Name(a) <
                       util::SymbolTable::Global().Name(b);
              });
    for (util::Symbol s : symbols) {
      if (!first) out += ",";
      first = false;
      out += util::SymbolTable::Global().Name(s);
      if (l.names.at(s).keep_subtree) out += "..";
    }
  }
  out += "]";
  return out;
}

void ProjectionGate::SetSpec(ProjectionSpec spec) {
  spec_ = std::move(spec);
  keep_watermark_ = kNoWatermark;
}

bool ProjectionGate::ShouldSkipSubtree(const xml::QName& name,
                                       size_t open_depth) {
  if (spec_.keep_all) return false;
  if (keep_watermark_ != kNoWatermark) {
    if (open_depth > keep_watermark_) return false;  // inside a kept subtree
    keep_watermark_ = kNoWatermark;  // left it; re-evaluate at this tag
  }
  if (open_depth >= spec_.levels.size()) return true;
  const ProjectionSpec::Level& level = spec_.levels[open_depth];
  bool kept = false;
  bool keep_subtree = false;
  if (level.any_name) {
    kept = true;
    keep_subtree = level.any_keep_subtree;
  }
  if (!keep_subtree && !level.names.empty()) {
    // The parser hands over the symbol it resolved; names outside every
    // query's vocabulary resolve to kUnknownSymbol, which no level lists.
    const util::Symbol s = name.symbol != util::kInvalidSymbol
                               ? name.symbol
                               : util::SymbolTable::Global().Lookup(name.text);
    if (s != util::kInvalidSymbol) {
      auto it = level.names.find(s);
      if (it != level.names.end()) {
        kept = true;
        keep_subtree |= it->second.keep_subtree;
      }
    }
  }
  if (!kept) return true;
  if (keep_subtree) keep_watermark_ = open_depth;
  return false;
}

}  // namespace xaos::query
