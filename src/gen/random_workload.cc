#include "gen/random_workload.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "query/xtree.h"
#include "query/xtree_builder.h"
#include "util/check.h"
#include "xml/xml_writer.h"

namespace xaos::gen {
namespace {

using query::XNodeId;
using query::XTree;
using xpath::Axis;
using xpath::LocationPath;
using xpath::PredExpr;
using xpath::Step;

std::string Letter(uint64_t i, int alphabet) {
  return std::string(1, static_cast<char>('A' + i % static_cast<uint64_t>(
                                                       alphabet)));
}

// ---------------------------------------------------------------------------
// Random query generation
// ---------------------------------------------------------------------------

// Mutable query-shaped tree; converted to a LocationPath at the end.
struct GNode {
  Axis axis;
  std::string label;
  std::vector<std::unique_ptr<GNode>> kids;
  GNode* main_child = nullptr;  // continuation of the chain, if any
  bool has_parent_kid = false;
};

Axis PickAxis(const GNode& parent, const RandomQueryOptions& options,
              std::mt19937_64& rng) {
  // Weighted choice; descendant and child dominate as in typical queries.
  struct Option {
    Axis axis;
    int weight;
  };
  std::vector<Option> choices{{Axis::kChild, 30}, {Axis::kDescendant, 40}};
  if (options.allow_siblings) {
    choices.push_back({Axis::kFollowingSibling, 10});
    choices.push_back({Axis::kPrecedingSibling, 10});
  }
  if (options.allow_backward) {
    choices.push_back({Axis::kAncestor, 20});
    // A node reached through `child` has a fixed document parent, so a
    // parent-axis branch there is (almost always) unsatisfiable; skip it.
    if (parent.axis != Axis::kChild && !parent.has_parent_kid) {
      choices.push_back({Axis::kParent, 10});
    }
  }
  int total = 0;
  for (const Option& option : choices) total += option.weight;
  int pick = static_cast<int>(rng() % static_cast<uint64_t>(total));
  for (const Option& option : choices) {
    pick -= option.weight;
    if (pick < 0) return option.axis;
  }
  return Axis::kDescendant;
}

// Renders a GNode chain (node, node->main_child, ...) as a location path;
// non-main kids become predicates.
LocationPath RenderChain(const GNode* node, bool absolute) {
  LocationPath path;
  path.absolute = absolute;
  for (const GNode* current = node; current != nullptr;
       current = current->main_child) {
    Step step;
    step.axis = current->axis;
    step.test.kind = xpath::NodeTestKind::kName;
    step.test.name = current->label;
    for (const std::unique_ptr<GNode>& kid : current->kids) {
      if (kid.get() == current->main_child) continue;
      PredExpr pred;
      pred.kind = PredExpr::Kind::kPath;
      pred.path = RenderChain(kid.get(), /*absolute=*/false);
      step.predicates.push_back(std::move(pred));
    }
    path.steps.push_back(std::move(step));
  }
  return path;
}

}  // namespace

LocationPath GenerateRandomPath(const RandomQueryOptions& options,
                                std::mt19937_64& rng) {
  XAOS_CHECK_GE(options.node_tests, 1);
  auto root = std::make_unique<GNode>();
  root->axis = Axis::kDescendant;  // queries anchor anywhere
  root->label = Letter(rng(), options.alphabet);

  std::vector<GNode*> all_nodes{root.get()};
  int remaining = options.node_tests - 1;

  // Main chain: one to three more steps.
  GNode* tail = root.get();
  int chain_extra =
      remaining == 0 ? 0 : 1 + static_cast<int>(rng() % 3);
  chain_extra = std::min(chain_extra, remaining);
  for (int i = 0; i < chain_extra; ++i) {
    auto next = std::make_unique<GNode>();
    next->axis = PickAxis(*tail, options, rng);
    next->label = Letter(rng(), options.alphabet);
    if (next->axis == Axis::kParent) tail->has_parent_kid = true;
    GNode* raw = next.get();
    tail->kids.push_back(std::move(next));
    tail->main_child = raw;
    all_nodes.push_back(raw);
    tail = raw;
  }
  remaining -= chain_extra;

  // Remaining node tests become branching predicates attached to random
  // existing nodes, occasionally extended into two-step predicate chains.
  while (remaining > 0) {
    GNode* attach = all_nodes[rng() % all_nodes.size()];
    auto kid = std::make_unique<GNode>();
    kid->axis = PickAxis(*attach, options, rng);
    kid->label = Letter(rng(), options.alphabet);
    if (kid->axis == Axis::kParent) attach->has_parent_kid = true;
    GNode* raw = kid.get();
    attach->kids.push_back(std::move(kid));
    all_nodes.push_back(raw);
    --remaining;
    if (remaining > 0 && rng() % 2 == 0) {
      auto sub = std::make_unique<GNode>();
      sub->axis = PickAxis(*raw, options, rng);
      sub->label = Letter(rng(), options.alphabet);
      if (sub->axis == Axis::kParent) raw->has_parent_kid = true;
      GNode* sub_raw = sub.get();
      raw->kids.push_back(std::move(sub));
      raw->main_child = sub_raw;
      all_nodes.push_back(sub_raw);
      --remaining;
    }
  }
  return RenderChain(root.get(), /*absolute=*/true);
}

namespace {

// ---------------------------------------------------------------------------
// Document generation: embed instantiations of the query's x-tree
// ---------------------------------------------------------------------------

struct FragNode {
  std::string tag;
  std::vector<std::unique_ptr<FragNode>> children;
};

size_t CountElements(const FragNode& node) {
  size_t total = 1;
  for (const auto& child : node.children) total += CountElements(*child);
  return total;
}

// A fragment that must be placed as an ancestor of the payload built so far.
struct Wrapper {
  std::unique_ptr<FragNode> top;
  FragNode* attach;  // payload goes below this node
  bool direct;       // payload must be a direct child (parent axis)
};

struct Frag {
  std::unique_ptr<FragNode> top;
  FragNode* vnode;  // the node corresponding to the x-node itself
  // Fragments that must be placed as siblings of `top` under its parent.
  std::vector<std::unique_ptr<FragNode>> siblings_before;
  std::vector<std::unique_ptr<FragNode>> siblings_after;
};

class FragmentBuilder {
 public:
  FragmentBuilder(const XTree& tree, const RandomDocOptions& options,
                  std::mt19937_64& rng, XNodeId mutate_target)
      : tree_(tree),
        options_(options),
        rng_(rng),
        mutate_target_(mutate_target) {}

  // Builds a document fragment containing one instantiation of the x-tree
  // (rooted below the virtual root).
  std::unique_ptr<FragNode> Build() {
    std::vector<Wrapper> wrappers;
    // Generated trees have exactly one child below Root; tolerate more by
    // nesting their fragments.
    std::unique_ptr<FragNode> result;
    FragNode* result_attach = nullptr;
    for (XNodeId kid : tree_.node(query::kRootXNode).children) {
      Frag frag = BuildFrag(kid, &wrappers);
      if (!frag.siblings_before.empty() || !frag.siblings_after.empty()) {
        // Wrap in a noise node so the sibling requirements can be met.
        auto wrapper = std::make_unique<FragNode>();
        wrapper->tag = Letter(rng_(), options_.alphabet);
        AttachWithSiblings(wrapper.get(), &frag);
        frag.top = std::move(wrapper);
        frag.vnode = nullptr;
      }
      if (result == nullptr) {
        result = std::move(frag.top);
        result_attach = result.get();
      } else {
        result_attach->children.push_back(std::move(frag.top));
      }
    }
    // Fold the ancestor wrappers around the payload.
    for (Wrapper& wrapper : wrappers) {
      FragNode* attach = wrapper.attach;
      if (!wrapper.direct) {
        attach = MaybePad(attach);
      }
      attach->children.push_back(std::move(result));
      result = std::move(wrapper.top);
    }
    return result;
  }

 private:
  std::string ConcreteLabel(XNodeId v) {
    const query::NodeTestSpec& spec = tree_.node(v).test;
    std::string label = spec.kind == query::NodeTestSpec::Kind::kElement
                            ? spec.name
                            : Letter(rng_(), options_.alphabet);
    if (v == mutate_target_) {
      // Near miss: shift the label to a different letter.
      char c = label.empty() ? 'A' : label[0];
      label = std::string(
          1, static_cast<char>('A' + (c - 'A' + 1) % options_.alphabet));
    }
    return label;
  }

  // Places `sub` under `parent` with its required siblings around it.
  static void AttachWithSiblings(FragNode* parent, Frag* sub) {
    for (auto& node : sub->siblings_before) {
      parent->children.push_back(std::move(node));
    }
    parent->children.push_back(std::move(sub->top));
    for (auto& node : sub->siblings_after) {
      parent->children.push_back(std::move(node));
    }
  }

  // Adds 0-2 noise elements below `node` and returns the deepest one.
  FragNode* MaybePad(FragNode* node) {
    int pad = static_cast<int>(rng_() % 3);
    for (int i = 0; i < pad; ++i) {
      auto filler = std::make_unique<FragNode>();
      filler->tag = Letter(rng_(), options_.alphabet);
      FragNode* raw = filler.get();
      node->children.push_back(std::move(filler));
      node = raw;
    }
    return node;
  }

  Frag BuildFrag(XNodeId v, std::vector<Wrapper>* wrappers) {
    auto node = std::make_unique<FragNode>();
    node->tag = ConcreteLabel(v);
    Frag frag;
    frag.vnode = node.get();
    frag.top = std::move(node);

    for (XNodeId w : tree_.node(v).children) {
      Axis axis = tree_.node(w).incoming_axis;
      switch (axis) {
        case Axis::kChild:
        case Axis::kSelf: {  // self shares the element; approximate by child
          Frag sub = BuildFrag(w, wrappers);
          XAOS_CHECK(sub.top.get() == sub.vnode)
              << "parent-axis branch below a child edge";
          AttachWithSiblings(frag.vnode, &sub);
          break;
        }
        case Axis::kDescendant:
        case Axis::kDescendantOrSelf: {
          Frag sub = BuildFrag(w, wrappers);
          FragNode* attach = MaybePad(frag.vnode);
          AttachWithSiblings(attach, &sub);
          break;
        }
        case Axis::kParent: {
          // w's element becomes the direct parent of v's element.
          Frag sub = BuildFrag(w, wrappers);
          sub.vnode->children.push_back(std::move(frag.top));
          frag.top = std::move(sub.top);
          break;
        }
        case Axis::kAncestor:
        case Axis::kAncestorOrSelf: {
          std::vector<Wrapper> inner;
          Frag sub = BuildFrag(w, &inner);
          // w (and anything wrapping it) must end up above v. Record it; the
          // top-level fold nests all wrappers around the payload.
          Wrapper wrapper;
          wrapper.attach = sub.vnode;
          wrapper.top = std::move(sub.top);
          wrapper.direct = false;
          wrappers->push_back(std::move(wrapper));
          for (Wrapper& w2 : inner) wrappers->push_back(std::move(w2));
          break;
        }
        case Axis::kFollowingSibling: {
          Frag sub = BuildFrag(w, wrappers);
          frag.siblings_after.push_back(std::move(sub.top));
          MoveSiblings(&sub, &frag);
          break;
        }
        case Axis::kPrecedingSibling: {
          Frag sub = BuildFrag(w, wrappers);
          frag.siblings_before.push_back(std::move(sub.top));
          MoveSiblings(&sub, &frag);
          break;
        }
        case Axis::kAttribute:
          // Not produced by the generator; ignore defensively.
          break;
        case Axis::kFollowing:
        case Axis::kPreceding:
          // The x-tree builder rewrites these into sibling and
          // ancestor/descendant steps; a witness cannot place them.
          XAOS_CHECK(false) << "desugared axis";
          break;
      }
    }
    return frag;
  }

  // Hoists a child fragment's sibling requirements into the enclosing
  // fragment (siblings of a nested node are also placed under the same
  // parent as the node itself only when the node is attached as a sibling;
  // for child/descendant attachment the nested siblings were already placed
  // next to the nested node inside the parent's children list).
  static void MoveSiblings(Frag* from, Frag* into) {
    for (auto& node : from->siblings_before) {
      into->siblings_before.push_back(std::move(node));
    }
    for (auto& node : from->siblings_after) {
      into->siblings_after.push_back(std::move(node));
    }
  }

  const XTree& tree_;
  const RandomDocOptions& options_;
  std::mt19937_64& rng_;
  XNodeId mutate_target_;
};

void EmitFragment(xml::XmlWriter* writer, const FragNode& node) {
  writer->StartElement(node.tag);
  for (const auto& child : node.children) {
    EmitFragment(writer, *child);
  }
  writer->EndElement();
}

}  // namespace

StatusOr<std::string> GenerateDocumentForPath(const LocationPath& path,
                                              const RandomDocOptions& options,
                                              std::mt19937_64& rng) {
  XAOS_ASSIGN_OR_RETURN(XTree tree, query::BuildXTree(path));

  std::string out;
  out.reserve(options.target_elements * 8);
  xml::XmlWriter writer(&out, /*indent=*/0);
  writer.StartElement("doc");
  size_t elements = 1;
  int depth = 1;

  auto chance = [&rng](double p) {
    return std::uniform_real_distribution<double>(0.0, 1.0)(rng) < p;
  };

  while (elements < options.target_elements) {
    if (chance(options.full_embed_probability)) {
      FragmentBuilder builder(tree, options, rng, query::kInvalidXNode);
      std::unique_ptr<FragNode> frag = builder.Build();
      elements += CountElements(*frag);
      EmitFragment(&writer, *frag);
    } else if (chance(options.partial_embed_probability)) {
      XNodeId target =
          1 + static_cast<XNodeId>(rng() %
                                   static_cast<uint64_t>(tree.size() - 1));
      FragmentBuilder builder(tree, options, rng, target);
      std::unique_ptr<FragNode> frag = builder.Build();
      elements += CountElements(*frag);
      EmitFragment(&writer, *frag);
    } else if (depth < options.max_noise_depth && chance(0.55)) {
      writer.StartElement(Letter(rng(), options.alphabet));
      ++depth;
      ++elements;
    } else if (depth > 1) {
      writer.EndElement();
      --depth;
    } else {
      writer.StartElement(Letter(rng(), options.alphabet));
      ++depth;
      ++elements;
    }
  }
  while (depth-- > 0) writer.EndElement();
  return out;
}

StatusOr<RandomWorkload> GenerateWorkload(
    const RandomQueryOptions& query_options,
    const RandomDocOptions& doc_options, uint64_t seed) {
  std::mt19937_64 rng(seed);
  RandomWorkload workload;
  workload.path = GenerateRandomPath(query_options, rng);
  workload.expression = xpath::ToString(workload.path);
  XAOS_ASSIGN_OR_RETURN(
      workload.document,
      GenerateDocumentForPath(workload.path, doc_options, rng));
  return workload;
}

}  // namespace xaos::gen
