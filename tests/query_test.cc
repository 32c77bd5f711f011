// Query-compilation tests: x-tree construction (Appendix A), x-dag
// derivation (Section 3.2), or-expansion (Section 5.2), re-rooting and
// intersection (Section 5.4).

#include <chrono>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "query/normalizer.h"
#include "query/reroot.h"
#include "query/xdag.h"
#include "query/xtree.h"
#include "query/xtree_builder.h"
#include "xpath/parser.h"

namespace xaos::query {
namespace {

XTree Build(std::string_view expr) {
  auto trees = CompileToXTrees(expr);
  EXPECT_TRUE(trees.ok()) << trees.status();
  EXPECT_EQ(trees->size(), 1u);
  return std::move(trees->front());
}

TEST(XTreeBuilderTest, SimpleChain) {
  EXPECT_EQ(Build("/a/b/c").ToString(),
            "Root(a<child>(b<child>(c<child>[out])))");
}

TEST(XTreeBuilderTest, PredicatesBranch) {
  EXPECT_EQ(Build("//a[b and c]/d").ToString(),
            "Root(a<desc>(b<child>, c<child>, d<child>[out]))");
}

TEST(XTreeBuilderTest, NestedPredicates) {
  EXPECT_EQ(Build("//a[b[c]]").ToString(),
            "Root(a<desc>[out](b<child>(c<child>)))");
}

TEST(XTreeBuilderTest, AbsolutePredicateAnchorsAtRoot) {
  EXPECT_EQ(Build("//a[/b]").ToString(),
            "Root(a<desc>[out], b<child>)");
}

TEST(XTreeBuilderTest, PaperFigure3) {
  EXPECT_EQ(
      Build("/descendant::Y[child::U]/descendant::W[ancestor::Z/child::V]")
          .ToString(),
      "Root(Y<desc>(U<child>, W<desc>[out](Z<anc>(V<child>))))");
}

TEST(XTreeBuilderTest, OutputIsRightmostMainPathNode) {
  XTree tree = Build("//a[b]/c[d]");
  std::vector<XNodeId> outputs = tree.OutputNodes();
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(tree.node(outputs[0]).test.Label(), "c");
}

TEST(XTreeBuilderTest, ExplicitOutputMarkers) {
  XTree tree = Build("//$a/$b/c");
  std::vector<XNodeId> outputs = tree.OutputNodes();
  ASSERT_EQ(outputs.size(), 2u);
  EXPECT_EQ(tree.node(outputs[0]).test.Label(), "a");
  EXPECT_EQ(tree.node(outputs[1]).test.Label(), "b");
}

TEST(XTreeBuilderTest, AttributeAndTextLeaves) {
  EXPECT_EQ(Build("//a/@id").ToString(),
            "Root(a<desc>(@id<attr>[out]))");
  EXPECT_EQ(Build("//a[@id='x']").ToString(),
            "Root(a<desc>[out](@id='x'<attr>))");
  EXPECT_EQ(Build("//a[text()='t']").ToString(),
            "Root(a<desc>[out](#text='t'<child>))");
}

TEST(XTreeBuilderTest, RejectsStepsBelowLeaves) {
  EXPECT_FALSE(CompileToXTrees("//a/@id/b").ok());
  EXPECT_FALSE(CompileToXTrees("//a/text()/b").ok());
  EXPECT_FALSE(CompileToXTrees("//a/@id[b]").ok());
}

TEST(XTreeBuilderTest, RejectsRootOnlyExpression) {
  EXPECT_FALSE(CompileToXTrees("/").ok());
}

TEST(XTreeBuilderTest, HasBackwardEdges) {
  EXPECT_TRUE(Build("//a/ancestor::b").HasBackwardEdges());
  EXPECT_FALSE(Build("//a/b").HasBackwardEdges());
}

TEST(XDagTest, ForwardEdgesKept) {
  XTree tree = Build("/a/b//c");
  XDag dag(tree);
  EXPECT_EQ(dag.ToString(), "Root-child->a, a-child->b, b-descendant->c");
}

TEST(XDagTest, BackwardEdgesReversed) {
  XTree tree = Build("//w/ancestor::z/parent::p");
  XDag dag(tree);
  std::string rendered = dag.ToString();
  // ancestor edge w->z reversed to z-descendant->w; parent edge z->p
  // reversed to p-child->z; z and p get Root descendant edges (rule 3).
  EXPECT_NE(rendered.find("z-descendant->w"), std::string::npos);
  EXPECT_NE(rendered.find("p-child->z"), std::string::npos);
  EXPECT_NE(rendered.find("Root-descendant->p"), std::string::npos);
}

TEST(XDagTest, TopologicalOrderRespectsEdges) {
  XTree tree = Build(
      "/descendant::Y[child::U]/descendant::W[ancestor::Z/child::V]");
  XDag dag(tree);
  for (XNodeId v = 0; v < tree.size(); ++v) {
    for (const XDagEdge& edge : dag.incoming(v)) {
      EXPECT_LT(dag.TopologicalRank(edge.from), dag.TopologicalRank(edge.to));
    }
  }
  EXPECT_EQ(dag.TopologicalOrder().front(), kRootXNode);
}

TEST(NormalizerTest, NoOrsIsIdentity) {
  auto parsed = xpath::ParseExpression("//a[b]/c");
  ASSERT_TRUE(parsed.ok());
  auto paths = ExpandOrs(*parsed);
  ASSERT_TRUE(paths.ok());
  EXPECT_EQ(paths->size(), 1u);
}

TEST(NormalizerTest, SimpleOrSplits) {
  auto parsed = xpath::ParseExpression("//a[b or c]");
  ASSERT_TRUE(parsed.ok());
  auto paths = ExpandOrs(*parsed);
  ASSERT_TRUE(paths.ok());
  ASSERT_EQ(paths->size(), 2u);
  EXPECT_EQ(xpath::ToString((*paths)[0]), "/descendant::a[child::b]");
  EXPECT_EQ(xpath::ToString((*paths)[1]), "/descendant::a[child::c]");
}

TEST(NormalizerTest, DistributesOverAnd) {
  auto parsed = xpath::ParseExpression("//a[(b or c) and (d or e)]");
  ASSERT_TRUE(parsed.ok());
  auto paths = ExpandOrs(*parsed);
  ASSERT_TRUE(paths.ok());
  EXPECT_EQ(paths->size(), 4u);
}

TEST(NormalizerTest, UnionBranchesCount) {
  auto parsed = xpath::ParseExpression("//a[b or c] | //d");
  ASSERT_TRUE(parsed.ok());
  auto paths = ExpandOrs(*parsed);
  ASSERT_TRUE(paths.ok());
  EXPECT_EQ(paths->size(), 3u);
}

TEST(NormalizerTest, LimitEnforced) {
  auto parsed = xpath::ParseExpression("//a[(b or c) and (d or e)]");
  ASSERT_TRUE(parsed.ok());
  auto paths = ExpandOrs(*parsed, /*max_paths=*/3);
  EXPECT_FALSE(paths.ok());
  EXPECT_EQ(paths.status().code(), StatusCode::kResourceExhausted);
}

// The limit holds while the expansion runs: `//a` with 40 `[b or c]`
// predicates would expand to 2^40 paths, and is rejected as soon as an
// intermediate list passes the limit, well inside a second.
TEST(NormalizerTest, LimitEnforcedAsTheExpansionRuns) {
  std::string expression = "//a";
  for (int k = 0; k < 40; ++k) expression += "[b or c]";
  const auto start = std::chrono::steady_clock::now();
  auto trees = CompileToXTrees(expression);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(trees.ok());
  EXPECT_EQ(trees.status().code(), StatusCode::kResourceExhausted);
  EXPECT_LT(elapsed, std::chrono::seconds(1));
  // Six predicates expand to exactly 64 paths, the default limit.
  expression = "//a";
  for (int k = 0; k < 6; ++k) expression += "[b or c]";
  trees = CompileToXTrees(expression);
  ASSERT_TRUE(trees.ok()) << trees.status();
  EXPECT_EQ(trees->size(), 64u);
  EXPECT_EQ(CompileToXTrees(expression + "[d or e]").status().code(),
            StatusCode::kResourceExhausted);
}

TEST(RerootTest, ChainInversion) {
  XTree tree = Build("/a/b/c");  // output c
  auto rerooted = Reroot(tree, tree.OutputNodes()[0]);
  ASSERT_TRUE(rerooted.ok()) << rerooted.status();
  // From c (which keeps its output mark): the old child edges invert to
  // parent edges all the way up to the old Root.
  EXPECT_EQ(rerooted->ToString(),
            "Root[out](b<parent>(a<parent>(#root<parent>)))");
}

TEST(RerootTest, PreservesBranches) {
  XTree tree = Build("//a[x]/b");  // output b; a has predicate branch x
  auto rerooted = Reroot(tree, tree.OutputNodes()[0]);
  ASSERT_TRUE(rerooted.ok());
  EXPECT_EQ(rerooted->ToString(),
            "Root[out](a<parent>(x<child>, #root<anc>))");
}

TEST(IntersectTest, PaperSection54Example) {
  // //Y[U]//W  ∩  //Z[V]//W  — the x-dag of Figure 3b read as an
  // intersection.
  XTree a = Build("//Y[U]//W");
  XTree b = Build("//Z[V]//W");
  auto merged = Intersect(a, b);
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_EQ(merged->ToString(),
            "Root(Y<desc>(U<child>, W<desc>[out](Z<anc>(V<child>, "
            "#root<anc>))))");
  ASSERT_EQ(merged->OutputNodes().size(), 1u);
}

TEST(IntersectTest, IncompatibleOutputsRejected) {
  XTree a = Build("//a//x");
  XTree b = Build("//b//y");
  EXPECT_FALSE(Intersect(a, b).ok());
}

TEST(IntersectTest, WildcardMergesToSpecific) {
  XTree a = Build("//a/*");
  XTree b = Build("//b/x");
  auto merged = Intersect(a, b);
  ASSERT_TRUE(merged.ok());
  XNodeId out = merged->OutputNodes()[0];
  EXPECT_EQ(merged->node(out).test.Label(), "x");
}

TEST(JoinTest, KeepsExtraMarks) {
  // //$a//$x ⋈ //$b//$x — merged at the shared main output x; the extra
  // $-marks a and b survive as additional tuple columns (Section 5.4's
  // //Y[$U]//$W ⋈_W //Z[$V]//$W example shape).
  XTree a = Build("//$a//$x");
  XTree b = Build("//$b//$x");
  auto joined = Join(a, b);
  ASSERT_TRUE(joined.ok()) << joined.status();
  EXPECT_EQ(joined->OutputNodes().size(), 3u);
}

}  // namespace
}  // namespace xaos::query
