// Regression test for the paper's full worked example: the query of
// Figure 3 evaluated over the document of Figure 2, following the Table 2
// walkthrough — looking-for sets at key steps, the final solution
// {W(7), W(8)}, and the four total matchings of Figure 4.

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/xaos_engine.h"
#include "gtest/gtest.h"
#include "query/xdag.h"
#include "query/xtree_builder.h"
#include "test_util.h"
#include "xml/sax_event.h"
#include "xml/sax_parser.h"

namespace xaos {
namespace {

using core::LookingForEntry;
using core::XaosEngine;

// Renders a looking-for set as sorted "label" / "label@level" strings.
std::vector<std::string> Render(const std::vector<LookingForEntry>& entries) {
  std::vector<std::string> out;
  for (const LookingForEntry& entry : entries) {
    std::string s = entry.label;
    if (entry.level != LookingForEntry::kAnyLevel) {
      s += "@" + std::to_string(entry.level);
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Drives the engine event by event, capturing the looking-for set after
// each event, exactly like Table 2's rightmost column.
class WalkthroughDriver {
 public:
  explicit WalkthroughDriver(XaosEngine* engine) : engine_(engine) {}

  void Run(std::string_view xml) {
    xml::EventRecorder recorder;
    ASSERT_TRUE(xml::ParseString(xml, &recorder).ok());
    for (const xml::Event& event : recorder.events()) {
      xml::ReplayEvents({event}, engine_);
      if (event.kind == xml::Event::Kind::kStartElement ||
          event.kind == xml::Event::Kind::kEndElement) {
        looking_for_after_.push_back(Render(engine_->DebugLookingForSet()));
      }
    }
  }

  // Looking-for set after the i-th element event (0-based; element events
  // only, matching Table 2 rows 2..27).
  const std::vector<std::string>& After(int i) const {
    return looking_for_after_[static_cast<size_t>(i)];
  }

 private:
  XaosEngine* engine_;
  std::vector<std::vector<std::string>> looking_for_after_;
};

class WalkthroughTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto trees = query::CompileToXTrees(test::kFigure3Query);
    ASSERT_TRUE(trees.ok()) << trees.status();
    ASSERT_EQ(trees->size(), 1u);
    tree_ = std::move(trees->front());
  }

  query::XTree tree_;
};

TEST_F(WalkthroughTest, XTreeMatchesFigure3a) {
  EXPECT_EQ(tree_.ToString(),
            "Root(Y<desc>(U<child>, W<desc>[out](Z<anc>(V<child>))))");
}

TEST_F(WalkthroughTest, XDagMatchesFigure3b) {
  query::XDag dag(tree_);
  // Edges: Root-desc->Y, Root-desc->Z (rule 3 on the reversed ancestor
  // edge's source... Z gets its incoming from rule 3), Y-child->U,
  // Y-desc->W, Z-desc->W (reversed ancestor), Z-child->V.
  std::string rendered = dag.ToString();
  EXPECT_NE(rendered.find("Root-descendant->Y"), std::string::npos);
  EXPECT_NE(rendered.find("Root-descendant->Z"), std::string::npos);
  EXPECT_NE(rendered.find("Y-child->U"), std::string::npos);
  EXPECT_NE(rendered.find("Y-descendant->W"), std::string::npos);
  EXPECT_NE(rendered.find("Z-descendant->W"), std::string::npos);
  EXPECT_NE(rendered.find("Z-child->V"), std::string::npos);
  // W has two incoming x-dag edges (the join point of Section 4).
  query::XNodeId w = query::kInvalidXNode;
  for (query::XNodeId v = 0; v < tree_.size(); ++v) {
    if (tree_.node(v).test.Label() == "W") w = v;
  }
  ASSERT_NE(w, query::kInvalidXNode);
  EXPECT_EQ(dag.incoming(w).size(), 2u);
}

TEST_F(WalkthroughTest, SolutionIsW7AndW8) {
  XaosEngine engine(&tree_);
  ASSERT_TRUE(xml::ParseString(test::kFigure2Document, &engine).ok());
  EXPECT_TRUE(engine.Matched());
  std::vector<uint32_t> ordinals;
  for (const core::OutputItem& item : engine.result().items) {
    ordinals.push_back(item.info.ordinal);
    EXPECT_EQ(item.info.name, "W");
  }
  EXPECT_EQ(ordinals, (std::vector<uint32_t>{7, 8}));
}

TEST_F(WalkthroughTest, Figure4TotalMatchings) {
  XaosEngine engine(&tree_);
  ASSERT_TRUE(xml::ParseString(test::kFigure2Document, &engine).ok());
  core::TupleEnumeration tuples = engine.OutputTuples();
  EXPECT_TRUE(tuples.complete);
  // Figure 4 lists four total matchings at Root; projected on the single
  // output node W they give W7 (x2) and W8 (x2) -> two distinct tuples.
  std::set<uint32_t> outputs;
  for (const core::OutputTuple& tuple : tuples.tuples) {
    ASSERT_EQ(tuple.size(), 1u);
    outputs.insert(tuple[0].ordinal);
  }
  EXPECT_EQ(outputs, (std::set<uint32_t>{7, 8}));
}

TEST_F(WalkthroughTest, LookingForSetsFollowTable2) {
  XaosEngine engine(&tree_);

  // Before the document: {(Root, 0)}.
  EXPECT_EQ(Render(engine.DebugLookingForSet()),
            (std::vector<std::string>{"Root@0"}));

  WalkthroughDriver driver(&engine);
  driver.Run(test::kFigure2Document);

  // Element events, in Table 2's order (the paper's step numbers shifted by
  // one because its step 1 is the virtual root event):
  //  index: 0 S:X1, 1 S:Y2, 2 S:W3, 3 E:W3, 4 S:Z4, 5 S:V5, 6 E:V5,
  //  7 S:V6, 8 E:V6, 9 S:W7, 10 S:W8, 11 E:W8, 12 E:W7, 13 E:Z4,
  //  14 S:U9, 15 E:U9, 16 E:Y2, 17 S:Y10, 18 S:Z11, 19 S:W12, 20 E:W12,
  //  21 E:Z11, 22 S:U13, 23 E:U13, 24 E:Y10, 25 E:X1.

  using V = std::vector<std::string>;
  // Step 2: after S:X1 — {(Y,inf), (Z,inf)}.
  EXPECT_EQ(driver.After(0), (V{"Y", "Z"}));
  // Step 3: after S:Y2 — {(Y,inf), (Z,inf), (U,3)}.
  EXPECT_EQ(driver.After(1), (V{"U@3", "Y", "Z"}));
  // Step 4: after S:W3 — U dropped while level > 3.
  EXPECT_EQ(driver.After(2), (V{"Y", "Z"}));
  // Step 5: after E:W3 — (U,3) returns.
  EXPECT_EQ(driver.After(3), (V{"U@3", "Y", "Z"}));
  // Step 6: after S:Z4 — {(Y,inf), (Z,inf), (W,inf), (V,4)}.
  EXPECT_EQ(driver.After(4), (V{"V@4", "W", "Y", "Z"}));
  // Step 7: after S:V5.
  EXPECT_EQ(driver.After(5), (V{"W", "Y", "Z"}));
  // Step 8: after E:V5.
  EXPECT_EQ(driver.After(6), (V{"V@4", "W", "Y", "Z"}));
  // Steps 11-12: inside W7 then W8 — still looking for W (recursion!).
  EXPECT_EQ(driver.After(9), (V{"W", "Y", "Z"}));
  EXPECT_EQ(driver.After(10), (V{"W", "Y", "Z"}));
  // Step 14: after E:W7.
  EXPECT_EQ(driver.After(12), (V{"V@4", "W", "Y", "Z"}));
  // Step 15: after E:Z4 — back to {(Y,inf),(Z,inf),(U,3)}.
  EXPECT_EQ(driver.After(13), (V{"U@3", "Y", "Z"}));
  // Step 18: after E:Y2.
  EXPECT_EQ(driver.After(16), (V{"Y", "Z"}));
  // Step 19: after S:Y10.
  EXPECT_EQ(driver.After(17), (V{"U@3", "Y", "Z"}));
  // Step 20: after S:Z11.
  EXPECT_EQ(driver.After(18), (V{"V@4", "W", "Y", "Z"}));
  // Step 23: after E:Z11 — undo happened; back to {(Y,inf),(Z,inf),(U,3)}.
  EXPECT_EQ(driver.After(21), (V{"U@3", "Y", "Z"}));
  // Step 27: after E:X1.
  EXPECT_EQ(driver.After(25), (V{"Y", "Z"}));

  // After the document: {(Root, 0)} again.
  EXPECT_EQ(Render(engine.DebugLookingForSet()),
            (std::vector<std::string>{"Root@0"}));
}

TEST_F(WalkthroughTest, UndoHappensAtStep23) {
  // The second Y subtree (Y10) contains Z11/W12 but no V: M(Z,11) is
  // optimistically adopted by M(W,12) at E:W12 and undone at E:Z11.
  XaosEngine engine(&tree_);
  ASSERT_TRUE(xml::ParseString(test::kFigure2Document, &engine).ok());
  EXPECT_GT(engine.stats().structures_undone, 0u);
  EXPECT_GT(engine.stats().optimistic_propagations, 0u);
}

}  // namespace
}  // namespace xaos
