// Pins the query compiler's observable output, recorded before the
// compiler stopped copying what it parses:
//
//   * compile_status.golden — the exact Status (code and message) of every
//     expression of the corpus below that fails to compile;
//   * compile_xtrees.golden — the ToString() of every x-tree
//     CompileToXTrees builds for each expression that compiles: the corpus,
//     the Zipf subscription templates of the route benchmarks, and 2,000
//     generated random paths.
//
// The corpus: the expressions of query_test and xpath_parser_test (valid
// and malformed), every prefix of each, and single-character mutations of
// each (a deletion, and two replacements drawn from the grammar's
// punctuation, per position). Or-limit rejections (kResourceExhausted) are
// left out of both files: their message is not part of the pinned surface.
//
// On a mismatch the full dump is written next to the test binary as
// compile_status.actual / compile_xtrees.actual.

#include <fstream>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench_random_workload.h"
#include "gen/random_workload.h"
#include "gtest/gtest.h"
#include "query/xtree_builder.h"
#include "xpath/ast.h"

namespace xaos {
namespace {

// The expressions query_test and xpath_parser_test compile or reject, and
// a few more disjunctions.
const char* const kSeeds[] = {
    // xpath_parser_test
    "/a//b[@c='x' and d]|*",
    "descendant-or-self::a",
    "/descendant::Y[child::U]/descendant::W[ancestor::Z/child::V]",
    "//Y[U]//W",
    "/descendant::Y[child::U]/descendant::W",
    "/a/b",
    "/child::a/child::b",
    "a//b",
    "child::a/descendant::b",
    "//x/..",
    "/descendant::x/parent::*",
    "//x/.",
    "/descendant::x/self::*",
    "//a/@id",
    "/descendant::a/attribute::id",
    "//a[@id='x']",
    "/descendant::a[attribute::id='x']",
    "//a[b and c]",
    "//a[b or c]",
    "//a[b and (c or d)]",
    "/descendant::a[child::b and (child::c or child::d)]",
    "//a[b][c]",
    "//a[/b/c]",
    "//a/ancestor::b/parent::c",
    "//a | //b | //c",
    "//$a/$b",
    "/child::$a",
    "//a[text()='x']",
    "//a/text()",
    "//a[b and c/d]//e[f]",
    "/and/or",
    "//a[and and or]",
    "a:b",
    "'unterminated",
    "a % b",
    "",
    "//a[",
    "//a]",
    "//a[]",
    "/a/",
    "//bogus::a",
    "//a=b",
    "//a[b=c]",
    "//a[b='x']",
    "//a[b",
    // query_test
    "/a/b/c",
    "//a[b and c]/d",
    "//a[b[c]]",
    "//a[/b]",
    "//a[b]/c[d]",
    "//$a/$b/c",
    "//a[text()='t']",
    "//a/@id/b",
    "//a/text()/b",
    "//a/@id[b]",
    "/",
    "//a/ancestor::b",
    "/a/b//c",
    "//w/ancestor::z/parent::p",
    "//a[b]/c",
    "//a[(b or c) and (d or e)]",
    "//a[b or c] | //d",
    "//a[x]/b",
    "//Z[V]//W",
    "//a//x",
    "//b//y",
    "//a/*",
    "//b/x",
    "//$a//$x",
    "//$b//$x",
    // Disjunctions nested in paths, predicates and union branches.
    "//a[(b or c)/d[e or f]]",
    "//a[b or c][d or e]/f[g or h]",
    "//a[b[c or d] and (e or f)] | //g[h or i]",
    "/a[b or (c and (d or e))]/$f",
    "//a[.//b[c or d] or e/@f='v']/ancestor::g[h or text()='t']",
};

// Replacement characters for the mutation sweep: the grammar's punctuation
// plus a name character and a space.
constexpr char kMutations[] = "/[]()@*$.|=':x \"";

std::vector<std::string> Corpus() {
  std::set<std::string> seen;
  std::vector<std::string> corpus;
  auto add = [&](std::string expression) {
    if (seen.insert(expression).second) corpus.push_back(std::move(expression));
  };
  constexpr size_t kChoices = sizeof(kMutations) - 1;
  for (const char* seed : kSeeds) {
    const std::string expression = seed;
    add(expression);
    for (size_t cut = 0; cut < expression.size(); ++cut) {
      add(expression.substr(0, cut));
    }
    for (size_t at = 0; at < expression.size(); ++at) {
      std::string deleted = expression;
      deleted.erase(at, 1);
      add(deleted);
      for (size_t k : {at % kChoices, (at * 7 + 3) % kChoices}) {
        std::string replaced = expression;
        replaced[at] = kMutations[k];
        add(replaced);
      }
    }
  }
  return corpus;
}

// Expressions that must compile and whose trees are pinned besides the
// corpus: route-zipf's template universe and random paths of every size
// and axis mix the workload generator makes.
std::vector<std::string> TreeOnlyExpressions() {
  std::vector<std::string> expressions = bench::MakeZipfTemplates(2000);
  std::mt19937_64 rng(0x636f6d70696c65ull);
  for (int i = 0; i < 2000; ++i) {
    gen::RandomQueryOptions options;
    options.node_tests = 1 + i % 9;
    options.alphabet = 4 + i % 5;
    options.allow_backward = i % 3 != 0;
    options.allow_siblings = i % 4 == 1;
    expressions.push_back(
        xpath::ToString(gen::GenerateRandomPath(options, rng)));
  }
  return expressions;
}

std::string Trees(const std::vector<query::XTree>& trees) {
  std::string out;
  for (size_t i = 0; i < trees.size(); ++i) {
    if (i > 0) out += " ; ";
    out += trees[i].ToString();
  }
  return out;
}

// One line per expression: the status dump for failures, the tree dump for
// successes (`must_compile` expressions fail the test instead).
void Dump(std::string* statuses, std::string* trees) {
  std::ostringstream status_out;
  std::ostringstream tree_out;
  auto run = [&](const std::string& expression, bool must_compile) {
    StatusOr<std::vector<query::XTree>> compiled =
        query::CompileToXTrees(expression);
    if (compiled.ok()) {
      tree_out << "[" << expression << "]\t" << Trees(*compiled) << "\n";
      return;
    }
    EXPECT_FALSE(must_compile) << expression << ": " << compiled.status();
    if (compiled.status().code() == StatusCode::kResourceExhausted) return;
    status_out << "[" << expression << "]\t" << compiled.status().ToString()
               << "\n";
  };
  for (const std::string& expression : Corpus()) run(expression, false);
  for (const std::string& expression : TreeOnlyExpressions()) {
    run(expression, true);
  }
  *statuses = status_out.str();
  *trees = tree_out.str();
}

void ExpectMatchesGolden(const std::string& actual, const char* golden,
                         const char* actual_name) {
  std::ifstream in(golden);
  std::stringstream expected;
  expected << in.rdbuf();
  if (actual != expected.str()) std::ofstream(actual_name) << actual;
  ASSERT_FALSE(expected.str().empty()) << "cannot read " << golden;
  std::istringstream want(expected.str());
  std::istringstream got(actual);
  std::string want_line;
  std::string got_line;
  size_t line = 0;
  while (std::getline(want, want_line)) {
    ++line;
    ASSERT_TRUE(std::getline(got, got_line))
        << "dump ends early at golden line " << line;
    EXPECT_EQ(got_line, want_line) << "line " << line;
  }
  EXPECT_FALSE(std::getline(got, got_line)) << "dump longer than the golden";
}

TEST(CompileStatusGoldenTest, StatusesMatchTheRecordedCompiler) {
  std::string statuses;
  std::string trees;
  Dump(&statuses, &trees);
  ExpectMatchesGolden(statuses, XAOS_COMPILE_STATUS_GOLDEN,
                      "compile_status.actual");
}

// The differential half: CompileToXTrees against the trees the recorded
// ParseExpression -> ExpandOrs -> BuildXTree pipeline produced.
TEST(CompileStatusGoldenTest, XTreesMatchTheRecordedCompiler) {
  std::string statuses;
  std::string trees;
  Dump(&statuses, &trees);
  ExpectMatchesGolden(trees, XAOS_COMPILE_XTREES_GOLDEN,
                      "compile_xtrees.actual");
}

}  // namespace
}  // namespace xaos
