// Construction of x-trees from parsed XPath expressions, following the
// rules of the paper's Appendix A.

#ifndef XAOS_QUERY_XTREE_BUILDER_H_
#define XAOS_QUERY_XTREE_BUILDER_H_

#include <string_view>
#include <vector>

#include "query/xtree.h"
#include "util/statusor.h"
#include "xpath/ast.h"

namespace xaos::query {

// Builds the x-tree for an or-free location path (see normalizer.h).
// Output designation: if any step is $-marked, exactly the marked x-nodes
// are outputs (Section 5.3); otherwise the rightmost node test not inside a
// predicate (Appendix A). Returns Unsupported for constructs the engine
// cannot evaluate (predicates or child steps under attribute/text nodes,
// `or` predicates that were not expanded). Consumes `path`: its names and
// literals move into the tree.
StatusOr<XTree> BuildXTree(xpath::LocationPath path);

// Parses `expression`, expands `or`s and unions, and builds one x-tree per
// disjunct. This is the one-stop query-compilation entry point.
StatusOr<std::vector<XTree>> CompileToXTrees(std::string_view expression,
                                             int max_paths = 64);

}  // namespace xaos::query

#endif  // XAOS_QUERY_XTREE_BUILDER_H_
