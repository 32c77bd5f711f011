// Disjunction elimination (paper Section 5.2).
//
// χαoς handles `or` by rewriting an expression into disjunctive normal
// form and running one engine per disjunct, unioning the results. This
// module performs the rewrite: the output paths contain no kOr predicate
// nodes (conjunction is expressed as multiple predicates per step).

#ifndef XAOS_QUERY_NORMALIZER_H_
#define XAOS_QUERY_NORMALIZER_H_

#include <vector>

#include "util/statusor.h"
#include "xpath/ast.h"

namespace xaos::query {

// Expands all `or`s in `expression` (including union branches) into a list
// of or-free location paths whose union is equivalent, consuming
// `expression`: parts without a disjunction are moved into the output, and
// only parts a disjunction multiplies are copied. The expansion is
// worst-case exponential in the number of `or`s; it is bounded as it runs,
// returning ResourceExhausted as soon as any intermediate list of
// disjuncts, step alternatives or paths exceeds `max_paths` — which happens
// exactly when the full expansion would exceed it.
StatusOr<std::vector<xpath::LocationPath>> ExpandOrs(
    xpath::Expression expression, int max_paths = 64);

}  // namespace xaos::query

#endif  // XAOS_QUERY_NORMALIZER_H_
