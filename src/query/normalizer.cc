#include "query/normalizer.h"

#include <utility>

namespace xaos::query {
namespace {

using xpath::LocationPath;
using xpath::PredExpr;
using xpath::Step;

// A conjunction of or-free predicate paths.
using Conjunction = std::vector<LocationPath>;
// A disjunction of conjunctions (DNF).
using Dnf = std::vector<Conjunction>;

// The expansion consumes its input: a part is moved to where it lands and
// copied only where a disjunction makes it land in several alternatives.
// Every list it builds (a DNF, a path's expansions, the union) has at least
// as many entries as any list it is built from, and the final list is the
// longest, so failing as soon as any list would exceed `max_paths` rejects
// exactly the expressions whose full expansion would.
class Expander {
 public:
  explicit Expander(int max_paths)
      : max_paths_(static_cast<size_t>(max_paths < 0 ? 0 : max_paths)) {}

  Status CheckSize(size_t n) const {
    if (n <= max_paths_) return Status::Ok();
    return ResourceExhaustedError(
        "or-expansion exceeds the limit of " + std::to_string(max_paths_) +
        " disjuncts");
  }

  // Replaces the L entries of `items` by the L * R combinations
  // items[i] (+) factors[j], i-major, where `append(item, factor, last)`
  // extends an item by a factor and may move from the factor when `last`
  // (its final use) is set. An item is moved into its last combination, so
  // a single factor extends every item where it stands.
  template <typename Item, typename Factor, typename Append>
  Status CrossProduct(std::vector<Item>* items, std::vector<Factor>* factors,
                      Append append) const {
    const size_t left = items->size();
    const size_t right = factors->size();
    XAOS_RETURN_IF_ERROR(CheckSize(left * right));
    if (right == 1) {
      for (size_t i = 0; i < left; ++i) {
        append(&(*items)[i], &factors->front(), i + 1 == left);
      }
      return Status::Ok();
    }
    std::vector<Item> next;
    next.reserve(left * right);
    for (size_t i = 0; i < left; ++i) {
      for (size_t j = 0; j < right; ++j) {
        if (j + 1 == right) {
          next.push_back(std::move((*items)[i]));
        } else {
          next.push_back((*items)[i]);
        }
        append(&next.back(), &(*factors)[j], i + 1 == left);
      }
    }
    *items = std::move(next);
    return Status::Ok();
  }

  // Expands a predicate expression into DNF with or-free paths.
  StatusOr<Dnf> ExpandPred(PredExpr pred) const {
    switch (pred.kind) {
      case PredExpr::Kind::kPath: {
        XAOS_ASSIGN_OR_RETURN(std::vector<LocationPath> paths,
                              ExpandPath(std::move(pred.path)));
        Dnf dnf;
        dnf.reserve(paths.size());
        for (LocationPath& p : paths) {
          dnf.emplace_back().push_back(std::move(p));
        }
        return dnf;
      }
      case PredExpr::Kind::kOr: {
        Dnf dnf;
        for (PredExpr& child : pred.children) {
          XAOS_ASSIGN_OR_RETURN(Dnf child_dnf, ExpandPred(std::move(child)));
          XAOS_RETURN_IF_ERROR(CheckSize(dnf.size() + child_dnf.size()));
          for (Conjunction& conj : child_dnf) dnf.push_back(std::move(conj));
        }
        return dnf;
      }
      case PredExpr::Kind::kAnd: {
        Dnf dnf(1);
        for (PredExpr& child : pred.children) {
          XAOS_ASSIGN_OR_RETURN(Dnf child_dnf, ExpandPred(std::move(child)));
          XAOS_RETURN_IF_ERROR(CrossProduct(
              &dnf, &child_dnf,
              [](Conjunction* conj, Conjunction* right, bool last) {
                for (LocationPath& p : *right) {
                  if (last) {
                    conj->push_back(std::move(p));
                  } else {
                    conj->push_back(p);
                  }
                }
              }));
        }
        return dnf;
      }
    }
    return InternalError("unknown PredExpr kind");
  }

  // Expands a path into or-free paths, step by step: every expansion of
  // the prefix is extended by the bare step, then multiplied by each
  // predicate's DNF, whose conjunctions become predicates of that step.
  StatusOr<std::vector<LocationPath>> ExpandPath(LocationPath path) const {
    std::vector<LocationPath> results(1);
    results[0].absolute = path.absolute;
    results[0].steps.reserve(path.steps.size());
    for (Step& step : path.steps) {
      std::vector<PredExpr> predicates = std::move(step.predicates);
      step.predicates.clear();
      for (size_t i = 0; i < results.size(); ++i) {
        if (i + 1 == results.size()) {
          results[i].steps.push_back(std::move(step));
        } else {
          results[i].steps.push_back(step);
        }
      }
      for (PredExpr& pred : predicates) {
        XAOS_ASSIGN_OR_RETURN(Dnf dnf, ExpandPred(std::move(pred)));
        XAOS_RETURN_IF_ERROR(CrossProduct(
            &results, &dnf,
            [](LocationPath* prefix, Conjunction* conj, bool last) {
              Step& tail = prefix->steps.back();
              for (LocationPath& p : *conj) {
                PredExpr& leaf = tail.predicates.emplace_back();
                leaf.kind = PredExpr::Kind::kPath;
                if (last) {
                  leaf.path = std::move(p);
                } else {
                  leaf.path = p;
                }
              }
            }));
      }
    }
    return results;
  }

 private:
  size_t max_paths_;
};

}  // namespace

StatusOr<std::vector<xpath::LocationPath>> ExpandOrs(
    xpath::Expression expression, int max_paths) {
  const Expander expander(max_paths);
  std::vector<LocationPath> all;
  for (LocationPath& branch : expression.union_branches) {
    XAOS_ASSIGN_OR_RETURN(std::vector<LocationPath> expanded,
                          expander.ExpandPath(std::move(branch)));
    XAOS_RETURN_IF_ERROR(expander.CheckSize(all.size() + expanded.size()));
    if (all.empty()) {
      all = std::move(expanded);
    } else {
      for (LocationPath& p : expanded) all.push_back(std::move(p));
    }
  }
  return all;
}

}  // namespace xaos::query
