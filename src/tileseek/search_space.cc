/**
 * @file
 * Implementation of the tiling search space and exhaustive search.
 */

#include "search_space.hh"

#include "common/logging.hh"

namespace transfusion::tileseek
{

double
SearchSpace::leafCount() const
{
    double total = 1.0;
    for (const auto &c : choices)
        total *= static_cast<double>(c.size());
    return total;
}

void
SearchSpace::validate() const
{
    if (level_names.size() != choices.size())
        tf_fatal("search space has ", level_names.size(),
                 " names but ", choices.size(), " choice lists");
    if (choices.empty())
        tf_fatal("search space has no levels");
    for (std::size_t i = 0; i < choices.size(); ++i) {
        if (choices[i].empty())
            tf_fatal("search space level ", i, " ('",
                     level_names[i],
                     "') has an empty candidate list; every level "
                     "needs at least one choice");
        for (auto v : choices[i]) {
            if (v <= 0)
                tf_fatal("level '", level_names[i],
                         "' has non-positive candidate ", v);
        }
    }
}

SearchResult
exhaustiveSearch(const SearchSpace &space, const FeasibleFn &feasible,
                 const CostFn &cost, double max_leaves)
{
    space.validate();
    if (space.leafCount() > max_leaves)
        tf_fatal("exhaustive search over ", space.leafCount(),
                 " leaves exceeds the cap of ", max_leaves);

    SearchResult result;
    Assignment a(space.depth());
    std::vector<std::size_t> pos(space.depth(), 0);

    while (true) {
        for (std::size_t l = 0; l < space.depth(); ++l)
            a[l] = space.choices[l][pos[l]];
                // A failed constraint reads as a negative (infeasible) cost.
        const double c = feasible(a) ? cost(a) : -1.0;
        if (costFeasible(c)) {
            ++result.evaluations;
            if (!result.found || c < result.best_cost) {
                result.found = true;
                result.best = a;
                result.best_cost = c;
                ++result.best_updates;
            }
        } else {
            ++result.infeasible;
        }
        // Odometer.
        bool rolled = true;
        for (std::size_t l = space.depth(); l-- > 0;) {
            if (++pos[l] < space.choices[l].size()) {
                rolled = false;
                break;
            }
            pos[l] = 0;
        }
        if (rolled)
            break;
    }
    return result;
}

} // namespace transfusion::tileseek
