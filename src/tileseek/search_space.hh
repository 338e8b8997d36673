/**
 * @file
 * Outer-tiling search space: ordered decision levels, one per tiled
 * dimension ([B, D, M1, P, S] plus the inner context tile M0), each
 * with a discrete candidate list (divisors of the full extent).  A
 * complete root-to-leaf assignment is one tiling configuration.
 */

#ifndef TRANSFUSION_TILESEEK_SEARCH_SPACE_HH
#define TRANSFUSION_TILESEEK_SEARCH_SPACE_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "tileseek/buffer_model.hh"

namespace transfusion::tileseek
{

/** A full assignment: one value per level. */
using Assignment = std::vector<std::int64_t>;

/** Ordered decision levels. */
struct SearchSpace
{
    std::vector<std::string> level_names;
    std::vector<std::vector<std::int64_t>> choices;

    /** Number of decision levels. */
    std::size_t depth() const { return choices.size(); }

    /** Total leaf count (product of choice counts). */
    double leafCount() const;

    /** Validate shape invariants; fatal on malformed spaces. */
    void validate() const;
};

/**
 * Objective: maps an assignment to a cost (lower is better), or a
 * negative value / infinity to signal infeasibility.  TileSeek only
 * minimizes; feasibility is checked separately.
 */
using CostFn = std::function<double(const Assignment &)>;

/** Whether a CostFn result is a real cost (finite, non-negative). */
inline bool
costFeasible(double c)
{
    return c >= 0 && c < std::numeric_limits<double>::infinity();
}

/** Feasibility predicate (Table 2 constraint validation). */
using FeasibleFn = std::function<bool(const Assignment &)>;

/** Result of any search over the space. */
struct SearchResult
{
    bool found = false;
    Assignment best;
    double best_cost = 0;
    /**
     * Leaves the search paid to examine.  MCTS counts every
     * completed rollout (feasible or not -- constraint validation
     * is part of the budget); exhaustiveSearch counts feasible
     * points only, so its evaluations + infeasible is the leaf
     * count.
     */
    std::int64_t evaluations = 0;
    /** Leaves that failed the Table 2 constraint validation or
     *  whose cost signalled infeasibility. */
    std::int64_t infeasible = 0;
    /** Times the incumbent best cost improved during the search
     *  (summed over all root-parallel trees). */
    std::int64_t best_updates = 0;
};

/**
 * Exhaustive reference search (tests and small spaces).  Fatal when
 * the space exceeds `max_leaves`.
 */
SearchResult exhaustiveSearch(const SearchSpace &space,
                              const FeasibleFn &feasible,
                              const CostFn &cost,
                              double max_leaves = 2e6);

} // namespace transfusion::tileseek

#endif // TRANSFUSION_TILESEEK_SEARCH_SPACE_HH
