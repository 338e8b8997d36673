/**
 * @file
 * Latency-aware DP scheduler (Sec. 4.3, Eq. 43-46).  Given a DAG, a
 * topological order, and a per-op latency on each PE array, the DP
 * walks the order computing for every op its earliest feasible
 * start on each array -- the later of the array's accumulated
 * occupancy (Eq. 43a) and the op's dependencies (Eq. 43b) -- then
 * commits the op to the array finishing earliest (Eq. 45) and
 * advances that array's timeline (Eq. 46).
 */

#ifndef TRANSFUSION_DPIPE_DP_SCHEDULER_HH
#define TRANSFUSION_DPIPE_DP_SCHEDULER_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "costmodel/latency.hh"
#include "dpipe/plan_skeleton.hh"
#include "einsum/dag.hh"

namespace transfusion::dpipe
{

/** Latency of one op on [Array2d, Array1d], seconds. */
using OpLatencyPair = std::array<double, 2>;

/** Index into OpLatencyPair for a target. */
inline std::size_t
targetIndex(costmodel::PeTarget t)
{
    return t == costmodel::PeTarget::Array2d ? 0 : 1;
}

/** One scheduled op. */
struct OpPlacement
{
    int op = -1;
    costmodel::PeTarget pe = costmodel::PeTarget::Array2d;
    double start = 0;
    double end = 0;
};

/** Result of one DP run. */
struct Schedule
{
    std::vector<OpPlacement> placements; ///< schedule order
    double makespan = 0;
    double busy_2d = 0; ///< total seconds of 2D-array occupancy
    double busy_1d = 0; ///< total seconds of 1D-array occupancy

    /** Placement of a given op id; panic if absent. */
    const OpPlacement &placementOf(int op) const;

    /** Multi-line textual rendering (for dumps/examples). */
    std::string toString(
        const std::vector<std::string> &op_names = {}) const;

    /**
     * ASCII Gantt chart: one row per PE array, time rendered in
     * `width` columns, each op drawn as a labelled span.  Rows:
     * "2D |" and "1D |".
     */
    std::string toGantt(const std::vector<std::string> &op_names
                        = {},
                        int width = 72) const;
};

/**
 * Run the Eq. 43-46 DP over `order` (a topological order of `dag`).
 * `latency[v]` gives op v's seconds on [2D, 1D].
 */
Schedule dpSchedule(const einsum::Dag &dag,
                    const std::vector<int> &order,
                    const std::vector<OpLatencyPair> &latency);

/**
 * Convenience: run the DP over candidate topological orders (the
 * canonical Kahn order, plus up to `order_cap` lexicographically
 * enumerated ones when `order_cap` > 1) and keep the first order
 * with the best makespan.  Builds a one-off, uncached SubDagPlan.
 */
Schedule bestDpSchedule(const einsum::Dag &dag,
                        const std::vector<OpLatencyPair> &latency,
                        std::size_t order_cap);

/**
 * Work of a DP order search, recorded as the dpipe/dp counters.
 * They count the search space, not the op-steps actually priced:
 * every stored order is tried, every (op, order) pair is one
 * explored state, and every order that does not beat the incumbent
 * makespan is pruned -- whether bestOrder priced it in full, cut it
 * part-way or skipped it on a shared, already-beaten prefix.
 */
struct DpSearchStats
{
    std::int64_t orders_tried = 0;
    std::int64_t orders_pruned = 0;
    std::int64_t states_explored = 0;

    /** Add the tallies to the dpipe/dp counters. */
    void record() const;
};

/** The winner of a DP order search. */
struct BestOrder
{
    std::size_t index = 0; ///< order index within the SubDagPlan
    double makespan = 0;
};

/**
 * Return the first order of `plan` with the smallest makespan under
 * the makespan-only DP.  An exact branch and bound: each order
 * resumes from the DP state of the prefix it shares with the order
 * before it, and stops once its makespan is not below the
 * incumbent's.  `latency` is indexed by parent id and covers
 * plan.idSpace(); `scratch` (the per-id end times and per-depth DP
 * state) is reused across calls.  Adds the search's work to `stats`.
 */
BestOrder bestOrder(const SubDagPlan &plan,
                    const std::vector<OpLatencyPair> &latency,
                    std::vector<double> &scratch,
                    DpSearchStats &stats);

/** The full DP schedule of `plan`'s order `k`, in parent ids. */
Schedule dpSchedule(const SubDagPlan &plan, std::size_t k,
                    const std::vector<OpLatencyPair> &latency);

} // namespace transfusion::dpipe

#endif // TRANSFUSION_DPIPE_DP_SCHEDULER_HH
