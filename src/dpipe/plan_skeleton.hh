/**
 * @file
 * DPipe plan skeletons: the structure-only half of the pipeline
 * search (Sec. 4).  Everything DPipe enumerates -- the valid
 * bipartitions, the Fig. 7(d) steady-state DAG of each, the fill
 * and drain sub-DAGs, and the candidate topological orders of every
 * one of them -- depends only on the cascade DAG and the order cap,
 * never on dims or the architecture.  A skeleton holds all of it.
 * The four sub-layer DAGs do not change with the model, so their
 * skeletons are four process-wide constants (layerSkeleton) and an
 * evaluation only prices per-op latencies over the stored orders.
 */

#ifndef TRANSFUSION_DPIPE_PLAN_SKELETON_HH
#define TRANSFUSION_DPIPE_PLAN_SKELETON_HH

#include <cstdint>
#include <span>
#include <vector>

#include "dpipe/partition.hh"
#include "einsum/dag.hh"
#include "model/cascades.hh"

namespace transfusion::dpipe
{

/**
 * Order cap of every skeleton DPipe prices: each search space keeps
 * Kahn's order plus up to kMaxOrders enumerated ones.
 */
inline constexpr std::size_t kMaxOrders = 64;

/** An op id as stored in a skeleton (a parent-DAG id or ROOT). */
using PlanOpId = std::uint8_t;

/**
 * One sub-DAG's DP search space: its predecessor lists and the
 * candidate orders the DP prices -- Kahn's order first, then (when
 * order_cap > 1) up to order_cap lexicographically enumerated
 * ones, so the Kahn order is priced twice -- and, per order, the
 * length of the prefix it shares with the order before it.  Every
 * id is a parent-DAG id, and all of it is one contiguous array.
 */
class SubDagPlan
{
  public:
    SubDagPlan() = default;

    /**
     * Plan `sub`, whose node i is parent op `to_parent[i]`, inside a
     * parent id space of `id_space` ids.
     */
    SubDagPlan(const einsum::Dag &sub, const std::vector<int> &to_parent,
               int id_space, std::size_t order_cap);

    /** Plan a whole DAG in its own ids. */
    static SubDagPlan whole(const einsum::Dag &dag,
                            std::size_t order_cap);

    /** Ops per order. */
    int size() const { return size_; }
    /** Parent ids span [0, idSpace()). */
    int idSpace() const { return id_space_; }
    std::size_t orderCount() const { return order_count_; }

    std::span<const PlanOpId> order(std::size_t k) const;
    std::span<const PlanOpId> predecessors(PlanOpId v) const;

    /**
     * Ops order `k` shares, from its start, with order k - 1 (0 for
     * the first order).  Depth-first enumeration makes neighbours
     * share long prefixes, so the DP can resume at this depth.
     */
    std::size_t sharedPrefix(std::size_t k) const;

  private:
    int id_space_ = 0;
    int size_ = 0;
    std::size_t order_count_ = 0;
    /// [idSpace()+1 predecessor offsets | predecessors | orders |
    ///  one shared-prefix length per order]
    std::vector<PlanOpId> data_;
    std::size_t orders_at_ = 0;
};

/** One valid bipartition (A, B) and its three DP search spaces. */
struct BipartitionPlan
{
    Bipartition partition;
    SubDagPlan steady; ///< Fig. 7(d) DAG; its virtual ROOT is op n
    SubDagPlan fill;   ///< A alone
    SubDagPlan drain;  ///< B alone
};

/** The dims-independent DPipe search over one cascade DAG. */
struct PlanSkeleton
{
    einsum::Dag dag;  ///< the cascade DAG it searches
    SubDagPlan epoch; ///< the whole DAG, for the epoch-only plan
    std::vector<BipartitionPlan> bipartitions;
};

/**
 * Build a skeleton of `dag` with up to `order_cap` enumerated
 * orders per search space.  Records nothing in the obs registry:
 * DPipe's counters count pricing, not enumeration.
 */
PlanSkeleton buildPlanSkeleton(const einsum::Dag &dag,
                               std::size_t order_cap);

/**
 * The skeleton of sub-layer `kind` at kMaxOrders.  A sub-layer's
 * DAG is the same for every model (a config changes only scales and
 * the FFN activation, never which op reads which tensor), so the
 * four skeletons are built together on first use, thread-safely,
 * and are immutable for the life of the process.
 */
const PlanSkeleton &layerSkeleton(model::LayerKind kind);

} // namespace transfusion::dpipe

#endif // TRANSFUSION_DPIPE_PLAN_SKELETON_HH
