/**
 * @file
 * Implementation of DPipe plan skeletons and the per-layer table.
 */

#include "plan_skeleton.hh"

#include <array>
#include <limits>
#include <numeric>

#include "common/logging.hh"

namespace transfusion::dpipe
{

namespace
{

PlanOpId
narrow(std::size_t v)
{
    tf_assert(v <= std::numeric_limits<PlanOpId>::max(),
              "plan skeleton value ", v, " does not fit PlanOpId");
    return static_cast<PlanOpId>(v);
}

std::vector<int>
identityIds(int n)
{
    std::vector<int> ids(static_cast<std::size_t>(n));
    std::iota(ids.begin(), ids.end(), 0);
    return ids;
}

/** Induced subgraph over `members`; `to_orig` maps new->old ids. */
einsum::Dag
inducedSubdag(const einsum::Dag &dag, const std::vector<bool> &members,
              std::vector<int> &to_orig)
{
    to_orig.clear();
    std::vector<int> to_new(static_cast<std::size_t>(dag.nodeCount()),
                            -1);
    for (int v = 0; v < dag.nodeCount(); ++v) {
        if (members[static_cast<std::size_t>(v)]) {
            to_new[static_cast<std::size_t>(v)] =
                static_cast<int>(to_orig.size());
            to_orig.push_back(v);
        }
    }
    einsum::Dag sub(static_cast<int>(to_orig.size()));
    for (int v = 0; v < dag.nodeCount(); ++v) {
        if (!members[static_cast<std::size_t>(v)])
            continue;
        for (int w : dag.successors(v)) {
            if (members[static_cast<std::size_t>(w)]) {
                sub.addEdge(to_new[static_cast<std::size_t>(v)],
                            to_new[static_cast<std::size_t>(w)]);
            }
        }
    }
    return sub;
}

/**
 * Fig. 7(d): the steady-state epoch DAG.  A-subgraph ops (next
 * epoch) and B-subgraph ops (current epoch) keep only their
 * intra-subgraph edges -- cross edges refer to the *previous* slot's
 * results -- and a virtual ROOT (node n) feeds every resulting
 * source.
 */
einsum::Dag
steadyStateDag(const einsum::Dag &dag,
               const std::vector<bool> &in_first)
{
    const int n = dag.nodeCount();
    einsum::Dag combined(n + 1);
    for (int v = 0; v < n; ++v) {
        for (int w : dag.successors(v)) {
            if (in_first[static_cast<std::size_t>(v)]
                    == in_first[static_cast<std::size_t>(w)]) {
                combined.addEdge(v, w);
            }
        }
    }
    for (int v = 0; v < n; ++v) {
        if (combined.predecessors(v).empty())
            combined.addEdge(n, v);
    }
    return combined;
}

/** Kahn's order, then the capped enumeration when it is asked for. */
std::vector<std::vector<int>>
candidateOrders(const einsum::Dag &dag, std::size_t order_cap)
{
    std::vector<std::vector<int>> orders{ dag.topoSort() };
    if (order_cap > 1) {
        for (auto &order : dag.enumerateTopoOrders(order_cap))
            orders.push_back(std::move(order));
    }
    return orders;
}

} // namespace

SubDagPlan::SubDagPlan(const einsum::Dag &sub,
                       const std::vector<int> &to_parent,
                       int id_space, std::size_t order_cap)
    : id_space_(id_space), size_(sub.nodeCount())
{
    tf_assert(static_cast<int>(to_parent.size()) == size_,
              "id map must cover the sub-DAG");
    const auto orders = candidateOrders(sub, order_cap);
    order_count_ = orders.size();

    // Predecessor lists in parent ids, indexed by parent id.
    std::vector<std::vector<int>> preds(
        static_cast<std::size_t>(id_space_));
    for (int i = 0; i < size_; ++i) {
        const int v = to_parent[static_cast<std::size_t>(i)];
        tf_assert(v >= 0 && v < id_space_, "parent id ", v,
                  " outside the id space");
        for (int p : sub.predecessors(i)) {
            preds[static_cast<std::size_t>(v)].push_back(
                to_parent[static_cast<std::size_t>(p)]);
        }
    }

    const std::size_t preds_at = preds.size() + 1;
    data_.reserve(preds_at + order_count_
                  * (static_cast<std::size_t>(size_) + 1));
    std::size_t offset = 0;
    data_.push_back(0);
    for (const auto &list : preds) {
        offset += list.size();
        data_.push_back(narrow(offset));
    }
    for (const auto &list : preds) {
        for (int p : list)
            data_.push_back(narrow(static_cast<std::size_t>(p)));
    }

    orders_at_ = data_.size();
    for (const auto &order : orders) {
        for (int v : order) {
            data_.push_back(narrow(static_cast<std::size_t>(
                to_parent[static_cast<std::size_t>(v)])));
        }
    }

    for (std::size_t k = 0; k < order_count_; ++k) {
        std::size_t shared = 0;
        if (k > 0) {
            const auto &prev = orders[k - 1], &cur = orders[k];
            while (shared < cur.size() && prev[shared] == cur[shared])
                ++shared;
        }
        data_.push_back(narrow(shared));
    }
}

SubDagPlan
SubDagPlan::whole(const einsum::Dag &dag, std::size_t order_cap)
{
    return SubDagPlan(dag, identityIds(dag.nodeCount()),
                      dag.nodeCount(), order_cap);
}

std::span<const PlanOpId>
SubDagPlan::order(std::size_t k) const
{
    const auto len = static_cast<std::size_t>(size_);
    return { data_.data() + orders_at_ + k * len, len };
}

std::size_t
SubDagPlan::sharedPrefix(std::size_t k) const
{
    return data_[orders_at_
                 + order_count_ * static_cast<std::size_t>(size_) + k];
}

std::span<const PlanOpId>
SubDagPlan::predecessors(PlanOpId v) const
{
    const std::size_t preds_at =
        static_cast<std::size_t>(id_space_) + 1;
    return { data_.data() + preds_at + data_[v],
             static_cast<std::size_t>(data_[v + 1u] - data_[v]) };
}

PlanSkeleton
buildPlanSkeleton(const einsum::Dag &dag, std::size_t order_cap)
{
    const int n = dag.nodeCount();
    PlanSkeleton s;
    s.dag = dag;
    s.epoch = SubDagPlan::whole(dag, order_cap);
    for (auto &part : enumerateBipartitions(dag)) {
        BipartitionPlan bp;
        bp.steady = SubDagPlan::whole(
            steadyStateDag(dag, part.in_first), order_cap);
        std::vector<bool> in_second(part.in_first.size());
        for (std::size_t i = 0; i < part.in_first.size(); ++i)
            in_second[i] = !part.in_first[i];
        std::vector<int> a_ids, b_ids;
        const auto a_dag = inducedSubdag(dag, part.in_first, a_ids);
        const auto b_dag = inducedSubdag(dag, in_second, b_ids);
        bp.fill = SubDagPlan(a_dag, a_ids, n, order_cap);
        bp.drain = SubDagPlan(b_dag, b_ids, n, order_cap);
        bp.partition = std::move(part);
        s.bipartitions.push_back(std::move(bp));
    }
    return s;
}

const PlanSkeleton &
layerSkeleton(model::LayerKind kind)
{
    // Built by the first caller; concurrent first callers wait for
    // that one initialization.  Any valid config gives the same DAGs.
    static const std::array<PlanSkeleton, 4> skeletons = [] {
        std::array<PlanSkeleton, 4> built;
        for (const model::LayerKind k : model::allLayerKinds()) {
            built.at(static_cast<std::size_t>(k)) = buildPlanSkeleton(
                model::buildCascade(k, model::bertBase()).buildDag(),
                kMaxOrders);
        }
        return built;
    }();
    return skeletons.at(static_cast<std::size_t>(kind));
}

} // namespace transfusion::dpipe
