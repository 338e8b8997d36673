/**
 * @file
 * Unit tests for the Eq. 43-46 DP scheduler: dependency and
 * resource validity of every schedule, hand-checkable placements,
 * quality against exhaustive search over small instances, and the
 * order search's branch and bound against full pricing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>

#include "common/logging.hh"
#include "common/rng.hh"
#include "dpipe/dp_scheduler.hh"
#include "model/cascades.hh"
#include "model/transformer.hh"

namespace transfusion::dpipe
{
namespace
{

using costmodel::PeTarget;
using einsum::Dag;

/** Check dependency order and no per-array overlap. */
void
checkScheduleValid(const Dag &dag, const Schedule &s)
{
    std::map<int, const OpPlacement *> by_op;
    for (const auto &p : s.placements)
        by_op[p.op] = &p;
    ASSERT_EQ(by_op.size(),
              static_cast<std::size_t>(dag.nodeCount()));

    // Dependencies: start >= every predecessor's end.
    for (const auto &p : s.placements) {
        for (int pre : dag.predecessors(p.op))
            EXPECT_GE(p.start, by_op[pre]->end - 1e-12);
    }
    // Resources: placements on one array must not overlap.
    for (const auto &a : s.placements) {
        for (const auto &b : s.placements) {
            if (a.op == b.op || a.pe != b.pe)
                continue;
            const bool disjoint = a.end <= b.start + 1e-12
                || b.end <= a.start + 1e-12;
            EXPECT_TRUE(disjoint)
                << "ops " << a.op << " and " << b.op
                << " overlap on the same array";
        }
    }
    // Makespan is the max end time.
    double max_end = 0;
    for (const auto &p : s.placements)
        max_end = std::max(max_end, p.end);
    EXPECT_DOUBLE_EQ(s.makespan, max_end);
}

TEST(DpScheduler, IndependentOpsSpreadAcrossArrays)
{
    // Two equal ops with equal latency on both arrays: the DP
    // should put them on different arrays and halve the makespan.
    Dag d(2);
    std::vector<OpLatencyPair> lat{ { 1.0, 1.0 }, { 1.0, 1.0 } };
    const Schedule s = dpSchedule(d, { 0, 1 }, lat);
    checkScheduleValid(d, s);
    EXPECT_DOUBLE_EQ(s.makespan, 1.0);
    EXPECT_NE(s.placements[0].pe, s.placements[1].pe);
}

TEST(DpScheduler, ChainSerializesOnFastestArray)
{
    Dag d(2);
    d.addEdge(0, 1);
    // Both ops much faster on the 2D array.
    std::vector<OpLatencyPair> lat{ { 1.0, 10.0 },
                                    { 1.0, 10.0 } };
    const Schedule s = dpSchedule(d, { 0, 1 }, lat);
    checkScheduleValid(d, s);
    EXPECT_DOUBLE_EQ(s.makespan, 2.0);
    EXPECT_EQ(s.placements[0].pe, PeTarget::Array2d);
    EXPECT_EQ(s.placements[1].pe, PeTarget::Array2d);
}

TEST(DpScheduler, DependentOpWaitsForPredecessor)
{
    // op1 depends on op0; op1 is faster on the idle 1D array but
    // must still wait for op0 to finish.
    Dag d(2);
    d.addEdge(0, 1);
    std::vector<OpLatencyPair> lat{ { 2.0, 8.0 }, { 4.0, 1.0 } };
    const Schedule s = dpSchedule(d, { 0, 1 }, lat);
    checkScheduleValid(d, s);
    const auto &p1 = s.placementOf(1);
    EXPECT_EQ(p1.pe, PeTarget::Array1d);
    EXPECT_DOUBLE_EQ(p1.start, 2.0);
    EXPECT_DOUBLE_EQ(s.makespan, 3.0);
}

TEST(DpScheduler, Eq45PicksEarliestCompletion)
{
    // 2D is busy (op0 there); op1 independent: finishing on 1D at
    // t=5 beats queueing on 2D until t=6.
    Dag d(2);
    std::vector<OpLatencyPair> lat{ { 4.0, 9.0 }, { 2.0, 5.0 } };
    const Schedule s = dpSchedule(d, { 0, 1 }, lat);
    checkScheduleValid(d, s);
    EXPECT_EQ(s.placementOf(0).pe, PeTarget::Array2d);
    EXPECT_EQ(s.placementOf(1).pe, PeTarget::Array1d);
    EXPECT_DOUBLE_EQ(s.makespan, 5.0);
}

TEST(DpScheduler, BusyTimesMatchPlacements)
{
    Dag d(3);
    d.addEdge(0, 2);
    std::vector<OpLatencyPair> lat{ { 1.0, 2.0 }, { 1.5, 3.0 },
                                    { 2.0, 0.5 } };
    const Schedule s = dpSchedule(d, d.topoSort(), lat);
    double busy2 = 0, busy1 = 0;
    for (const auto &p : s.placements) {
        if (p.pe == PeTarget::Array2d)
            busy2 += p.end - p.start;
        else
            busy1 += p.end - p.start;
    }
    EXPECT_DOUBLE_EQ(s.busy_2d, busy2);
    EXPECT_DOUBLE_EQ(s.busy_1d, busy1);
}

TEST(DpScheduler, NonTopologicalOrderPanics)
{
    Dag d(2);
    d.addEdge(0, 1);
    std::vector<OpLatencyPair> lat{ { 1, 1 }, { 1, 1 } };
    EXPECT_THROW(dpSchedule(d, { 1, 0 }, lat), PanicError);
}

TEST(BestDpSchedule, OrderSearchNeverHurts)
{
    // Adversarial order: scheduling the long chain late inflates
    // the canonical order's makespan; enumeration should find the
    // better interleaving.
    Dag d(4);
    d.addEdge(0, 1); // chain a: 0 -> 1 (long, on 2D)
    d.addEdge(2, 3); // chain b: 2 -> 3 (long, on 1D)
    std::vector<OpLatencyPair> lat{
        { 1.0, 5.0 }, { 1.0, 5.0 }, { 5.0, 1.0 }, { 5.0, 1.0 }
    };
    const Schedule canonical = dpSchedule(d, d.topoSort(), lat);
    const Schedule best = bestDpSchedule(d, lat, 64);
    EXPECT_LE(best.makespan, canonical.makespan + 1e-12);
    EXPECT_DOUBLE_EQ(best.makespan, 2.0);
    checkScheduleValid(d, best);
}

TEST(BestDpSchedule, ExhaustiveAgreementOnSmallDags)
{
    // The capped search with a generous cap equals fully
    // exhaustive enumeration for small DAGs.
    Dag d(5);
    d.addEdge(0, 2);
    d.addEdge(1, 2);
    d.addEdge(2, 4);
    d.addEdge(3, 4);
    std::vector<OpLatencyPair> lat{
        { 2, 3 }, { 3, 1 }, { 1, 4 }, { 2, 2 }, { 3, 2 }
    };
    double best_possible = 1e300;
    for (const auto &order : d.enumerateTopoOrders(100000)) {
        best_possible = std::min(best_possible,
                                 dpSchedule(d, order, lat).makespan);
    }
    const Schedule s = bestDpSchedule(d, lat, 100000);
    EXPECT_DOUBLE_EQ(s.makespan, best_possible);
}

/** bestOrder's contract, priced the slow way: every order in full. */
BestOrder
bestOrderByFullPricing(const SubDagPlan &plan,
                       const std::vector<OpLatencyPair> &latency,
                       DpSearchStats &stats)
{
    BestOrder best;
    for (std::size_t k = 0; k < plan.orderCount(); ++k) {
        const double makespan = dpSchedule(plan, k, latency).makespan;
        if (k == 0 || makespan < best.makespan) {
            best.index = k;
            best.makespan = makespan;
        } else {
            ++stats.orders_pruned;
        }
    }
    const auto tried = static_cast<std::int64_t>(plan.orderCount());
    stats.orders_tried += tried;
    stats.states_explored += tried * plan.size();
    return best;
}

/** Latency tables over `ids` ops: random, then tie-heavy ones. */
std::vector<std::vector<OpLatencyPair>>
searchLatencyTables(int ids)
{
    std::vector<std::vector<OpLatencyPair>> tables;
    Rng rng(20);
    const auto table = [&](auto &&entry) {
        std::vector<OpLatencyPair> lat;
        for (int v = 0; v < ids; ++v)
            lat.push_back(entry());
        tables.push_back(std::move(lat));
    };
    for (int i = 0; i < 8; ++i) {
        table([&]() -> OpLatencyPair {
            return { rng.nextDouble(0.1, 10.0),
                     rng.nextDouble(0.1, 10.0) };
        });
    }
    // Small integers: many orders tie, and partial makespans land
    // exactly on the incumbent.
    for (int i = 0; i < 4; ++i) {
        table([&]() -> OpLatencyPair {
            return { static_cast<double>(rng.nextBelow(4)),
                     static_cast<double>(rng.nextBelow(4)) };
        });
    }
    table([]() -> OpLatencyPair { return { 1.0, 1.0 }; });
    // Zero-latency ops: a third of them take no time anywhere.
    for (int i = 0; i < 2; ++i) {
        table([&]() -> OpLatencyPair {
            if (rng.nextBelow(3) == 0)
                return { 0.0, 0.0 };
            return { rng.nextDouble(0.1, 10.0),
                     rng.nextDouble(0.1, 10.0) };
        });
    }
    // 2D == 1D: every op is as fast on either array.
    for (int i = 0; i < 2; ++i) {
        table([&]() -> OpLatencyPair {
            const double t = rng.nextDouble(0.1, 10.0);
            return { t, t };
        });
    }
    table([]() -> OpLatencyPair { return { 0.0, 0.0 }; });
    return tables;
}

TEST(BestOrder, MatchesFullPricing)
{
    // Every DP search space of every layer's skeleton, under random
    // and tie-heavy latencies: the prefix-sharing branch and bound
    // must pick the same order, the bitwise-same makespan and the
    // same counters as pricing every order from scratch.  One
    // scratch buffer serves every search, as in schedulePipeline.
    std::vector<einsum::Dag> dags;
    for (const auto &cfg : model::allModels()) {
        for (const auto kind : model::allLayerKinds()) {
            auto dag = model::buildCascade(kind, cfg).buildDag();
            if (std::find(dags.begin(), dags.end(), dag) == dags.end())
                dags.push_back(std::move(dag));
        }
    }
    ASSERT_GE(dags.size(), model::allLayerKinds().size());

    std::vector<double> scratch;
    int searches = 0, resumed = 0;
    for (const auto &dag : dags) {
        const auto tables = searchLatencyTables(dag.nodeCount() + 1);
        for (std::size_t max_orders : { 1, 2, 64 }) {
            const PlanSkeleton skeleton =
                buildPlanSkeleton(dag, max_orders);
            std::vector<const SubDagPlan *> plans{ &skeleton.epoch };
            for (const auto &bp : skeleton.bipartitions) {
                plans.push_back(&bp.steady);
                plans.push_back(&bp.fill);
                plans.push_back(&bp.drain);
            }
            for (const SubDagPlan *plan : plans) {
                ASSERT_EQ(plan->sharedPrefix(0), 0u);
                for (std::size_t k = 1; k < plan->orderCount(); ++k) {
                    const auto prev = plan->order(k - 1);
                    const auto cur = plan->order(k);
                    const std::size_t shared = plan->sharedPrefix(k);
                    ASSERT_TRUE(std::equal(cur.begin(),
                                           cur.begin() + shared,
                                           prev.begin()));
                    ASSERT_TRUE(shared == cur.size()
                                || cur[shared] != prev[shared]);
                    resumed += shared > 0;
                }
                for (std::size_t t = 0; t < tables.size(); ++t) {
                    SCOPED_TRACE("nodes=" + std::to_string(dag.nodeCount())
                                 + " orders="
                                 + std::to_string(max_orders)
                                 + " plan size="
                                 + std::to_string(plan->size())
                                 + " table=" + std::to_string(t));
                    DpSearchStats got_stats, want_stats;
                    const BestOrder got = bestOrder(
                        *plan, tables[t], scratch, got_stats);
                    const BestOrder want = bestOrderByFullPricing(
                        *plan, tables[t], want_stats);
                    ++searches;
                    EXPECT_EQ(got.index, want.index);
                    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.makespan),
                              std::bit_cast<std::uint64_t>(
                                  want.makespan));
                    EXPECT_EQ(got_stats.orders_tried,
                              want_stats.orders_tried);
                    EXPECT_EQ(got_stats.orders_pruned,
                              want_stats.orders_pruned);
                    EXPECT_EQ(got_stats.states_explored,
                              want_stats.states_explored);
                }
            }
        }
    }
    // The grid must reach the resume path, not only Kahn's order.
    EXPECT_GT(resumed, 0);
    EXPECT_GT(searches, 0);
}

TEST(Schedule, ToStringListsOps)
{
    Dag d(1);
    std::vector<OpLatencyPair> lat{ { 1.0, 2.0 } };
    const Schedule s = dpSchedule(d, { 0 }, lat);
    const std::string out = s.toString({ "BQK" });
    EXPECT_NE(out.find("BQK"), std::string::npos);
    EXPECT_NE(out.find("makespan"), std::string::npos);
}

TEST(Schedule, PlacementOfMissingOpPanics)
{
    Schedule s;
    EXPECT_THROW(s.placementOf(3), PanicError);
}

} // namespace
} // namespace transfusion::dpipe
