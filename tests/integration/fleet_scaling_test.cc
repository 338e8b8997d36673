/**
 * @file
 * Integration test behind bench/ext_fleet_scaling.cc: at a fixed
 * offered load that saturates a single replica, completed
 * throughput must increase monotonically with the replica count
 * under every load-balancing policy (pass-through pins the whole
 * trace on replica 0, so it is the flat control, not part of the
 * monotonicity claim).
 */

#include <vector>

#include <gtest/gtest.h>

#include "fleet/fleet_sim.hh"
#include "serve/workload.hh"
#include "support/replay_equality.hh"

namespace transfusion::fleet
{
namespace
{

using test::fastFleet;

/** The bench's saturating trace, shrunk for test budget: the
 *  burst arrives in ~0.1 s, far faster than one replica serves. */
serve::WorkloadOptions
saturatingWorkload()
{
    serve::WorkloadOptions wl;
    wl.arrival_per_s = 400.0;
    wl.requests = 48;
    wl.prompt = { 128, 256 };
    wl.output = { 16, 32 };
    return wl;
}

TEST(FleetScaling, ThroughputGrowsMonotonicallyWithReplicaCount)
{
    const auto cluster = multichip::edgeCluster(1);
    const auto cfg = model::t5Small();
    const auto wl = saturatingWorkload();
    const auto trace = serve::generateWorkload(wl, 1);

    for (const PolicyKind policy :
         { PolicyKind::RoundRobin, PolicyKind::LeastOutstanding,
           PolicyKind::KvPressure, PolicyKind::PowerOfTwo }) {
        SCOPED_TRACE("policy " + toString(policy));
        std::vector<double> throughput;
        for (int n : { 1, 2, 4 }) {
            const auto fleet = FleetSimulator::uniform(
                n, cluster, cfg, wl, fastFleet());
            FleetRunOptions run;
            run.policy = policy;
            const auto m = fleet.run(trace, run);
            // The whole trace completes at every size — the load
            // saturates time, not the queue bound.
            EXPECT_EQ(m.completed, m.offered);
            EXPECT_EQ(m.rejected, 0);
            throughput.push_back(m.completed_per_second);
        }
        for (std::size_t i = 1; i < throughput.size(); ++i)
            EXPECT_GT(throughput[i], throughput[i - 1])
                << "completed/s must grow from "
                << (1 << (i - 1)) << " to " << (1 << i)
                << " replicas, got " << throughput[i - 1]
                << " -> " << throughput[i];
    }
}

TEST(FleetScaling, PassThroughIsTheFlatControl)
{
    const auto cluster = multichip::edgeCluster(1);
    const auto cfg = model::t5Small();
    const auto wl = saturatingWorkload();
    const auto trace = serve::generateWorkload(wl, 1);

    // Pass-through routes everything to replica 0, so adding
    // replicas changes nothing: the 4-replica replay is bitwise
    // the 1-replica one.
    FleetRunOptions run;
    run.policy = PolicyKind::PassThrough;
    const auto one = FleetSimulator::uniform(1, cluster, cfg, wl,
                                             fastFleet())
                         .run(trace, run);
    const auto four = FleetSimulator::uniform(4, cluster, cfg, wl,
                                              fastFleet())
                          .run(trace, run);
    EXPECT_EQ(one.completed, four.completed);
    EXPECT_EQ(one.makespan_s, four.makespan_s); // bitwise
    EXPECT_EQ(four.replicas[1].offered, 0);
    EXPECT_EQ(four.replicas[2].offered, 0);
    EXPECT_EQ(four.replicas[3].offered, 0);
}

} // namespace
} // namespace transfusion::fleet
