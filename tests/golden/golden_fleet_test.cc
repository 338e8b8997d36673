/**
 * @file
 * Golden regression test for the fleet layer: the RunReport of a
 * 4-replica llama3-8B fleet (2-chip cloud replicas, power-of-two
 * routing, one replica lost and recovered mid-trace) pins the
 * per-replica prefixed serve attribution, the routing/failover
 * counters, and the cross-replica merge order in one reviewable
 * file.
 *
 * Regenerate with scripts/update_golden.sh (or run this binary
 * with TRANSFUSION_UPDATE_GOLDEN=1) after an intentional change to
 * the fleet event loop, the router, the serve simulator, or the
 * cluster presets.
 */

#include <string>

#include <gtest/gtest.h>

#include "fleet/fleet_sim.hh"
#include "obs/obs.hh"
#include "obs/report.hh"
#include "serve/workload.hh"
#include "support/golden.hh"

namespace transfusion
{
namespace
{

/** 4-replica power-of-two fleet with a mid-trace replica outage. */
std::string
fleetReport()
{
    serve::WorkloadOptions wl;
    wl.arrival_per_s = 16.0;
    wl.requests = 24;
    wl.prompt = { 256, 1024 };
    wl.output = { 32, 64 };

    fleet::FleetOptions opts;
    opts.serve.strategy = schedule::StrategyKind::TransFusion;
    opts.serve.max_batch = 8;
    opts.serve.cost.evaluator.mcts.iterations = 128;
    opts.threads = 1;
    opts.plan_threads = 1;

    // Replica 1 loses a chip while arrivals are still streaming in
    // and recovers later: the drain, the backoff re-offers, and the
    // down/up transitions are all part of the pinned report.
    fault::FaultSchedule outage;
    outage.events.push_back(
        { 1.0, fault::FaultKind::ChipLoss, 0 });
    outage.events.push_back(
        { 4.0, fault::FaultKind::ChipRecovery, 0 });

    fleet::FleetRunOptions run;
    run.policy = fleet::PolicyKind::PowerOfTwo;
    run.seed = 13;
    run.faults.resize(2);
    run.faults[1] = outage;

    obs::Registry local;
    {
        obs::ScopedRegistry scope(local);
        const auto fleet = fleet::FleetSimulator::uniform(
            4, multichip::cloudCluster(2), model::llama3_8b(), wl,
            opts);
        (void)fleet.run(serve::generateWorkload(wl, 13), run);
    }
    return obs::RunReport::capture(local).toString();
}

TEST(GoldenFleet, CloudLlama3FourReplicaP2cWithOutage)
{
    if (!TRANSFUSION_OBS_ENABLED)
        GTEST_SKIP() << "observability disabled "
                        "(TRANSFUSION_OBS=OFF): no report to pin";

    const std::string actual = fleetReport();
    ASSERT_FALSE(actual.empty())
        << "instrumentation produced no metrics";
    // The fleet layer must actually have reported: the top-level
    // counters and the per-replica prefixed serve attribution.
    EXPECT_NE(actual.find("fleet/routed"), std::string::npos);
    EXPECT_NE(actual.find("fleet/replica.0."), std::string::npos);
    EXPECT_NE(actual.find("fleet/replica.3."), std::string::npos);

    test::expectMatchesGolden("cloud_llama3_fleet4_p2c", actual);
}

/**
 * Gray-failure scenario: replica 0's chips run 6x slow mid-trace
 * (no chip ever goes down), the health monitor's depth EWMA trips
 * the circuit breaker, and the breaker re-closes after the
 * recovery.  Pins the slowdown transition count, the breaker
 * open/close counters with per-replica attribution, and the
 * degraded-window serve metrics.
 */
std::string
slowdownBreakerReport()
{
    serve::WorkloadOptions wl;
    wl.arrival_per_s = 8.0;
    wl.requests = 24;
    wl.prompt = { 256, 1024 };
    wl.output = { 32, 64 };

    fleet::FleetOptions opts;
    opts.serve.strategy = schedule::StrategyKind::TransFusion;
    opts.serve.max_batch = 8;
    opts.serve.cost.evaluator.mcts.iterations = 128;
    opts.threads = 1;
    opts.plan_threads = 1;
    opts.health.enabled = true;
    opts.health.alpha = 0.5;
    opts.health.depth_breach = 6.0;
    opts.health.breach_streak = 2;
    opts.health.cooldown_updates = 2;
    opts.health.probe_updates = 1;

    // Both of replica 0's chips throttle to 6x mid-trace and
    // recover later: a pure gray failure, nothing goes down.
    fault::FaultSchedule slowdown;
    slowdown.events.push_back(
        { 1.0, fault::FaultKind::ChipSlowdown, 0, 6.0 });
    slowdown.events.push_back(
        { 1.0, fault::FaultKind::ChipSlowdown, 1, 6.0 });
    slowdown.events.push_back(
        { 4.0, fault::FaultKind::SlowdownRecovery, 0 });
    slowdown.events.push_back(
        { 4.0, fault::FaultKind::SlowdownRecovery, 1 });

    fleet::FleetRunOptions run;
    run.policy = fleet::PolicyKind::PowerOfTwo;
    run.seed = 13;
    run.faults.resize(1);
    run.faults[0] = slowdown;

    obs::Registry local;
    {
        obs::ScopedRegistry scope(local);
        const auto fleet = fleet::FleetSimulator::uniform(
            2, multichip::cloudCluster(2), model::llama3_8b(), wl,
            opts);
        (void)fleet.run(serve::generateWorkload(wl, 13), run);
    }
    return obs::RunReport::capture(local).toString();
}

TEST(GoldenFleet, CloudLlama3SlowdownBreaker)
{
    if (!TRANSFUSION_OBS_ENABLED)
        GTEST_SKIP() << "observability disabled "
                        "(TRANSFUSION_OBS=OFF): no report to pin";

    const std::string actual = slowdownBreakerReport();
    ASSERT_FALSE(actual.empty())
        << "instrumentation produced no metrics";
    // The gray-failure path must actually have fired: slowdown
    // transitions applied and the breaker tripped at least once.
    EXPECT_NE(actual.find("fleet/slowdown.transitions"),
              std::string::npos);
    EXPECT_NE(actual.find("fleet/breaker.opens"),
              std::string::npos);

    test::expectMatchesGolden("cloud_llama3_slowdown_breaker", actual);
}

TEST(GoldenFleet, FleetReportIsReproducibleWithinProcess)
{
    if (!TRANSFUSION_OBS_ENABLED)
        GTEST_SKIP() << "observability disabled";
    EXPECT_EQ(fleetReport(), fleetReport());
}

} // namespace
} // namespace transfusion
