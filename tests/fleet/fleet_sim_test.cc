/**
 * @file
 * Tests for the fleet simulator: the 1-replica pass-through fleet
 * reproduces the single-replica fault-tolerant run bit for bit
 * (metrics and RunReport), failover re-routes a faulted replica's
 * work with every request accounted, the autoscaler activates
 * replicas under a burst, held requests are refused when no replica
 * ever serves, and every policy's fleet replay is bit-identical
 * across thread counts.
 */

#include <limits>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "fault/fault_server.hh"
#include "fleet/fleet_sim.hh"
#include "obs/obs.hh"
#include "obs/report.hh"
#include "serve/workload.hh"
#include "support/replay_equality.hh"

namespace transfusion::fleet
{
namespace
{

using test::expectSameFleetMetrics;
using test::expectSameServeMetrics;
using test::fastFleet;
using test::fastServe;

serve::WorkloadOptions
smallWorkload()
{
    serve::WorkloadOptions wl;
    wl.arrival_per_s = 2.0;
    wl.requests = 16;
    wl.prompt = { 128, 256 };
    wl.output = { 16, 32 };
    return wl;
}

TEST(FleetSim, PassThroughFleetIsBitIdenticalToFaultServer)
{
    const auto cluster = multichip::edgeCluster(2);
    const auto cfg = model::t5Small();
    const auto wl = smallWorkload();
    const auto trace = serve::generateWorkload(wl, 7);

    fault::FaultServeOptions fo;
    fo.serve = fastServe();
    fo.initial_spec = { 2, 1 };
    fo.plan_threads = 1;
    const fault::FaultTolerantServer server(cluster, cfg, wl, fo);

    auto fl = fastFleet();
    const FleetSimulator fleet(
        { ReplicaConfig{ cluster, { 2, 1 } } }, cfg, wl, fl);

    obs::Registry fleet_reg;
    FleetMetrics fm;
    {
        obs::ScopedRegistry scope(fleet_reg);
        FleetRunOptions run;
        run.policy = PolicyKind::PassThrough;
        fm = fleet.run(trace, run);
    }
    obs::Registry fault_reg;
    fault::FaultServeMetrics sm;
    {
        obs::ScopedRegistry scope(fault_reg);
        sm = server.run(trace, fault::FaultSchedule{});
    }

    // The single replica's ledger IS the fault server's ledger.
    ASSERT_EQ(fm.replicas.size(), 1u);
    expectSameServeMetrics(fm.replicas[0], sm.serve);
    EXPECT_EQ(fm.offered, sm.serve.offered);
    EXPECT_EQ(fm.completed, sm.serve.completed);
    EXPECT_EQ(fm.rejected, sm.serve.rejected);
    EXPECT_EQ(fm.makespan_s, sm.serve.makespan_s); // bitwise
    EXPECT_EQ(fm.routed, fm.offered);
    EXPECT_EQ(fm.peak_serving, 1);
    EXPECT_EQ(fm.failover_drained, 0);
    EXPECT_EQ(fm.replica_downs, 0);

    // And the observable record matches bit for bit: no fleet
    // counters, no replica prefixes, identical serve attribution.
    EXPECT_EQ(obs::RunReport::capture(fleet_reg).toString(),
              obs::RunReport::capture(fault_reg).toString());
}

TEST(FleetSim, FailoverReroutesAFaultedReplicasWork)
{
    const auto cluster = multichip::edgeCluster(1);
    const auto cfg = model::t5Small();
    auto wl = smallWorkload();
    wl.arrival_per_s = 100.0; // saturate: work in flight at the loss
    const auto trace = serve::generateWorkload(wl, 7);

    const auto fleet =
        FleetSimulator::uniform(2, cluster, cfg, wl, fastFleet());

    FleetRunOptions healthy_run;
    healthy_run.policy = PolicyKind::RoundRobin;
    const auto healthy = fleet.run(trace, healthy_run);
    ASSERT_GT(healthy.makespan_s, 0);
    EXPECT_EQ(healthy.completed, healthy.offered);
    EXPECT_EQ(healthy.failover_drained, 0);

    // Replica 1 loses its only chip mid-trace and never recovers.
    fault::FaultSchedule outage;
    outage.events.push_back({ 0.4 * healthy.makespan_s,
                              fault::FaultKind::ChipLoss, 0 });
    FleetRunOptions faulted_run = healthy_run;
    faulted_run.faults.resize(2);
    faulted_run.faults[1] = outage;
    const auto m = fleet.run(trace, faulted_run);

    EXPECT_EQ(m.replica_downs, 1);
    EXPECT_EQ(m.replica_ups, 0);
    EXPECT_GT(m.failover_drained, 0);
    EXPECT_EQ(m.failover_reroutes, m.failover_drained);
    EXPECT_EQ(m.failover_exhausted, 0);
    // Every drained request finished on the survivor: nothing is
    // terminally rejected, and the fleet ledger balances.
    EXPECT_EQ(m.completed, m.offered);
    EXPECT_EQ(m.rejected, 0);
    EXPECT_EQ(m.held_rejected, 0);
    // Re-offers are extra routing decisions on top of the trace.
    EXPECT_EQ(m.routed, m.offered + m.failover_reroutes);
    // Per-replica ledgers balance too: the drained requests were
    // un-counted from replica 1 and completed on replica 0.
    ASSERT_EQ(m.replicas.size(), 2u);
    for (const auto &r : m.replicas)
        EXPECT_EQ(r.offered, r.completed + r.rejected);
    EXPECT_GT(m.replicas[0].completed, healthy.replicas[0].completed);
    // One replica for part of the run can only be slower.
    EXPECT_GE(m.makespan_s, healthy.makespan_s);
}

TEST(FleetSim, ExhaustedRetryBudgetRejectsForGood)
{
    const auto cluster = multichip::edgeCluster(1);
    const auto cfg = model::t5Small();
    auto wl = smallWorkload();
    wl.arrival_per_s = 100.0;
    const auto trace = serve::generateWorkload(wl, 7);

    auto fl = fastFleet();
    fl.retry.max_attempts = 0; // no second chances
    const auto fleet =
        FleetSimulator::uniform(2, cluster, cfg, wl, fl);

    FleetRunOptions run;
    run.policy = PolicyKind::RoundRobin;
    const auto healthy = fleet.run(trace, run);
    fault::FaultSchedule outage;
    outage.events.push_back({ 0.4 * healthy.makespan_s,
                              fault::FaultKind::ChipLoss, 0 });
    run.faults.resize(2);
    run.faults[1] = outage;
    const auto m = fleet.run(trace, run);

    EXPECT_GT(m.failover_drained, 0);
    EXPECT_EQ(m.failover_reroutes, 0);
    EXPECT_EQ(m.failover_exhausted, m.failover_drained);
    EXPECT_EQ(m.rejected, m.failover_exhausted);
    EXPECT_EQ(m.completed + m.rejected, m.offered);
}

TEST(FleetSim, HeldRequestsAreRefusedWhenNothingEverServes)
{
    const auto cluster = multichip::edgeCluster(1);
    const auto cfg = model::t5Small();
    const auto wl = smallWorkload();
    const auto trace = serve::generateWorkload(wl, 7);

    const auto fleet =
        FleetSimulator::uniform(1, cluster, cfg, wl, fastFleet());

    // The only replica dies before the first arrival, forever.
    fault::FaultSchedule outage;
    outage.events.push_back(
        { 1e-4, fault::FaultKind::ChipLoss, 0 });
    FleetRunOptions run;
    run.policy = PolicyKind::RoundRobin; // not the fast path
    run.faults = { outage };
    const auto m = fleet.run(trace, run);

    EXPECT_EQ(m.completed, 0);
    EXPECT_EQ(m.held_rejected, m.offered);
    EXPECT_EQ(m.rejected, m.offered);
    EXPECT_EQ(m.generated_tokens, 0);
    EXPECT_EQ(m.replica_downs, 1);
    // The zero-completion summary must render, not abort.
    EXPECT_NE(m.summary().find("completed=0"), std::string::npos);
}

TEST(FleetSim, AutoscalerActivatesReplicasUnderABurst)
{
    const auto cluster = multichip::edgeCluster(1);
    const auto cfg = model::t5Small();
    auto wl = smallWorkload();
    wl.arrival_per_s = 100.0; // burst: deep queue at t ~ 0
    wl.requests = 24;
    const auto trace = serve::generateWorkload(wl, 7);

    auto fl = fastFleet();
    fl.autoscaler.enabled = true;
    fl.autoscaler.min_replicas = 1;
    fl.autoscaler.interval_s = 0.05;
    fl.autoscaler.up_queue_depth = 2.0;
    fl.autoscaler.up_after_ticks = 1;
    fl.autoscaler.cooldown_ticks = 0;
    const auto fleet =
        FleetSimulator::uniform(4, cluster, cfg, wl, fl);

    FleetRunOptions run;
    run.policy = PolicyKind::LeastOutstanding;
    const auto m = fleet.run(trace, run);

    // The burst trips the depth trigger: replicas activate beyond
    // the single initial one and absorb the queue.
    EXPECT_GT(m.autoscaler_ticks, 0);
    EXPECT_GT(m.scale_ups, 0);
    EXPECT_GT(m.peak_serving, 1);
    EXPECT_LE(m.peak_serving, 4);
    EXPECT_EQ(m.completed, m.offered);
    // Activated replicas actually served.
    std::int64_t active_replicas = 0;
    for (const auto &r : m.replicas)
        active_replicas += r.completed > 0;
    EXPECT_GT(active_replicas, 1);

    // Determinism: the autoscaled replay reproduces bit for bit.
    expectSameFleetMetrics(m, fleet.run(trace, run));
}

TEST(FleetSim, EveryPolicyIsBitIdenticalAcrossThreadCounts)
{
    const auto cluster = multichip::edgeCluster(1);
    const auto cfg = model::t5Small();
    auto wl = smallWorkload();
    wl.arrival_per_s = 50.0;
    const auto trace = serve::generateWorkload(wl, 7);

    // A mid-run outage with recovery exercises drains, re-offers,
    // and down/up transitions in the replay being compared.
    fault::FaultSchedule outage;
    outage.events.push_back(
        { 0.2, fault::FaultKind::ChipLoss, 0 });
    outage.events.push_back(
        { 1.5, fault::FaultKind::ChipRecovery, 0 });

    auto one = fastFleet();
    auto four = fastFleet();
    four.threads = 4;
    const auto fleet1 =
        FleetSimulator::uniform(4, cluster, cfg, wl, one);
    const auto fleet4 =
        FleetSimulator::uniform(4, cluster, cfg, wl, four);

    for (const PolicyKind policy : allPolicies()) {
        FleetRunOptions run;
        run.policy = policy;
        run.seed = 11;
        run.faults.resize(3);
        run.faults[2] = outage;

        obs::Registry reg1;
        FleetMetrics m1;
        {
            obs::ScopedRegistry scope(reg1);
            m1 = fleet1.run(trace, run);
        }
        obs::Registry reg4;
        FleetMetrics m4;
        {
            obs::ScopedRegistry scope(reg4);
            m4 = fleet4.run(trace, run);
        }
        SCOPED_TRACE("policy " + toString(policy));
        expectSameFleetMetrics(m1, m4);
        // The full observable record — per-replica prefixed serve
        // metrics and fleet counters — is bit-identical too.
        EXPECT_EQ(obs::RunReport::capture(reg1).toString(),
                  obs::RunReport::capture(reg4).toString());
    }
}

TEST(FleetSim, UniformFleetSharesOneCalibratedSimulator)
{
    const auto cluster = multichip::edgeCluster(1);
    const auto cfg = model::t5Small();
    const auto wl = smallWorkload();
    const auto fleet =
        FleetSimulator::uniform(3, cluster, cfg, wl, fastFleet());
    EXPECT_EQ(fleet.replicaCount(), 3);
    // One calibration shared by every slot, not three copies.
    EXPECT_EQ(&fleet.replicaSimulator(0), &fleet.replicaSimulator(1));
    EXPECT_EQ(&fleet.replicaSimulator(1), &fleet.replicaSimulator(2));
    EXPECT_EQ(fleet.replicaSpec(0).chips(), cluster.size());
}

TEST(FleetSim, SlowdownDegradesThroughputWithoutDroppingWork)
{
    const auto cluster = multichip::edgeCluster(1);
    const auto cfg = model::t5Small();
    auto wl = smallWorkload();
    wl.arrival_per_s = 50.0;
    const auto trace = serve::generateWorkload(wl, 7);

    const auto fleet =
        FleetSimulator::uniform(2, cluster, cfg, wl, fastFleet());

    FleetRunOptions run;
    run.policy = PolicyKind::RoundRobin;
    const auto healthy = fleet.run(trace, run);
    ASSERT_EQ(healthy.completed, healthy.offered);

    // Replica 1's chip runs 4x slow for most of the run, then
    // recovers.  A gray failure: nothing drains, nothing reroutes.
    fault::FaultSchedule gray;
    gray.events.push_back({ 0.05, fault::FaultKind::ChipSlowdown,
                            0, 4.0 });
    gray.events.push_back(
        { 0.8 * healthy.makespan_s,
          fault::FaultKind::SlowdownRecovery, 0 });
    run.faults.resize(2);
    run.faults[1] = gray;
    const auto m = fleet.run(trace, run);

    EXPECT_EQ(m.slowdown_transitions, 2);
    EXPECT_EQ(m.replica_downs, 0);
    EXPECT_EQ(m.failover_drained, 0);
    // Every request still finishes — just later.
    EXPECT_EQ(m.completed, m.offered);
    EXPECT_GT(m.makespan_s, healthy.makespan_s);
    // And the degraded replay is itself deterministic.
    expectSameFleetMetrics(m, fleet.run(trace, run));
}

TEST(FleetSim, BreakerRoutesAroundASlowedReplica)
{
    const auto cluster = multichip::edgeCluster(1);
    const auto cfg = model::t5Small();
    auto wl = smallWorkload();
    wl.arrival_per_s = 20.0;
    wl.requests = 24;
    const auto trace = serve::generateWorkload(wl, 7);

    auto fl = fastFleet();
    fl.health.enabled = true;
    fl.health.alpha = 1.0;
    // Threshold between healthy and 8x-slowed per-round latency:
    // calibrate it from a healthy probe run below.
    const auto probe =
        FleetSimulator::uniform(2, cluster, cfg, wl, fastFleet());
    FleetRunOptions run;
    run.policy = PolicyKind::LeastOutstanding;
    const auto healthy = probe.run(trace, run);
    const auto &hr = healthy.replicas[0];
    const double per_round = hr.makespan_s
        / static_cast<double>(hr.prefill_rounds
                              + hr.decode_rounds);
    fl.health.latency_breach_s = 3.0 * per_round;
    fl.health.breach_streak = 2;
    const auto fleet =
        FleetSimulator::uniform(2, cluster, cfg, wl, fl);

    // Replica 0 goes 8x slow early and never recovers.
    fault::FaultSchedule gray;
    gray.events.push_back({ 0.05, fault::FaultKind::ChipSlowdown,
                            0, 8.0 });
    run.faults.resize(1);
    run.faults[0] = gray;
    const auto m = fleet.run(trace, run);

    // The breaker tripped and stayed open (or re-opened on every
    // probe: the slowdown never clears).
    EXPECT_GT(m.breaker_opens, 0);
    EXPECT_GT(m.breaker_open_s, 0);
    EXPECT_EQ(m.completed, m.offered);
    // The healthy replica absorbed the bulk of the work.
    ASSERT_EQ(m.replicas.size(), 2u);
    EXPECT_GT(m.replicas[1].completed, m.replicas[0].completed);
    // Detection is deterministic too.
    expectSameFleetMetrics(m, fleet.run(trace, run));
}

TEST(FleetSim, BrownoutShedsOnlyTheLowPriorityClass)
{
    const auto cluster = multichip::edgeCluster(1);
    const auto cfg = model::t5Small();
    auto wl = smallWorkload();
    wl.arrival_per_s = 200.0; // deep sustained backlog
    wl.requests = 32;
    auto trace = serve::generateWorkload(wl, 7);
    // Alternate priority classes: odd ids are best-effort.
    for (auto &r : trace)
        r.priority = r.id % 2 == 0 ? 1 : 0;

    auto fl = fastFleet();
    fl.brownout.enabled = true;
    fl.brownout.alpha = 1.0;
    fl.brownout.pressure_depth = 4.0;
    fl.brownout.release_depth = 1.0;
    fl.brownout.pressure_streak = 1;
    fl.brownout.min_priority = 1;
    const auto fleet =
        FleetSimulator::uniform(1, cluster, cfg, wl, fl);

    FleetRunOptions run;
    run.policy = PolicyKind::RoundRobin; // not the fast path
    const auto m = fleet.run(trace, run);

    EXPECT_GT(m.brownout_activations, 0);
    EXPECT_GT(m.brownout_sheds, 0);
    EXPECT_GT(m.brownout_s, 0);
    // Conservation holds with sheds counted as rejections.
    EXPECT_EQ(m.completed + m.rejected, m.offered);
    // Priority-1 requests were never brownout-shed: at most the
    // priority-0 half of the trace was.
    EXPECT_LE(m.brownout_sheds, m.offered / 2);
    // Everything that was not shed (or overflow-shed by the
    // replica) completed.
    EXPECT_GT(m.completed, 0);
    expectSameFleetMetrics(m, fleet.run(trace, run));
}

TEST(FleetSim, SimultaneousMultiReplicaLossFailsOverToSurvivors)
{
    const auto cluster = multichip::edgeCluster(1);
    const auto cfg = model::t5Small();
    auto wl = smallWorkload();
    wl.arrival_per_s = 100.0; // work in flight at the loss
    wl.requests = 24;
    const auto trace = serve::generateWorkload(wl, 7);

    const auto fleet =
        FleetSimulator::uniform(4, cluster, cfg, wl, fastFleet());
    FleetRunOptions run;
    run.policy = PolicyKind::RoundRobin;
    const auto healthy = fleet.run(trace, run);
    ASSERT_GT(healthy.makespan_s, 0);

    // Replicas 0 AND 1 lose their chip at the same instant and
    // never recover; 2 and 3 survive.
    const double t0 = 0.3 * healthy.makespan_s;
    fault::FaultSchedule outage;
    outage.events.push_back(
        { t0, fault::FaultKind::ChipLoss, 0 });
    run.faults.resize(2);
    run.faults[0] = outage;
    run.faults[1] = outage;
    const auto m = fleet.run(trace, run);

    EXPECT_EQ(m.replica_downs, 2);
    EXPECT_GT(m.failover_drained, 0);
    // Conservation across the double fault.
    EXPECT_EQ(m.completed + m.rejected, m.offered);
    ASSERT_EQ(m.replicas.size(), 4u);
    for (const auto &r : m.replicas)
        EXPECT_EQ(r.offered, r.completed + r.rejected);
    // Every reroute landed on a healthy replica: the dead pair's
    // ledgers stop at the drain, so all remaining completions —
    // more than the survivors' healthy-run share — are on 2 and 3.
    const auto survivors =
        m.replicas[2].completed + m.replicas[3].completed;
    EXPECT_EQ(m.completed,
              m.replicas[0].completed + m.replicas[1].completed
                  + survivors);
    EXPECT_GT(survivors, healthy.replicas[2].completed
                             + healthy.replicas[3].completed);
    expectSameFleetMetrics(m, fleet.run(trace, run));
}

TEST(FleetSim, FaultAppliesBeforeAnArrivalAtTheSameInstant)
{
    const auto cluster = multichip::edgeCluster(1);
    const auto cfg = model::t5Small();
    const auto wl = smallWorkload();
    const auto trace = serve::generateWorkload(wl, 7);

    const auto fleet =
        FleetSimulator::uniform(2, cluster, cfg, wl, fastFleet());

    // Replica 0 — pass-through's first choice — loses its only chip
    // at exactly the first arrival and never recovers.  Faults
    // apply before arrivals at one instant, so that request (and
    // every later one) goes straight to replica 1: replica 0 is
    // never offered work, and nothing is ever drained.
    fault::FaultSchedule outage;
    outage.events.push_back({ trace.front().arrival_s,
                              fault::FaultKind::ChipLoss, 0 });
    FleetRunOptions run;
    run.policy = PolicyKind::PassThrough;
    run.faults = { outage };
    const auto m = fleet.run(trace, run);

    EXPECT_EQ(m.replica_downs, 1);
    EXPECT_EQ(m.failover_drained, 0);
    ASSERT_EQ(m.replicas.size(), 2u);
    EXPECT_EQ(m.replicas[0].offered, 0);
    EXPECT_EQ(m.replicas[1].offered, m.offered);
    EXPECT_EQ(m.completed + m.rejected, m.offered);
}

TEST(FleetSim, SameInstantFaultsApplyInScheduleOrder)
{
    // Hand-written schedules whose per-chip faults touch at one
    // instant: generated schedules never do (the fuzz sweep asserts
    // down-spans never touch), so only these pin the edge order.
    const auto cluster = multichip::edgeCluster(2);
    const auto cfg = model::t5Small();
    auto wl = smallWorkload();
    wl.arrival_per_s = 50.0;
    const auto trace = serve::generateWorkload(wl, 7);
    const auto fleet = FleetSimulator::uniform(
        2, cluster, multichip::ShardSpec{ 2, 1 }, cfg, wl,
        fastFleet());

    FleetRunOptions run;
    run.policy = PolicyKind::RoundRobin;
    const double span = fleet.run(trace, run).makespan_s;
    const double t1 = 0.2 * span;
    const double t2 = 0.4 * span;
    const double t3 = 0.6 * span;
    using fault::FaultKind;
    const auto replay = [&](std::vector<fault::FaultEvent> events) {
        FleetRunOptions r = run;
        r.faults.resize(2);
        r.faults[1].events = std::move(events);
        return fleet.run(trace, r);
    };

    // Reference: chip 0 alone is down over [t1, t3].  Each
    // comparison replays it afresh: a percentile query sorts a
    // histogram's samples, which moves the last bits of its sum.
    const auto lone = [&]() {
        return replay({ { t1, FaultKind::ChipLoss, 0 },
                        { t3, FaultKind::ChipRecovery, 0 } });
    };
    EXPECT_EQ(lone().replica_downs, 1);
    EXPECT_EQ(lone().replica_ups, 1);
    EXPECT_GT(lone().failover_drained, 0);

    // Loss listed first: some chip is down throughout, so the
    // replica makes no transition at t2 and replays the reference.
    expectSameFleetMetrics(
        replay({ { t1, FaultKind::ChipLoss, 0 },
                 { t2, FaultKind::ChipLoss, 1 },
                 { t2, FaultKind::ChipRecovery, 0 },
                 { t3, FaultKind::ChipRecovery, 1 } }),
        lone());

    // Recovery listed first: the replica is briefly whole, so t2
    // adds one up edge and one down edge, whose drain finds nothing
    // (the replica was unroutable since t1).  Nothing else moves.
    FleetMetrics recovery_first =
        replay({ { t1, FaultKind::ChipLoss, 0 },
                 { t2, FaultKind::ChipRecovery, 0 },
                 { t2, FaultKind::ChipLoss, 1 },
                 { t3, FaultKind::ChipRecovery, 1 } });
    EXPECT_EQ(recovery_first.replica_ups, 2);
    EXPECT_EQ(recovery_first.replica_downs, 2);
    recovery_first.replica_ups -= 1;
    recovery_first.replica_downs -= 1;
    expectSameFleetMetrics(recovery_first, lone());

    // A same-instant pace hand-off between two equally slowed chips
    // keeps the replica's pace at 2x: no transition at t2.
    const FleetMetrics slow =
        replay({ { t1, FaultKind::ChipSlowdown, 0, 2.0 },
                 { t3, FaultKind::SlowdownRecovery, 0 } });
    EXPECT_EQ(slow.slowdown_transitions, 2);
    const FleetMetrics hand_off =
        replay({ { t1, FaultKind::ChipSlowdown, 0, 2.0 },
                 { t2, FaultKind::SlowdownRecovery, 0 },
                 { t2, FaultKind::ChipSlowdown, 1, 2.0 },
                 { t3, FaultKind::SlowdownRecovery, 1 } });
    EXPECT_EQ(hand_off.slowdown_transitions, 2);
    expectSameFleetMetrics(hand_off, slow);
}

TEST(FleetSim, MalformedRunsAreFatal)
{
    const auto cluster = multichip::edgeCluster(1);
    const auto cfg = model::t5Small();
    const auto wl = smallWorkload();
    const auto fleet =
        FleetSimulator::uniform(2, cluster, cfg, wl, fastFleet());

    // More fault schedules than replicas.
    FleetRunOptions run;
    run.faults.resize(3);
    EXPECT_THROW(fleet.run({}, run), FatalError);

    // Unsorted arrivals.
    auto trace = serve::generateWorkload(wl, 7);
    std::swap(trace.front().arrival_s, trace.back().arrival_s);
    EXPECT_THROW(fleet.run(trace, {}), FatalError);

    // An empty fleet cannot be built.
    EXPECT_THROW(FleetSimulator({}, cfg, wl, fastFleet()),
                 FatalError);
}

TEST(FleetSim, NonFiniteArrivalsAreFatal)
{
    const auto fleet = FleetSimulator::uniform(
        2, multichip::edgeCluster(1), model::t5Small(),
        smallWorkload(), fastFleet());
    // NaN used to spin the fleet loop forever and +inf to trip the
    // accounting-leak panic.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (const double bad : { nan, inf }) {
        serve::Request r;
        r.arrival_s = bad;
        r.prompt_len = 128;
        r.output_len = 16;
        EXPECT_THROW(fleet.run({ r }, {}), FatalError) << bad;
    }
}

} // namespace
} // namespace transfusion::fleet
