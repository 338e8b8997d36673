/**
 * @file
 * Tests for the fault-tolerant server: the empty-schedule replay is
 * bit-identical to plain sharded serving (metrics and RunReport), a
 * mid-decode chip loss drains and retries with every request
 * accounted, replans are deterministic across thread counts, a
 * terminal outage rejects all outstanding work, and recovery
 * restores the initial plan.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "fault/fault_server.hh"
#include "obs/obs.hh"
#include "obs/report.hh"
#include "serve/workload.hh"
#include "support/replay_equality.hh"

namespace transfusion::fault
{
namespace
{

using test::expectSameServeMetrics;

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

FaultServeOptions
fastOptions()
{
    FaultServeOptions o;
    o.serve = test::fastServe();
    o.initial_spec = { 2, 1 };
    o.plan_threads = 1;
    return o;
}

TEST(FaultServer, EmptyScheduleIsBitIdenticalToShardedServing)
{
    const auto cluster = multichip::edgeCluster(2);
    const auto cfg = model::t5Small();
    const auto wl = smallWorkload();
    const auto opts = fastOptions();
    const auto trace = serve::generateWorkload(wl, 7);

    const FaultTolerantServer server(cluster, cfg, wl, opts);
    const auto baseline_sim = multichip::shardedSimulator(
        cluster, cfg, opts.initial_spec, wl, opts.serve);

    obs::Registry fault_reg;
    FaultServeMetrics faulted;
    {
        obs::ScopedRegistry scope(fault_reg);
        faulted = server.run(trace, FaultSchedule{});
    }
    obs::Registry base_reg;
    serve::ServeMetrics base;
    {
        obs::ScopedRegistry scope(base_reg);
        base = baseline_sim.run(trace);
    }

    expectSameServeMetrics(faulted.serve, base);
    EXPECT_EQ(faulted.fault_events, 0);
    EXPECT_EQ(faulted.retries, 0);
    EXPECT_EQ(faulted.replans, 0);
    ASSERT_EQ(faulted.windows.size(), 1u);
    EXPECT_EQ(faulted.windows[0].tokens,
              base.generated_tokens);

    // The observable record must match bit-for-bit too: no fault
    // counters, no extra spans, identical serve attribution.
    EXPECT_EQ(obs::RunReport::capture(fault_reg).toString(),
              obs::RunReport::capture(base_reg).toString());
}

TEST(FaultServer, ChipLossMidDecodeDrainsRetriesAndAccounts)
{
    const auto cluster = multichip::edgeCluster(2);
    const auto cfg = model::t5Small();
    // Saturate the server: every request arrives up front, so the
    // mid-trace loss is guaranteed to land with decodes in flight.
    auto wl = smallWorkload();
    wl.arrival_per_s = 100.0;
    const auto opts = fastOptions();
    const auto trace = serve::generateWorkload(wl, 7);

    const FaultTolerantServer server(cluster, cfg, wl, opts);
    const auto healthy = server.run(trace, {});
    ASSERT_GT(healthy.serve.makespan_s, 0);

    FaultSchedule faults;
    faults.events.push_back({ 0.5 * healthy.serve.makespan_s,
                              FaultKind::ChipLoss, 1 });
    const auto m = server.run(trace, faults);

    // The loss lands mid-trace, so work was in flight: it drains,
    // retries, and the run completes on the surviving chip.
    EXPECT_EQ(m.fault_events, 1);
    EXPECT_EQ(m.chip_losses, 1);
    EXPECT_EQ(m.replans, 1);
    EXPECT_GT(m.evictions, 0);
    EXPECT_EQ(m.retries, m.evictions);
    EXPECT_GE(m.wasted_tokens, m.evictions); // each had >= 1 token
    // Accounting invariant: every offered request ends the run
    // completed or rejected (retried-to-completion counts as
    // completed).
    EXPECT_EQ(m.serve.completed + m.serve.rejected,
              m.serve.offered);
    EXPECT_GT(m.degraded_s, 0);
    ASSERT_EQ(m.windows.size(), 2u);
    EXPECT_EQ(m.windows[0].chips, 2);
    EXPECT_EQ(m.windows[1].chips, 1);
    EXPECT_FALSE(m.windows[1].outage);
    EXPECT_EQ(m.windows[0].tokens + m.windows[1].tokens,
              m.serve.generated_tokens);
    // Degraded serving can only be slower end-to-end.
    EXPECT_GE(m.serve.makespan_s, healthy.serve.makespan_s);
}

TEST(FaultServer, ReplanIsBitIdenticalAcrossThreadCounts)
{
    const auto cluster = multichip::edgeCluster(2);
    const auto cfg = model::t5Small();
    const auto wl = smallWorkload();
    const auto trace = serve::generateWorkload(wl, 7);

    FaultSchedule faults;
    faults.events.push_back({ 2.0, FaultKind::ChipLoss, 0 });
    faults.events.push_back({ 6.0, FaultKind::ChipRecovery, 0 });

    std::vector<FaultServeMetrics> runs;
    for (int threads : { 1, 4 }) {
        auto opts = fastOptions();
        opts.plan_threads = threads;
        const FaultTolerantServer server(cluster, cfg, wl, opts);
        runs.push_back(server.run(trace, faults));
    }
    expectSameServeMetrics(runs[0].serve, runs[1].serve);
    EXPECT_EQ(runs[0].retries, runs[1].retries);
    EXPECT_EQ(runs[0].evictions, runs[1].evictions);
    EXPECT_EQ(runs[0].degraded_s, runs[1].degraded_s); // bitwise
    ASSERT_EQ(runs[0].windows.size(), runs[1].windows.size());
    for (std::size_t i = 0; i < runs[0].windows.size(); ++i) {
        EXPECT_EQ(runs[0].windows[i].end_s,
                  runs[1].windows[i].end_s);
        EXPECT_EQ(runs[0].windows[i].tokens,
                  runs[1].windows[i].tokens);
        EXPECT_EQ(runs[0].windows[i].spec.tp,
                  runs[1].windows[i].spec.tp);
        EXPECT_EQ(runs[0].windows[i].spec.pp,
                  runs[1].windows[i].spec.pp);
    }
}

TEST(FaultServer, TerminalOutageRejectsAllOutstandingWork)
{
    const auto cluster = multichip::edgeCluster(2);
    const auto cfg = model::t5Small();
    const auto wl = smallWorkload();
    const auto opts = fastOptions();
    const auto trace = serve::generateWorkload(wl, 7);

    // Both chips die before the first arrival and never return.
    FaultSchedule faults;
    faults.events.push_back({ 1e-4, FaultKind::ChipLoss, 0 });
    faults.events.push_back({ 2e-4, FaultKind::ChipLoss, 1 });

    const FaultTolerantServer server(cluster, cfg, wl, opts);
    const auto m = server.run(trace, faults);

    EXPECT_EQ(m.serve.completed, 0);
    EXPECT_EQ(m.serve.rejected, m.serve.offered);
    EXPECT_EQ(m.serve.generated_tokens, 0);
    ASSERT_FALSE(m.windows.empty());
    EXPECT_TRUE(m.windows.back().outage);
    // The zero-completion ledger must render, not abort — the
    // regression percentileOr and the "-" fields fix.
    const std::string s = m.serve.summary();
    EXPECT_NE(s.find("completed=0"), std::string::npos);
    EXPECT_NE(s.find("ttft_p50=-"), std::string::npos);
    EXPECT_NE(m.summary().find("outage"), std::string::npos);
}

TEST(FaultServer, RecoveryRestoresTheInitialPlan)
{
    const auto cluster = multichip::edgeCluster(2);
    const auto cfg = model::t5Small();
    const auto wl = smallWorkload();
    const auto opts = fastOptions();
    const auto trace = serve::generateWorkload(wl, 7);

    const FaultTolerantServer server(cluster, cfg, wl, opts);
    const auto healthy = server.run(trace, {});

    FaultSchedule faults;
    faults.events.push_back({ 0.3 * healthy.serve.makespan_s,
                              FaultKind::ChipLoss, 1 });
    faults.events.push_back({ 0.6 * healthy.serve.makespan_s,
                              FaultKind::ChipRecovery, 1 });
    const auto m = server.run(trace, faults);

    EXPECT_EQ(m.chip_losses, 1);
    EXPECT_EQ(m.chip_recoveries, 1);
    ASSERT_GE(m.windows.size(), 3u);
    EXPECT_EQ(m.windows.front().spec.tp, opts.initial_spec.tp);
    EXPECT_EQ(m.windows.front().spec.pp, opts.initial_spec.pp);
    EXPECT_EQ(m.windows.back().spec.tp, opts.initial_spec.tp);
    EXPECT_EQ(m.windows.back().spec.pp, opts.initial_spec.pp);
    EXPECT_EQ(m.windows.back().chips, 2);
    EXPECT_EQ(m.serve.completed + m.serve.rejected,
              m.serve.offered);
}

TEST(FaultServer, LinkDegradeKeepsServingWithoutEvictions)
{
    const auto cluster = multichip::edgeCluster(2);
    const auto cfg = model::t5Small();
    const auto wl = smallWorkload();
    const auto opts = fastOptions();
    const auto trace = serve::generateWorkload(wl, 7);

    const FaultTolerantServer server(cluster, cfg, wl, opts);
    const auto healthy = server.run(trace, {});

    FaultSchedule faults;
    faults.events.push_back({ 0.4 * healthy.serve.makespan_s,
                              FaultKind::LinkDegrade, -1, 0.25 });
    const auto m = server.run(trace, faults);

    EXPECT_EQ(m.link_degradations, 1);
    EXPECT_EQ(m.evictions, 0);
    EXPECT_EQ(m.replans, 1);
    EXPECT_EQ(m.serve.completed, m.serve.offered);
    ASSERT_EQ(m.windows.size(), 2u);
    EXPECT_EQ(m.windows[1].link_scale, 0.25);
    EXPECT_EQ(m.windows[1].chips, 2);
    // A 4x slower fabric cannot speed the trace up.
    EXPECT_GE(m.serve.makespan_s, healthy.serve.makespan_s);
}

TEST(FaultServer, ChipSlowdownDegradesWithoutReplanOrEviction)
{
    const auto cluster = multichip::edgeCluster(2);
    const auto cfg = model::t5Small();
    const auto wl = smallWorkload();
    const auto opts = fastOptions();
    const auto trace = serve::generateWorkload(wl, 7);

    const FaultTolerantServer server(cluster, cfg, wl, opts);
    const auto healthy = server.run(trace, {});

    // One chip runs 3x slow mid-trace, then recovers.  A gray
    // failure: no drain, no replan, no evictions — the session
    // just runs slower while the window is open.
    FaultSchedule faults;
    faults.events.push_back({ 0.3 * healthy.serve.makespan_s,
                              FaultKind::ChipSlowdown, 1, 3.0 });
    faults.events.push_back({ 0.7 * healthy.serve.makespan_s,
                              FaultKind::SlowdownRecovery, 1 });
    const auto m = server.run(trace, faults);

    EXPECT_EQ(m.chip_slowdowns, 1);
    EXPECT_EQ(m.slowdown_recoveries, 1);
    EXPECT_EQ(m.chip_losses, 0);
    EXPECT_EQ(m.replans, 0);
    EXPECT_EQ(m.evictions, 0);
    EXPECT_EQ(m.retries, 0);
    // Everything completes — just slower than the healthy run.
    EXPECT_EQ(m.serve.completed, m.serve.offered);
    EXPECT_GE(m.serve.makespan_s, healthy.serve.makespan_s);
    // The slowed span is accounted as degraded time.
    EXPECT_GT(m.slowdown_s, 0);
    EXPECT_LE(m.slowdown_s, m.degraded_s);
    // Windows carry the multiplier: healthy, x3, healthy.
    ASSERT_EQ(m.windows.size(), 3u);
    EXPECT_EQ(m.windows[0].slowdown, 1.0);
    EXPECT_EQ(m.windows[1].slowdown, 3.0);
    EXPECT_EQ(m.windows[2].slowdown, 1.0);
    // Same spec throughout: a slowdown never costs a replan.
    for (const auto &w : m.windows) {
        EXPECT_EQ(w.spec.tp, opts.initial_spec.tp);
        EXPECT_EQ(w.spec.pp, opts.initial_spec.pp);
    }
    // The degraded replay is deterministic.
    const auto again = server.run(trace, faults);
    expectSameServeMetrics(m.serve, again.serve);
}

TEST(FaultServer, SlowdownComposesWithALossOnAnotherChip)
{
    const auto cluster = multichip::edgeCluster(2);
    const auto cfg = model::t5Small();
    const auto wl = smallWorkload();
    const auto opts = fastOptions();
    const auto trace = serve::generateWorkload(wl, 7);

    const FaultTolerantServer server(cluster, cfg, wl, opts);
    const auto healthy = server.run(trace, {});
    const double mk = healthy.serve.makespan_s;

    // Chip 0 slows while chip 1 is lost and recovered: the
    // slowdown persists across the structural replans.
    FaultSchedule faults;
    faults.events.push_back(
        { 0.2 * mk, FaultKind::ChipSlowdown, 0, 2.0 });
    faults.events.push_back({ 0.4 * mk, FaultKind::ChipLoss, 1 });
    faults.events.push_back(
        { 0.6 * mk, FaultKind::ChipRecovery, 1 });
    faults.events.push_back(
        { 0.8 * mk, FaultKind::SlowdownRecovery, 0 });
    EXPECT_NO_THROW(faults.validate(2));
    const auto m = server.run(trace, faults);

    EXPECT_EQ(m.chip_slowdowns, 1);
    EXPECT_EQ(m.chip_losses, 1);
    // Only the loss costs a degraded-mode replan (recovery just
    // restores the cached initial plan); the slowdown costs none.
    EXPECT_EQ(m.replans, 1);
    EXPECT_EQ(m.serve.completed + m.serve.rejected,
              m.serve.offered);
    // The degraded-mode window (1 chip) still carries the x2.
    bool slowed_single_chip = false;
    for (const auto &w : m.windows)
        slowed_single_chip = slowed_single_chip
            || (w.chips == 1 && w.slowdown == 2.0);
    EXPECT_TRUE(slowed_single_chip);
}

TEST(FaultServer, AutoPlanPicksAFeasibleSpec)
{
    const auto cluster = multichip::edgeCluster(2);
    const auto cfg = model::t5Small();
    const auto wl = smallWorkload();
    auto opts = fastOptions();
    opts.initial_spec = { 0, 0 }; // plan at construction
    const FaultTolerantServer server(cluster, cfg, wl, opts);
    const auto spec = server.initialSpec();
    EXPECT_EQ(spec.chips(), cluster.size());
    EXPECT_GT(spec.tp, 0);
    EXPECT_GT(spec.pp, 0);
}

} // namespace
} // namespace transfusion::fault
