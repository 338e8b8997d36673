/**
 * @file
 * Replay harness over the fleet and serve loops, pinned as frozen
 * digests: every cell of a seed x routing-policy x fault-schedule
 * grid replays one trace through the fleet loop, and one digest
 * line per cell (support/replay_digest.hh) covers the FleetMetrics
 * with every replica ledger and the captured RunReport.  The
 * digests were generated while a second, linear-scan serve core
 * still existed, and both cores matched them; any divergence a
 * future core change introduces fails here with the grid cell
 * named.
 *
 * The same harness pins the CostTableCache's transparency: a fleet
 * calibrated with memoization disabled must produce the same
 * report as one served from the cache, including the replayed
 * construction-time observability.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "costmodel/cost_table_cache.hh"
#include "fleet/fleet_sim.hh"
#include "obs/obs.hh"
#include "obs/report.hh"
#include "serve/workload.hh"
#include "support/replay_digest.hh"
#include "support/replay_equality.hh"

namespace transfusion
{
namespace
{

using test::expectSameFleetMetrics;

/** Saturating burst: arrivals far outpace one replica, so queues,
 *  sheds, and multi-round batches all occur. */
serve::WorkloadOptions
diffWorkload()
{
    serve::WorkloadOptions wl;
    wl.arrival_per_s = 400.0;
    wl.requests = 32;
    wl.prompt = { 128, 256 };
    wl.output = { 16, 32 };
    return wl;
}

/** One named per-replica fault assignment for the grid. */
struct FaultCase
{
    std::string name;
    std::vector<fault::FaultSchedule> faults;
};

std::vector<FaultCase>
faultCases()
{
    // Replica 1 loses its only chip mid-burst and recovers: the
    // down span drains it and failover re-offers its work.
    fault::FaultSchedule loss;
    loss.events.push_back({ 0.05, fault::FaultKind::ChipLoss, 0 });
    loss.events.push_back(
        { 0.40, fault::FaultKind::ChipRecovery, 0 });

    // A degraded-then-restored link opens no down span, so this
    // case pins the loop's *non*-boundaries too.
    fault::FaultSchedule degrade;
    fault::FaultEvent slow;
    slow.time_s = 0.05;
    slow.kind = fault::FaultKind::LinkDegrade;
    slow.factor = 0.5;
    fault::FaultEvent restore = slow;
    restore.time_s = 0.50;
    restore.factor = 1.0;
    degrade.events.push_back(slow);
    degrade.events.push_back(restore);

    // A gray failure: replica 0 runs 3x slower mid-burst, then
    // recovers.  No down span opens, so the replica keeps serving
    // and every slowed round is priced at the multiplier.
    fault::FaultSchedule slowdown;
    fault::FaultEvent onset;
    onset.time_s = 0.05;
    onset.kind = fault::FaultKind::ChipSlowdown;
    onset.chip = 0;
    onset.factor = 3.0;
    fault::FaultEvent recovery;
    recovery.time_s = 0.30;
    recovery.kind = fault::FaultKind::SlowdownRecovery;
    recovery.chip = 0;
    slowdown.events.push_back(onset);
    slowdown.events.push_back(recovery);

    std::vector<FaultCase> cases;
    cases.push_back({ "empty", {} });
    cases.push_back({ "chip-loss", { {}, loss } });
    cases.push_back({ "link-degrade", { degrade } });
    cases.push_back({ "slowdown", { slowdown } });
    return cases;
}

/** Replay under a scoped registry; return (metrics, report). */
std::pair<fleet::FleetMetrics, std::string>
replay(const fleet::FleetSimulator &fleet,
       const std::vector<serve::Request> &trace,
       const fleet::FleetRunOptions &run)
{
    obs::Registry local;
    fleet::FleetMetrics m;
    {
        obs::ScopedRegistry scope(local);
        m = fleet.run(trace, run);
    }
    return { std::move(m),
             obs::RunReport::capture(local).toString() };
}

/**
 * The fleet grid pinned as data: one frozen digest line per
 * (seed, policy, fault case) cell, covering the FleetMetrics with
 * every replica ledger and the captured RunReport.
 */
TEST(ReplayDiff, FleetGridMatchesFrozenDigests)
{
    const auto fleet = fleet::FleetSimulator::uniform(
        3, multichip::edgeCluster(1), model::t5Small(),
        diffWorkload(), test::fastFleet());

    const auto cases = faultCases();
    std::string lines;
    for (const std::uint64_t seed : { 1u, 2u, 3u }) {
        const auto trace =
            serve::generateWorkload(diffWorkload(), seed);
        for (const fleet::PolicyKind policy :
             fleet::allPolicies()) {
            for (const FaultCase &fc : cases) {
                fleet::FleetRunOptions run;
                run.policy = policy;
                run.seed = seed;
                run.faults = fc.faults;
                const auto [m, report] = replay(fleet, trace, run);
                lines += test::digestLine(
                    "seed=" + std::to_string(seed) + " policy="
                        + fleet::toString(policy)
                        + " faults=" + fc.name,
                    test::canonicalDigest(m), report);
            }
        }
    }
    test::expectMatchesDigests("replay_digests_fleet_grid", lines);
}

/** The serve layer alone, below any router, pinned as data. */
TEST(ReplayDiff, ServeMatchesFrozenDigests)
{
    const auto wl = diffWorkload();
    const serve::ServeSimulator sim(arch::edgeArch(),
                                    model::t5Small(), wl,
                                    test::fastServe());
    std::string lines;
    for (const std::uint64_t seed : { 1u, 7u, 23u }) {
        obs::Registry local;
        serve::ServeMetrics m;
        {
            obs::ScopedRegistry scope(local);
            m = sim.run(serve::generateWorkload(wl, seed));
        }
        lines += test::digestLine(
            "seed=" + std::to_string(seed), test::canonicalDigest(m),
            obs::RunReport::capture(local).toString());
    }
    test::expectMatchesDigests("replay_digests_serve", lines);
}

/**
 * Cache transparency: calibrating with the CostTableCache disabled
 * (every Evaluator table recomputed) and calibrating through the
 * cache produce bitwise-identical construction reports and replay
 * metrics.  The disabled run goes first so this test cannot be
 * satisfied by two hits on one stale entry.
 */
TEST(ReplayDiff, CostTableCacheIsObservablyTransparent)
{
    const auto cluster = multichip::edgeCluster(1);
    const auto cfg = model::t5Small();
    const auto wl = diffWorkload();
    const auto opts = test::fastFleet();
    const auto trace = serve::generateWorkload(wl, 5);
    fleet::FleetRunOptions run;
    run.policy = fleet::PolicyKind::PowerOfTwo;
    run.seed = 5;

    const auto build = [&]() {
        obs::Registry local;
        fleet::FleetMetrics m;
        std::string construction;
        {
            obs::ScopedRegistry scope(local);
            const auto fleet = fleet::FleetSimulator::uniform(
                2, cluster, cfg, wl, opts);
            construction =
                obs::RunReport::capture(local).toString();
            m = fleet.run(trace, run);
        }
        return std::make_pair(
            construction + "\n---\n"
                + obs::RunReport::capture(local).toString(),
            std::move(m));
    };

    std::string uncached_report;
    fleet::FleetMetrics uncached_metrics;
    {
        costmodel::CostTableCacheDisabled off;
        std::tie(uncached_report, uncached_metrics) = build();
    }
    const auto [cached_report, cached_metrics] = build();
    EXPECT_EQ(uncached_report, cached_report)
        << obs::RunReport::diff(uncached_report, cached_report);
    expectSameFleetMetrics(uncached_metrics, cached_metrics);
}

} // namespace
} // namespace transfusion
