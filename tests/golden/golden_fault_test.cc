/**
 * @file
 * Golden regression test for the fault-tolerance layer: the
 * RunReport of a degraded llama3-8B serving run (TP = 2, PP = 2 on
 * the 4-chip cloud cluster, one chip lost mid-trace) pins the
 * drain/retry accounting, the replanned degraded window, the
 * per-window attribution metrics, and the fault counters in one
 * reviewable file.
 *
 * Regenerate with scripts/update_golden.sh (or run this binary
 * with TRANSFUSION_UPDATE_GOLDEN=1) after an intentional change to
 * the fault model, the serve simulator, or the cluster presets.
 */

#include <string>

#include <gtest/gtest.h>

#include "fault/fault_server.hh"
#include "obs/obs.hh"
#include "obs/report.hh"
#include "serve/workload.hh"
#include "support/golden.hh"

namespace transfusion
{
namespace
{

/** Degraded llama3-8B serving run with every metric captured. */
std::string
degradedReport()
{
    serve::WorkloadOptions wl;
    wl.arrival_per_s = 4.0;
    wl.requests = 24;
    wl.prompt = { 256, 1024 };
    wl.output = { 32, 64 };

    fault::FaultServeOptions opts;
    opts.serve.strategy = schedule::StrategyKind::TransFusion;
    opts.serve.max_batch = 8;
    opts.serve.cost.evaluator.mcts.iterations = 128;
    opts.initial_spec = { /*tp=*/2, /*pp=*/2 };
    opts.plan_threads = 1;

    // One chip lost while arrivals are still streaming in: the
    // replan onto three survivors and the drained retries are all
    // part of the pinned report.
    fault::FaultSchedule faults;
    faults.events.push_back(
        { 1.0, fault::FaultKind::ChipLoss, 1 });

    obs::Registry local;
    {
        obs::ScopedRegistry scope(local);
        const fault::FaultTolerantServer server(
            multichip::cloudCluster(4), model::llama3_8b(), wl,
            opts);
        (void)server.run(serve::generateWorkload(wl, 13), faults);
    }
    return obs::RunReport::capture(local).toString();
}

TEST(GoldenFault, CloudLlama3OneChipLossDegradedServe)
{
    if (!TRANSFUSION_OBS_ENABLED)
        GTEST_SKIP() << "observability disabled "
                        "(TRANSFUSION_OBS=OFF): no report to pin";

    const std::string actual = degradedReport();
    ASSERT_FALSE(actual.empty())
        << "instrumentation produced no metrics";
    // The fault layer must actually have reported: event counters
    // and the per-window attribution gauges.
    EXPECT_NE(actual.find("fault"), std::string::npos);

    test::expectMatchesGolden("cloud_llama3_fault_chiploss", actual);
}

TEST(GoldenFault, DegradedReportIsReproducibleWithinProcess)
{
    if (!TRANSFUSION_OBS_ENABLED)
        GTEST_SKIP() << "observability disabled";
    EXPECT_EQ(degradedReport(), degradedReport());
}

} // namespace
} // namespace transfusion
