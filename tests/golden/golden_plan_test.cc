/**
 * @file
 * Golden regression test for the capacity planner: the RunReport
 * of one small edge/T5-small search pins the per-candidate
 * prefixed fleet attribution ("plan/candidate.<i>."), the
 * enumeration order, the prune/simulate split, and the search
 * aggregates (frontier size, best cost) in one reviewable file.
 *
 * Regenerate with scripts/update_golden.sh (or run this binary
 * with TRANSFUSION_UPDATE_GOLDEN=1) after an intentional change to
 * the planner, the fleet event loop, the serve simulator, or the
 * cluster presets.
 */

#include <string>

#include <gtest/gtest.h>

#include "obs/obs.hh"
#include "obs/report.hh"
#include "plan/planner.hh"
#include "support/golden.hh"

namespace transfusion
{
namespace
{

/** Small edge search: heavy enough that the analytic bound prunes
 *  part of the space, light enough to finish in well under a
 *  second — both branches land in the pinned report. */
std::string
planReport()
{
    serve::WorkloadOptions wl;
    wl.arrival_per_s = 400.0;
    wl.requests = 48;
    wl.prompt = { 128, 256 };
    wl.output = { 64, 128 };

    plan::SloSpec slo;
    slo.p99_latency_s = 2.0;

    plan::PlannerOptions opts;
    opts.serve.max_batch = 4;
    opts.serve.cost.cache_samples = 3;
    opts.serve.cost.prefill_samples = 3;
    opts.serve.cost.evaluator.mcts.iterations = 32;
    opts.threads = 1;

    plan::SearchSpace space;
    space.clusters = { "edge" };
    space.chip_counts = { 1, 2 };
    space.replica_counts = { 1, 2 };
    space.policies = { fleet::PolicyKind::RoundRobin };

    obs::Registry local;
    {
        obs::ScopedRegistry scope(local);
        const plan::CapacityPlanner planner(model::t5Small(), wl,
                                            slo, opts);
        (void)planner.plan(space, 7);
    }
    return obs::RunReport::capture(local).toString();
}

TEST(GoldenPlan, EdgeT5SmallCapacitySearch)
{
    if (!TRANSFUSION_OBS_ENABLED)
        GTEST_SKIP() << "observability disabled "
                        "(TRANSFUSION_OBS=OFF): no report to pin";

    const std::string actual = planReport();
    ASSERT_FALSE(actual.empty())
        << "instrumentation produced no metrics";
    // The planner must actually have reported: the search
    // aggregates and the per-candidate prefixed attribution.
    EXPECT_NE(actual.find("plan/enumerated"), std::string::npos);
    EXPECT_NE(actual.find("plan/candidate.0."), std::string::npos);
    EXPECT_NE(actual.find("plan/frontier_size"),
              std::string::npos);

    test::expectMatchesGolden("edge_t5small_plan", actual);
}

TEST(GoldenPlan, PlanReportIsReproducibleWithinProcess)
{
    if (!TRANSFUSION_OBS_ENABLED)
        GTEST_SKIP() << "observability disabled";
    EXPECT_EQ(planReport(), planReport());
}

} // namespace
} // namespace transfusion
