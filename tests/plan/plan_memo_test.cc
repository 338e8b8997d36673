/**
 * @file
 * Differential tests for DPipe's plan memo: a capacity plan and a
 * re-planning fault-tolerant replay give the same results and the
 * same RunReport whether DPipe plans are memoized inside cost-table
 * builds (a cleared cache) or every table is recomputed
 * (CostTableCacheDisabled).  Both runs must actually hit the memo,
 * so neither comparison can pass vacuously, and a figure sweep,
 * which runs no cost-table build, must never touch it.
 */

#include <string>

#include <gtest/gtest.h>

#include "costmodel/cost_table_cache.hh"
#include "fault/fault_server.hh"
#include "obs/obs.hh"
#include "obs/report.hh"
#include "plan/planner.hh"
#include "schedule/sweep.hh"
#include "serve/workload.hh"
#include "support/replay_equality.hh"

namespace transfusion
{
namespace
{

using costmodel::CostTableCache;
using costmodel::CostTableCacheDisabled;

/** One job run uncached and cached: reports, results, memo hits. */
template <class Result>
struct Differential
{
    std::string uncached_report, cached_report;
    Result uncached, cached;
    std::int64_t nested_hits = 0;
};

/**
 * Run `job` twice -- uncached first, then on a cleared cache -- and
 * record both RunReports and results, plus the in-build lookups the
 * cached run served from the memo.
 */
template <class Result, class Job>
Differential<Result>
runDifferential(const Job &job)
{
    Differential<Result> d;
    const auto capture = [&](Result &out) {
        obs::Registry local;
        {
            obs::ScopedRegistry scope(local);
            out = job();
        }
        return obs::RunReport::capture(local).toString();
    };
    {
        const CostTableCacheDisabled off;
        d.uncached_report = capture(d.uncached);
    }
    CostTableCache::instance().clear();
    d.cached_report = capture(d.cached);
    d.nested_hits = CostTableCache::instance().stats().nested_hits;
    return d;
}

TEST(PlanMemo, CapacityPlanIsIdenticalWithAndWithoutTheMemo)
{
    serve::WorkloadOptions wl;
    wl.arrival_per_s = 40.0;
    wl.requests = 48;
    wl.prompt = { 128, 256 };
    wl.output = { 16, 32 };
    plan::SloSpec slo;
    slo.p99_latency_s = 2.0;
    plan::PlannerOptions opts;
    opts.serve = test::fastServe();
    opts.threads = 2;
    plan::SearchSpace space;
    space.clusters = { "edge" };
    space.chip_counts = { 1, 2 };
    space.replica_counts = { 1, 2 };
    space.policies = { fleet::PolicyKind::RoundRobin };
    const plan::CapacityPlanner planner(model::t5Small(), wl, slo,
                                        opts);

    const auto d = runDifferential<plan::PlanResult>(
        [&] { return planner.plan(space, 7); });
    EXPECT_GT(d.nested_hits, 0) << "the plan never hit the memo";
    EXPECT_EQ(d.uncached_report, d.cached_report)
        << obs::RunReport::diff(d.uncached_report, d.cached_report);
    EXPECT_EQ(d.uncached.frontier, d.cached.frontier);
    EXPECT_EQ(d.uncached.best, d.cached.best);
    ASSERT_EQ(d.uncached.candidates.size(), d.cached.candidates.size());
    for (std::size_t i = 0; i < d.cached.candidates.size(); ++i) {
        const plan::CandidateOutcome &x = d.uncached.candidates[i];
        const plan::CandidateOutcome &y = d.cached.candidates[i];
        EXPECT_EQ(x.status, y.status) << i;
        EXPECT_EQ(x.objectives.cost, y.objectives.cost) << i;
        EXPECT_EQ(x.objectives.p99_latency_s,
                  y.objectives.p99_latency_s)
            << i;
        EXPECT_EQ(x.objectives.throughput_rps,
                  y.objectives.throughput_rps)
            << i;
        EXPECT_EQ(x.why, y.why) << i;
    }
}

TEST(PlanMemo, ReplanningFaultReplayIsIdenticalWithAndWithoutTheMemo)
{
    const auto cluster = multichip::edgeCluster(2);
    serve::WorkloadOptions wl;
    wl.arrival_per_s = 2.0;
    wl.requests = 16;
    wl.prompt = { 128, 256 };
    wl.output = { 16, 32 };
    fault::FaultServeOptions opts;
    opts.serve = test::fastServe();
    opts.initial_spec = { 2, 1 };
    opts.plan_threads = 2;
    const auto trace = serve::generateWorkload(wl, 7);
    fault::FaultSchedule faults;
    faults.events.push_back({ 2.0, fault::FaultKind::ChipLoss, 0 });
    faults.events.push_back({ 6.0, fault::FaultKind::ChipRecovery, 0 });

    const auto d = runDifferential<fault::FaultServeMetrics>([&] {
        const fault::FaultTolerantServer server(cluster,
                                                model::t5Small(), wl,
                                                opts);
        return server.run(trace, faults);
    });
    ASSERT_GT(d.cached.replans, 0) << "the replay never re-planned";
    EXPECT_GT(d.nested_hits, 0) << "the replay never hit the memo";
    EXPECT_EQ(d.uncached_report, d.cached_report)
        << obs::RunReport::diff(d.uncached_report, d.cached_report);
    test::expectSameServeMetrics(d.uncached.serve, d.cached.serve);
    EXPECT_EQ(d.uncached.replans, d.cached.replans);
    EXPECT_EQ(d.uncached.retries, d.cached.retries);
    EXPECT_EQ(d.uncached.degraded_s, d.cached.degraded_s); // bitwise
    ASSERT_EQ(d.uncached.windows.size(), d.cached.windows.size());
    for (std::size_t i = 0; i < d.cached.windows.size(); ++i) {
        EXPECT_EQ(d.uncached.windows[i].spec.tp,
                  d.cached.windows[i].spec.tp);
        EXPECT_EQ(d.uncached.windows[i].spec.pp,
                  d.cached.windows[i].spec.pp);
        EXPECT_EQ(d.uncached.windows[i].tokens,
                  d.cached.windows[i].tokens);
    }
}

TEST(PlanMemo, SweepsNeverReachTheMemo)
{
    // A sweep evaluates outside any cost-table build, so DPipe
    // prices directly and the cache sees no in-build lookup.
    CostTableCache::instance().clear();
    schedule::SweepOptions opts;
    opts.threads = 2;
    opts.evaluator.mcts.iterations = 32;
    const schedule::Sweep sweep(opts);
    const auto results = sweep.run(schedule::Sweep::grid(
        { arch::edgeArch() }, { model::t5Small() }, { 512, 1024 }));
    ASSERT_EQ(results.size(), 2u);
    const auto stats = CostTableCache::instance().stats();
    EXPECT_EQ(stats.nested_hits, 0);
    EXPECT_EQ(stats.nested_misses, 0);
}

} // namespace
} // namespace transfusion
