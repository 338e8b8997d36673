/**
 * @file
 * Integration tests of the full serve path: threaded scenario
 * replay is bit-identical for any thread count, and tail latency
 * responds monotonically to offered load.  These are the TSan'd
 * "Serve" tests scripts/check.sh runs.
 */

#include <gtest/gtest.h>

#include "obs/obs.hh"
#include "obs/report.hh"
#include "serve/simulator.hh"
#include "support/replay_equality.hh"

namespace transfusion::serve
{
namespace
{

WorkloadOptions
baseWorkload()
{
    WorkloadOptions wl;
    wl.arrival_per_s = 1.0;
    wl.requests = 64;
    wl.prompt = { 128, 1024 };
    wl.output = { 8, 64 };
    return wl;
}

ServeSimulator
makeSim()
{
    ServeOptions o;
    o.strategy = schedule::StrategyKind::FuseMax;
    o.max_batch = 4;
    o.cost.cache_samples = 3;
    o.cost.prefill_samples = 3;
    o.cost.evaluator.mcts.iterations = 64;
    return ServeSimulator(arch::edgeArch(), model::t5Small(),
                          baseWorkload(), o);
}

TEST(ServeReplay, BitIdenticalAcrossThreadCounts)
{
    const auto sim = makeSim();
    std::vector<ServeScenario> scenarios;
    for (double rate : { 0.5, 4.0, 32.0 }) {
        for (std::uint64_t seed : { 1ULL, 99ULL }) {
            ServeScenario s;
            s.workload = baseWorkload();
            s.workload.arrival_per_s = rate;
            s.seed = seed;
            scenarios.push_back(s);
        }
    }
    const auto serial = runScenarios(sim, scenarios, 1);
    const auto parallel = runScenarios(sim, scenarios, 4);
    ASSERT_EQ(serial.size(), scenarios.size());
    ASSERT_EQ(parallel.size(), scenarios.size());
    for (std::size_t i = 0; i < scenarios.size(); ++i)
        test::expectSameServeMetrics(serial[i], parallel[i]);
}

TEST(ServeReplay, ThreadedReplayMatchesDirectRun)
{
    const auto sim = makeSim();
    std::vector<ServeScenario> scenarios(3);
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        scenarios[i].workload = baseWorkload();
        scenarios[i].seed = 100 + i;
    }
    const auto fanned = runScenarios(sim, scenarios, 4);
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        const auto direct = sim.run(generateWorkload(
            scenarios[i].workload, scenarios[i].seed));
        test::expectSameServeMetrics(fanned[i], direct);
    }
}

TEST(ServeReplay, ObsReportBitIdenticalAcrossThreadCounts)
{
    // The determinism-merge rule end to end: runScenarios records
    // each replay into a task-local registry and merges in scenario
    // order, so the aggregated observability report is bit-for-bit
    // the same no matter how the pool interleaved the replays.
    const auto sim = makeSim();
    std::vector<ServeScenario> scenarios;
    for (double rate : { 0.5, 8.0, 64.0 }) {
        for (std::uint64_t seed : { 3ULL, 41ULL }) {
            ServeScenario s;
            s.workload = baseWorkload();
            s.workload.arrival_per_s = rate;
            s.seed = seed;
            scenarios.push_back(s);
        }
    }
    const auto report = [&](int threads) {
        obs::Registry local;
        {
            obs::ScopedRegistry scope(local);
            (void)runScenarios(sim, scenarios, threads);
        }
        return obs::RunReport::capture(local).toString();
    };
    const std::string serial = report(1);
    const std::string fanned = report(4);
    EXPECT_EQ(serial, fanned);
#if TRANSFUSION_OBS_ENABLED
    EXPECT_FALSE(serial.empty());
    EXPECT_NE(serial.find("counter/serve/replays = 6"),
              std::string::npos);
#else
    EXPECT_TRUE(serial.empty());
#endif
}

TEST(ServeReplay, TailLatencyMonotoneInOfferedLoad)
{
    const auto sim = makeSim();
    // Same seed: lengths are identical, arrival gaps scale with
    // the rate, so rising load only compresses arrivals.
    std::vector<ServeScenario> scenarios;
    for (double rate : { 0.02, 2.0, 200.0 }) {
        ServeScenario s;
        s.workload = baseWorkload();
        s.workload.arrival_per_s = rate;
        s.seed = 7;
        scenarios.push_back(s);
    }
    const auto r = runScenarios(sim, scenarios, 2);
    for (std::size_t i = 1; i < r.size(); ++i) {
        EXPECT_GE(r[i].latency_s.percentile(99),
                  r[i - 1].latency_s.percentile(99));
        EXPECT_GE(r[i].peak_queue, r[i - 1].peak_queue);
    }
    // Saturation is visible: the hottest load point queues hard.
    EXPECT_GT(r.back().queue_wait_s.percentile(99), 0.0);
    EXPECT_GT(r.back().peak_queue, 0);
}

} // namespace
} // namespace transfusion::serve
