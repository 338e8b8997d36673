/**
 * @file
 * google-benchmark microbenchmarks of the simulation core: the
 * serve round loop alone, the same replay stepped to every arrival
 * as a fleet boundary steps it, and inside the fleet loop on the
 * saturating 8-replica power-of-two scenario, fault-free and under
 * gray failures.  Each benchmark reports `rounds_per_s` —
 * scheduler rounds (prefill + decode) retired per wall-clock
 * second (the README's performance table comes from this binary).
 *
 * Replays only are timed: calibration happens once in setup (and
 * the CostTableCache collapses repeated setups).
 */

#include <cstdint>
#include <limits>
#include <memory>

#include <benchmark/benchmark.h>

#include "fault/fault_schedule.hh"
#include "fleet/fleet_sim.hh"
#include "serve/workload.hh"

namespace
{

using namespace transfusion;

/** Burst that saturates the replicas: deep queues, full batches,
 *  and thousands of rounds per replay. */
serve::WorkloadOptions
saturatingWorkload(int requests)
{
    serve::WorkloadOptions wl;
    wl.arrival_per_s = 400.0;
    wl.requests = requests;
    wl.prompt = { 128, 256 };
    wl.output = { 64, 128 };
    return wl;
}

serve::ServeOptions
serveOptions()
{
    serve::ServeOptions o;
    o.strategy = schedule::StrategyKind::TransFusion;
    o.max_batch = 8;
    o.cost.cache_samples = 3;
    o.cost.prefill_samples = 3;
    o.cost.evaluator.mcts.iterations = 32;
    return o;
}

/** One serve replay per iteration; rounds_per_s is the figure. */
void
BM_ServeCoreReplay(benchmark::State &state)
{
    const auto wl = saturatingWorkload(256);
    const serve::ServeSimulator sim(arch::edgeArch(),
                                    model::t5Small(), wl,
                                    serveOptions());
    const auto trace = serve::generateWorkload(wl, 1);

    std::int64_t rounds = 0;
    for (auto _ : state) {
        const auto m = sim.run(trace);
        rounds += m.prefill_rounds + m.decode_rounds;
        benchmark::DoNotOptimize(m.makespan_s);
    }
    state.counters["rounds_per_s"] = benchmark::Counter(
        static_cast<double>(rounds), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ServeCoreReplay)
    ->Unit(benchmark::kMillisecond);

/**
 * BM_ServeCoreReplay's replay in one session advanced to every
 * arrival and then to the end, as a fleet boundary advances a
 * replica: the gap to BM_ServeCoreReplay is the fixed cost of an
 * advance() call, apart from any fleet bookkeeping.
 */
void
BM_ServeSessionPerArrival(benchmark::State &state)
{
    const auto wl = saturatingWorkload(256);
    const serve::ServeSimulator sim(arch::edgeArch(),
                                    model::t5Small(), wl,
                                    serveOptions());
    const auto trace = serve::generateWorkload(wl, 1);

    std::int64_t rounds = 0;
    for (auto _ : state) {
        serve::ServeSession s = sim.startSession(trace);
        for (const serve::Request &r : trace)
            sim.advance(s, r.arrival_s);
        sim.advance(s, std::numeric_limits<double>::infinity());
        const auto m = sim.finishSession(s);
        rounds += m.prefill_rounds + m.decode_rounds;
        benchmark::DoNotOptimize(m.makespan_s);
    }
    state.counters["rounds_per_s"] = benchmark::Counter(
        static_cast<double>(rounds), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ServeSessionPerArrival)
    ->Unit(benchmark::kMillisecond);

constexpr int kReplicas = 8;

/**
 * One fleet replay per iteration: 8 single-chip replicas behind
 * power-of-two routing under a saturating burst, with `run`'s
 * fault schedules.
 */
void
replayFleet(benchmark::State &state, fleet::FleetRunOptions run)
{
    const auto wl = saturatingWorkload(256);
    fleet::FleetOptions opts;
    opts.serve = serveOptions();
    opts.threads = 1;
    opts.plan_threads = 1;
    const auto fleet = fleet::FleetSimulator::uniform(
        kReplicas, multichip::edgeCluster(1), model::t5Small(), wl,
        opts);
    const auto trace = serve::generateWorkload(wl, 1);
    run.policy = fleet::PolicyKind::PowerOfTwo;
    run.seed = 1;

    std::int64_t rounds = 0;
    for (auto _ : state) {
        const auto m = fleet.run(trace, run);
        for (const auto &r : m.replicas)
            rounds += r.prefill_rounds + r.decode_rounds;
        benchmark::DoNotOptimize(m.makespan_s);
    }
    state.counters["rounds_per_s"] = benchmark::Counter(
        static_cast<double>(rounds), benchmark::Counter::kIsRate);
}

/** The fault-free fleet scenario. */
void
BM_FleetP2c8Replicas(benchmark::State &state)
{
    replayFleet(state, {});
}
BENCHMARK(BM_FleetP2c8Replicas)
    ->Unit(benchmark::kMillisecond);

/**
 * The fleet scenario under active gray failures: every replica
 * carries a generated chip-slowdown schedule, so the replay pays
 * the fault-boundary machinery (timeline cursors, session
 * multiplier swaps) while it retires rounds.  Keeps the figure
 * honest — a win that evaporates the moment faults fire would be a
 * fair-weather win.
 */
void
BM_FleetSlowdownFaults(benchmark::State &state)
{
    fault::FaultScheduleOptions fs;
    fs.incidents = 4;
    fs.horizon_s = 4.0;
    fs.link_degrade_prob = 0.0;
    fs.slowdown_prob = 1.0; // slowdown-only: nothing goes down
    fs.mean_slowdown_s = 1.0;
    fs.max_multiplier = 4.0;
    fleet::FleetRunOptions run;
    run.faults.resize(kReplicas);
    for (int r = 0; r < kReplicas; ++r)
        run.faults[static_cast<std::size_t>(r)] =
            fault::generateFaultSchedule(
                fs, 1, 7 + static_cast<std::uint64_t>(r));
    replayFleet(state, run);
}
BENCHMARK(BM_FleetSlowdownFaults)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
