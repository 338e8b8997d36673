/**
 * @file
 * google-benchmark microbenchmarks of the observability layer's
 * per-update costs: a literal-named counter add (the TF_COUNT hot
 * path: a cached id and an array update), a dynamic-name add (a
 * metricKey intern per update), the prefixed fold of a 20-metric
 * replica registry (what FleetRun::finish does per replica), and a
 * CostTableCache hit, which replays its build's recorded deltas.
 * The dynamic-name add and the fold also run on 4 threads, each
 * into its own registry, as the planner's workers do: what they
 * share is the process-wide name table.
 *
 *   ./build/bench/perf_obs --benchmark_min_time=0.2
 *
 * With -DTRANSFUSION_OBS=OFF the two macro benchmarks measure an
 * empty loop.
 */

#include <cstdint>
#include <string>

#include <benchmark/benchmark.h>

#include "costmodel/cost_table_cache.hh"
#include "obs/obs.hh"

namespace
{

using namespace transfusion;

void
BM_CounterAddLiteral(benchmark::State &state)
{
    obs::Registry reg;
    obs::ScopedRegistry scope(reg);
    for (auto _ : state)
        TF_COUNT("perf/literal", 1);
}
BENCHMARK(BM_CounterAddLiteral);

void
BM_CounterAddDynamic(benchmark::State &state)
{
    obs::Registry reg;
    obs::ScopedRegistry scope(reg);
    std::int64_t i = 0;
    for (auto _ : state)
        TF_COUNT_ID(obs::metricKey("perf/window", i++ % 16, "tokens"),
                    1);
}
BENCHMARK(BM_CounterAddDynamic)->Threads(1)->Threads(4);

/** A replica-sized registry: 20 serve-style metrics of each kind
 *  the serve session finish records. */
obs::Registry
replicaRegistry()
{
    obs::Registry reg;
    for (int i = 0; i < 12; ++i)
        reg.counterAdd("perf/serve.counter." + std::to_string(i), i);
    for (int i = 0; i < 5; ++i)
        reg.gaugeAdd("perf/serve.gauge." + std::to_string(i), 0.5 * i);
    for (int i = 0; i < 3; ++i)
        reg.gaugeMax("perf/serve.peak." + std::to_string(i), 1.0 * i);
    return reg;
}

void
BM_FoldReplicaRegistry(benchmark::State &state)
{
    const obs::Registry replica = replicaRegistry();
    obs::Registry sink;
    const obs::MetricPrefix prefix =
        obs::internPrefix("perf/fleet/replica.3.");
    for (auto _ : state)
        sink.mergePrefixed(replica, prefix);
}
BENCHMARK(BM_FoldReplicaRegistry)->Threads(1)->Threads(4);

/** A test-private cost-table key: only this benchmark uses it. */
struct PerfObsKey
{
    using Value = int;
    int id = 0;
    bool operator==(const PerfObsKey &) const = default;
};

void
BM_CacheHitReplay(benchmark::State &state)
{
    auto &cache = costmodel::CostTableCache::instance();
    const PerfObsKey key{ 1 };
    const auto build = [] {
        obs::currentRegistry().merge(replicaRegistry());
        return 1;
    };
    obs::Registry reg;
    obs::ScopedRegistry scope(reg);
    (void)cache.getOrBuild<PerfObsKey>(key, build); // the miss
    for (auto _ : state)
        benchmark::DoNotOptimize(cache.getOrBuild<PerfObsKey>(key, build));
}
BENCHMARK(BM_CacheHitReplay);

} // namespace

BENCHMARK_MAIN();
