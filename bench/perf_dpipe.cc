/**
 * @file
 * google-benchmark microbenchmarks of the DPipe machinery itself:
 * DAG construction, bipartition enumeration, DP scheduling, and
 * the full pipeline search -- the costs a user pays per scheduled
 * layer.  BM_SchedulePipelinePerLayer times the kind-taking
 * schedulePipeline that evaluate() runs, over the sub-layer's
 * constant plan skeleton; BM_BuildPlanSkeleton times the one-time
 * skeleton build that the per-layer path never repeats.
 */

#include <benchmark/benchmark.h>

#include "arch/arch.hh"
#include "dpipe/partition.hh"
#include "dpipe/pipeline.hh"
#include "dpipe/plan_skeleton.hh"
#include "model/cascades.hh"

namespace
{

using namespace transfusion;

void
BM_BuildMhaDag(benchmark::State &state)
{
    const auto cascade = model::buildMhaCascade();
    for (auto _ : state)
        benchmark::DoNotOptimize(cascade.buildDag());
}
BENCHMARK(BM_BuildMhaDag);

void
BM_EnumerateBipartitionsMha(benchmark::State &state)
{
    const auto dag = model::buildMhaCascade().buildDag();
    for (auto _ : state)
        benchmark::DoNotOptimize(dpipe::enumerateBipartitions(dag));
}
BENCHMARK(BM_EnumerateBipartitionsMha);

void
BM_DpScheduleMha(benchmark::State &state)
{
    const auto cfg = model::bertBase();
    const auto arch = arch::cloudArch();
    const auto dims = model::makeDims(cfg, 4096, 256, 16);
    const auto cascade = model::buildMhaCascade();
    const auto dag = cascade.buildDag();

    std::vector<dpipe::OpLatencyPair> lat;
    for (const auto &op : cascade.ops()) {
        lat.push_back({
            costmodel::opLatencySeconds(op, dims, arch,
                                        costmodel::PeTarget::Array2d),
            costmodel::opLatencySeconds(op, dims, arch,
                                        costmodel::PeTarget::Array1d),
        });
    }
    const auto order = dag.topoSort();
    for (auto _ : state)
        benchmark::DoNotOptimize(dpipe::dpSchedule(dag, order, lat));
}
BENCHMARK(BM_DpScheduleMha);

void
BM_SchedulePipelinePerLayer(benchmark::State &state)
{
    const auto cfg = model::bertBase();
    const auto arch = arch::cloudArch();
    const auto dims = model::makeDims(cfg, 4096, 256, 16);
    const auto kind =
        static_cast<model::LayerKind>(state.range(0));
    const auto cascade = model::buildCascade(kind, cfg);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            dpipe::schedulePipeline(kind, cascade, dims, arch));
    }
}
BENCHMARK(BM_SchedulePipelinePerLayer)
    ->DenseRange(0, 3)
    ->Unit(benchmark::kMicrosecond);

void
BM_BuildPlanSkeleton(benchmark::State &state)
{
    const auto kind =
        static_cast<model::LayerKind>(state.range(0));
    const auto dag =
        model::buildCascade(kind, model::bertBase()).buildDag();
    for (auto _ : state)
        benchmark::DoNotOptimize(
            dpipe::buildPlanSkeleton(dag, dpipe::kMaxOrders));
}
BENCHMARK(BM_BuildPlanSkeleton)
    ->DenseRange(0, 3)
    ->Unit(benchmark::kMicrosecond);

void
BM_TopoOrderEnumeration(benchmark::State &state)
{
    const auto dag = model::buildMhaCascade().buildDag();
    const std::size_t cap =
        static_cast<std::size_t>(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(dag.enumerateTopoOrders(cap));
}
BENCHMARK(BM_TopoOrderEnumeration)->Arg(16)->Arg(64)->Arg(256);

} // namespace

BENCHMARK_MAIN();
