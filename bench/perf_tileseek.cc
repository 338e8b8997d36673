/**
 * @file
 * google-benchmark microbenchmarks of TileSeek: the Table 2 buffer
 * model, MCTS search throughput at several iteration budgets, one
 * headline-grid cell's search as the figure sweep runs it, and the
 * exhaustive reference on a reduced space.
 */

#include <benchmark/benchmark.h>

#include "arch/arch.hh"
#include "bench_util.hh"
#include "model/transformer.hh"
#include "schedule/evaluator.hh"
#include "schedule/tiling.hh"
#include "tileseek/buffer_model.hh"
#include "tileseek/mcts.hh"

namespace
{

using namespace transfusion;

void
BM_BufferModelPeak(benchmark::State &state)
{
    tileseek::TileShape t;
    t.b = 2;
    t.d = 256;
    t.p = 512;
    t.m1 = 4;
    t.m0 = 64;
    t.s = 512;
    t.h = 32;
    t.e = 128;
    t.f = 128;
    t.p_prime = 256;
    for (auto _ : state)
        benchmark::DoNotOptimize(tileseek::peakBufferWords(t));
}
BENCHMARK(BM_BufferModelPeak);

void
BM_SeekTileIterations(benchmark::State &state)
{
    const auto arch = arch::cloudArch();
    const auto cfg = model::llama3_8b();
    tileseek::MctsOptions opts;
    opts.iterations = static_cast<int>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            schedule::seekTile(arch, cfg, 65536, 1.0, opts));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SeekTileIterations)
    ->Arg(256)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void
BM_SeekTileSweepCell(benchmark::State &state)
{
    // One headline-grid cell's tile search exactly as the figure
    // sweep runs it: the real tiling space, the sweep's MCTS options
    // (2,048 iterations, one tree) and the cell's own compute hint,
    // the per-layer compute time of its TransFusion plan.
    const auto arch = arch::cloudArch();
    const auto cfg = model::llama3_8b();
    const std::int64_t seq = 65536;
    const auto opts = bench::sweepOptions().evaluator;
    const double hint =
        schedule::Evaluator(arch, cfg, seq, opts)
            .evaluate(schedule::StrategyKind::TransFusion)
            .total.compute_s
        / static_cast<double>(cfg.layers);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            schedule::seekTile(arch, cfg, seq, hint, opts.mcts));
    }
    state.SetItemsProcessed(state.iterations() * opts.mcts.iterations);
}
BENCHMARK(BM_SeekTileSweepCell)->Unit(benchmark::kMillisecond);

void
BM_MctsRawIterations(benchmark::State &state)
{
    // Pure search-tree overhead on a synthetic objective.
    tileseek::SearchSpace space;
    space.level_names = { "a", "b", "c", "d" };
    space.choices = {
        { 1, 2, 4, 8, 16, 32 },
        { 1, 2, 4, 8, 16, 32 },
        { 1, 2, 4, 8, 16, 32 },
        { 1, 2, 4, 8, 16, 32 },
    };
    auto feasible = [](const tileseek::Assignment &a) {
        return a[0] * a[1] <= 256;
    };
    auto cost = [](const tileseek::Assignment &a) {
        return 1.0 + static_cast<double>(a[0] + a[1] + a[2] + a[3]);
    };
    tileseek::MctsOptions opts;
    opts.iterations = static_cast<int>(state.range(0));
    for (auto _ : state) {
        tileseek::TileSeek seeker(space, feasible, cost, opts);
        benchmark::DoNotOptimize(seeker.search());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MctsRawIterations)->Arg(1024)->Arg(8192);

void
BM_RootParallelTileSeek(benchmark::State &state)
{
    // Root-parallel search: K independent trees, each a full
    // iteration budget, merged by best cost.  Deterministic in
    // (seed, K); the thread axis shows the scaling headroom.
    const auto arch = arch::cloudArch();
    const auto cfg = model::llama3_8b();
    tileseek::MctsOptions opts;
    opts.iterations = 1024;
    opts.threads = static_cast<int>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            schedule::seekTile(arch, cfg, 65536, 1.0, opts));
    }
    state.SetItemsProcessed(state.iterations() * opts.iterations
                            * opts.threads);
}
BENCHMARK(BM_RootParallelTileSeek)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void
BM_ExhaustiveReducedSpace(benchmark::State &state)
{
    tileseek::SearchSpace space;
    space.level_names = { "a", "b", "c" };
    space.choices = {
        { 1, 2, 4, 8, 16, 32 },
        { 1, 2, 4, 8, 16, 32 },
        { 1, 2, 4, 8, 16, 32 },
    };
    auto feasible = [](const tileseek::Assignment &) {
        return true;
    };
    auto cost = [](const tileseek::Assignment &a) {
        return 1.0 / static_cast<double>(a[0] * a[1] * a[2]);
    };
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            tileseek::exhaustiveSearch(space, feasible, cost));
    }
}
BENCHMARK(BM_ExhaustiveReducedSpace);

} // namespace

BENCHMARK_MAIN();
