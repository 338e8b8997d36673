/**
 * @file
 * google-benchmark microbenchmarks of the evaluator stack itself:
 * how long one full evaluation point costs per strategy, and how
 * the TileSeek budget scales it.  These are the costs a user pays
 * per design-space point when sweeping with this library.
 */

#include <benchmark/benchmark.h>

#include "schedule/decode.hh"
#include "schedule/evaluator.hh"
#include "schedule/stack_evaluator.hh"
#include "schedule/sweep.hh"
#include "sim/compare.hh"

namespace
{

using namespace transfusion;

schedule::EvaluatorOptions
optionsWith(int mcts_iterations)
{
    schedule::EvaluatorOptions o;
    o.mcts.iterations = mcts_iterations;
    return o;
}

void
BM_EvaluateStrategy(benchmark::State &state)
{
    const auto kind =
        static_cast<schedule::StrategyKind>(state.range(0));
    schedule::Evaluator eval(arch::cloudArch(), model::bertBase(),
                             16384, optionsWith(512));
    for (auto _ : state)
        benchmark::DoNotOptimize(eval.evaluate(kind));
}
BENCHMARK(BM_EvaluateStrategy)
    ->DenseRange(0, 4)
    ->Unit(benchmark::kMillisecond);

void
BM_EvaluatePointAllStrategies(benchmark::State &state)
{
    schedule::Evaluator eval(arch::edgeArch(), model::llama3_8b(),
                             65536, optionsWith(512));
    for (auto _ : state) {
        for (auto kind : schedule::allStrategies())
            benchmark::DoNotOptimize(eval.evaluate(kind));
    }
}
BENCHMARK(BM_EvaluatePointAllStrategies)
    ->Unit(benchmark::kMillisecond);

void
BM_TileSeekBudgetScaling(benchmark::State &state)
{
    schedule::Evaluator eval(
        arch::cloudArch(), model::llama3_8b(), 65536,
        optionsWith(static_cast<int>(state.range(0))));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            eval.evaluate(schedule::StrategyKind::TransFusion));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TileSeekBudgetScaling)
    ->Arg(256)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void
BM_SweepGrid(benchmark::State &state)
{
    // The figure-sweep workload: an all-models x four-seqlen grid
    // on one architecture, fanned across the sweep driver.  The
    // thread axis shows how every downstream experiment scales
    // with cores; results are bit-identical at every count.
    schedule::SweepOptions opts;
    opts.threads = static_cast<int>(state.range(0));
    opts.evaluator.mcts.iterations = 256;
    const schedule::Sweep sweep(opts);
    const auto points = schedule::Sweep::grid(
        { arch::edgeArch() }, model::allModels(),
        { 1 << 10, 4 << 10, 16 << 10, 64 << 10 });
    for (auto _ : state)
        benchmark::DoNotOptimize(sweep.run(points));
    state.SetItemsProcessed(
        state.iterations()
        * static_cast<std::int64_t>(points.size()));
}
BENCHMARK(BM_SweepGrid)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void
BM_StackEvaluation(benchmark::State &state)
{
    schedule::StackEvaluator eval(
        arch::cloudArch(),
        model::encoderDecoder(model::t5Small(), 6, 6), 16384,
        4096, optionsWith(512));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            eval.evaluate(schedule::StrategyKind::TransFusion));
    }
}
BENCHMARK(BM_StackEvaluation)->Unit(benchmark::kMillisecond);

void
BM_DecodeEvaluation(benchmark::State &state)
{
    schedule::DecodeEvaluator eval(arch::cloudArch(),
                                   model::bertBase(),
                                   { 16384, 1024 },
                                   optionsWith(256));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            eval.evaluate(schedule::StrategyKind::TransFusion));
    }
}
BENCHMARK(BM_DecodeEvaluation)->Unit(benchmark::kMillisecond);

void
BM_DecodeStepSample(benchmark::State &state)
{
    // One serve-calibration sample: a decode step of t5-small on
    // the edge chip, as the capacity planner prices thousands of
    // them per cold plan (an Evaluator built per sample).
    const schedule::DecodeEvaluator eval(
        arch::edgeArch(), model::t5Small(), { 1, 0 });
    for (auto _ : state) {
        benchmark::DoNotOptimize(eval.stepMetrics(
            1024, schedule::StrategyKind::TransFusion));
    }
}
BENCHMARK(BM_DecodeStepSample)->Unit(benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();
