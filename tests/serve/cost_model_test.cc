/**
 * @file
 * Unit tests for the calibrated serve cost tables.
 */

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/cost_model.hh"

namespace transfusion::serve
{
namespace
{

ServeCostOptions
fastCost()
{
    ServeCostOptions o;
    o.cache_samples = 3;
    o.prefill_samples = 3;
    o.evaluator.mcts.iterations = 64;
    return o;
}

TEST(ServeCostModel, MatchesDecodeEvaluatorAtCalibratedPoints)
{
    const auto arch = arch::edgeArch();
    const auto cfg = model::t5Small();
    const auto kind = schedule::StrategyKind::FuseMax;
    const auto opts = fastCost();
    const ServeCostModel cm(arch, cfg, kind, /*max_batch=*/4,
                            /*max_context=*/2048,
                            /*max_prompt=*/1024, opts);

    // The (batch=2, cache=64) grid node must reproduce the public
    // per-step API it was calibrated from.
    model::TransformerConfig two = cfg;
    two.batch = 2;
    const schedule::DecodeEvaluator deval(arch, two, { 1, 0 },
                                          opts.evaluator);
    const double direct = deval.stepMetrics(64, kind).latency_s;
    EXPECT_NEAR(cm.decodeStepSeconds(2, 64.0), direct,
                1e-12 * direct);
}

TEST(ServeCostModel, MonotoneInCacheBatchAndPrompt)
{
    const ServeCostModel cm(
        arch::edgeArch(), model::t5Small(),
        schedule::StrategyKind::FuseMax, /*max_batch=*/8,
        /*max_context=*/4096, /*max_prompt=*/2048, fastCost());

    // Longer caches stream more KV words per step.
    EXPECT_LT(cm.decodeStepSeconds(4, 256),
              cm.decodeStepSeconds(4, 4096));
    // More lanes move more data per step (weights amortize, KV
    // does not).
    EXPECT_LT(cm.decodeStepSeconds(1, 1024),
              cm.decodeStepSeconds(8, 1024));
    // Longer prompts cost more prefill.
    EXPECT_LT(cm.prefillSeconds(128), cm.prefillSeconds(2048));
    // Batch clamps instead of extrapolating.
    EXPECT_DOUBLE_EQ(cm.decodeStepSeconds(64, 1024),
                     cm.decodeStepSeconds(8, 1024));
    EXPECT_GT(cm.decodeStepSeconds(1, 16.0), 0.0);
    EXPECT_GT(cm.prefillSeconds(1), 0.0);
}

TEST(ServeCostModel, OutOfGridQueriesClampToEndpointValues)
{
    // Injected pricing with a steep boundary slope: linear
    // extrapolation below the first cache grid point (64) crosses
    // zero, which once priced short caches at a zero-floored
    // 0 s/step.  The endpoint value is the honest bound.
    ServeCostOptions o;
    o.cache_samples = 3;
    o.prefill_samples = 3;
    const ServeCostModel cm(
        schedule::StrategyKind::FuseMax, /*max_batch=*/1,
        /*max_context=*/4096, /*max_prompt=*/4096, o,
        [](std::int64_t, std::int64_t len) {
            const double v =
                1e-6 * (static_cast<double>(len) - 60.0);
            return StepCost{ v, 2.0 * v };
        },
        [](std::int64_t prompt) {
            const double v =
                1e-6 * (static_cast<double>(prompt) - 60.0);
            return StepCost{ v, 2.0 * v };
        });
    // Below the grid: the len=64 endpoint, never an extrapolated
    // negative or zero price.
    EXPECT_DOUBLE_EQ(cm.decodeStepSeconds(1, 1.0), 4e-6);
    EXPECT_DOUBLE_EQ(cm.prefillSeconds(1), 4e-6);
    EXPECT_GT(cm.decodeStepSeconds(1, 1.0), 0.0);
    // Above the grid: the max_context endpoint.
    EXPECT_DOUBLE_EQ(cm.decodeStepSeconds(1, 1e9),
                     cm.decodeStepSeconds(1, 4096));
    // The joules table rides the same grid and clamping; the
    // injected pricing made energy exactly twice the seconds.
    EXPECT_DOUBLE_EQ(cm.decodeStepJoules(1, 1.0), 8e-6);
    EXPECT_DOUBLE_EQ(cm.prefillJoules(1), 8e-6);
    EXPECT_DOUBLE_EQ(cm.decodeStepJoules(1, 777.0),
                     2.0 * cm.decodeStepSeconds(1, 777.0));
    EXPECT_DOUBLE_EQ(cm.prefillJoules(512),
                     2.0 * cm.prefillSeconds(512));
}

TEST(ServeCostModel, EnergyTablesMatchTheEvaluatorAtGridPoints)
{
    const auto arch = arch::edgeArch();
    const auto cfg = model::t5Small();
    const auto kind = schedule::StrategyKind::FuseMax;
    const auto opts = fastCost();
    const ServeCostModel cm(arch, cfg, kind, /*max_batch=*/4,
                            /*max_context=*/2048,
                            /*max_prompt=*/1024, opts);

    // (batch=2, cache=64) is a calibrated grid node: the joules
    // lookup must reproduce the evaluator's energy exactly, and
    // positive energy must survive interpolation everywhere.
    model::TransformerConfig two = cfg;
    two.batch = 2;
    const schedule::DecodeEvaluator deval(arch, two, { 1, 0 },
                                          opts.evaluator);
    const double direct =
        deval.stepMetrics(64, kind).energy.total();
    EXPECT_NEAR(cm.decodeStepJoules(2, 64.0), direct,
                1e-12 * direct);
    EXPECT_GT(cm.decodeStepJoules(1, 300.0), 0.0);
    EXPECT_GT(cm.prefillJoules(500), 0.0);
    // Longer caches stream more KV — more energy too.
    EXPECT_LT(cm.decodeStepJoules(4, 256),
              cm.decodeStepJoules(4, 2048));
}

/** Piecewise-linear interpolation clamped at the endpoints, with
 *  the cost model's operand order. */
double
interpReference(const std::vector<std::int64_t> &xs,
                const std::vector<double> &ys, double x)
{
    if (xs.size() == 1 || x <= static_cast<double>(xs.front()))
        return ys.front();
    if (x >= static_cast<double>(xs.back()))
        return ys.back();
    std::size_t hi = 1;
    while (hi + 1 < xs.size() && x > static_cast<double>(xs[hi]))
        ++hi;
    const auto x0 = static_cast<double>(xs[hi - 1]);
    const auto x1 = static_cast<double>(xs[hi]);
    const double frac = (x - x0) / (x1 - x0);
    return ys[hi - 1] + frac * (ys[hi] - ys[hi - 1]);
}

/** The calibration grid, captured from the DecodeStepFn calls. */
struct CapturedGrid
{
    std::vector<std::int64_t> batches;
    std::vector<std::int64_t> cache_lens;
    /** [batch index][cache index]. */
    std::vector<std::vector<double>> seconds;
    std::vector<std::vector<double>> joules;

    /** Interpolate along the cache axis for every batch row, then
     *  along the batch axis. */
    double fullGrid(const std::vector<std::vector<double>> &table,
                    std::int64_t batch, double mean_cache_len) const
    {
        std::vector<double> at_len;
        for (const auto &row : table)
            at_len.push_back(
                interpReference(cache_lens, row, mean_cache_len));
        return interpReference(batches, at_len,
                               static_cast<double>(batch));
    }
};

/**
 * Calibrate on a surface that is neither affine nor separable (so
 * a lookup that read the wrong rows or reassociated the arithmetic
 * would show in the last bits), capturing the grid, and check every
 * decode lookup against the full-grid interpolation bitwise: cache
 * lengths on the grid, between grid points and clamped below and
 * above it; batches 1..max_batch (every grid row and bracket; batch
 * 1 is the lower clamp) and two above the grid.
 */
void
expectDecodeMatchesFullGrid(std::int64_t max_batch,
                            std::int64_t max_context,
                            int cache_samples,
                            std::size_t batch_points,
                            std::size_t cache_points)
{
    SCOPED_TRACE("max_batch " + std::to_string(max_batch)
                 + " max_context " + std::to_string(max_context));
    CapturedGrid grid;
    ServeCostOptions o;
    o.cache_samples = cache_samples;
    o.prefill_samples = 3;
    const ServeCostModel cm(
        schedule::StrategyKind::FuseMax, max_batch, max_context,
        /*max_prompt=*/512, o,
        [&grid](std::int64_t batch, std::int64_t len) {
            const auto b = static_cast<double>(batch);
            const auto l = static_cast<double>(len);
            const StepCost c{ 1e-6 * (1.0 + 0.37 * b * b)
                                  + 3e-9 * std::sqrt(l) * b,
                              1e-4 * b + 7e-12 * l * l / (1.0 + b) };
            if (grid.batches.empty() || grid.batches.back() != batch) {
                grid.batches.push_back(batch);
                grid.seconds.emplace_back();
                grid.joules.emplace_back();
            }
            if (grid.batches.size() == 1)
                grid.cache_lens.push_back(len);
            grid.seconds.back().push_back(c.seconds);
            grid.joules.back().push_back(c.joules);
            return c;
        },
        [](std::int64_t prompt) {
            const auto p = static_cast<double>(prompt);
            return StepCost{ 1e-6 * p, 2e-6 * p };
        });
    ASSERT_EQ(grid.batches, cm.calibratedBatches());
    ASSERT_EQ(grid.batches.size(), batch_points);
    ASSERT_EQ(grid.cache_lens.size(), cache_points);

    std::vector<double> lens = { 0.5, 1.0, 1e6,
                                 static_cast<double>(max_context)
                                     + 904.25 };
    for (std::size_t i = 0; i < grid.cache_lens.size(); ++i) {
        const auto len = static_cast<double>(grid.cache_lens[i]);
        lens.push_back(len);
        lens.push_back(len - 0.75);
        if (i + 1 < grid.cache_lens.size()) {
            const auto next =
                static_cast<double>(grid.cache_lens[i + 1]);
            lens.push_back(0.5 * (len + next));
            lens.push_back(len + 0.3 * (next - len) + 0.125);
        }
    }
    std::vector<std::int64_t> batches;
    for (std::int64_t b = 1; b <= max_batch; ++b)
        batches.push_back(b);
    batches.push_back(max_batch + 1);
    batches.push_back(40 * max_batch);

    for (const std::int64_t b : batches) {
        for (const double len : lens) {
            SCOPED_TRACE("batch " + std::to_string(b) + " len "
                         + std::to_string(len));
            const double s = grid.fullGrid(grid.seconds, b, len);
            const double j = grid.fullGrid(grid.joules, b, len);
            const StepCost step = cm.decodeStep(b, len);
            EXPECT_EQ(step.seconds, s);
            EXPECT_EQ(step.joules, j);
            EXPECT_EQ(cm.decodeStepSeconds(b, len), s);
            EXPECT_EQ(cm.decodeStepJoules(b, len), j);
        }
    }
}

TEST(ServeCostModel, DecodeLookupMatchesTheFullGridInterpolation)
{
    expectDecodeMatchesFullGrid(/*max_batch=*/12,
                                /*max_context=*/4096,
                                /*cache_samples=*/5,
                                /*batch_points=*/5,
                                /*cache_points=*/5);
}

TEST(ServeCostModel, DecodeStepMatchesTheFullGridInterpolation)
{
    // Multi-point grids on both axes, then one-point grids: a
    // single batch row (max_batch 1), a single cache column (a
    // context no longer than the grid's 64-position floor), and
    // both at once.
    expectDecodeMatchesFullGrid(6, 3000, 4, 4, 4);
    expectDecodeMatchesFullGrid(1, 3000, 4, 1, 4);
    expectDecodeMatchesFullGrid(6, 48, 4, 4, 1);
    expectDecodeMatchesFullGrid(1, 48, 4, 1, 1);
}

TEST(ServeCostModel, StrategiesPriceDifferently)
{
    const auto arch = arch::edgeArch();
    const auto cfg = model::t5Small();
    const ServeCostModel unfused(
        arch, cfg, schedule::StrategyKind::Unfused, 4, 2048, 1024,
        fastCost());
    const ServeCostModel fused(
        arch, cfg, schedule::StrategyKind::FuseMax, 4, 2048, 1024,
        fastCost());
    // Fusion never loses, and wins clearly on prefill.
    EXPECT_GT(unfused.prefillSeconds(1024),
              fused.prefillSeconds(1024));
    EXPECT_GE(unfused.decodeStepSeconds(4, 1024) * 1.001,
              fused.decodeStepSeconds(4, 1024));
}

} // namespace
} // namespace transfusion::serve
