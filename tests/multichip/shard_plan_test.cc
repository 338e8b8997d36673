/**
 * @file
 * Tests for the parallel (tp, pp) shard-plan search: feasibility
 * enumeration, ranking, and the determinism contract -- identical
 * results (and identical merged metrics) for any thread count.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "costmodel/cost_table_cache.hh"
#include "model/stack.hh"
#include "multichip/shard_plan.hh"
#include "obs/obs.hh"
#include "obs/report.hh"

namespace transfusion::multichip
{
namespace
{

constexpr std::int64_t kSeq = 512;

ShardPlanOptions
fastPlan(int threads)
{
    ShardPlanOptions o;
    o.evaluator.mcts.iterations = 64;
    o.threads = threads;
    return o;
}

TEST(ShardPlan, FeasibleSpecsEnumerateTpMajor)
{
    const auto cfg = model::t5Small(); // H=8, S=2048, 6 layers
    const auto four = feasibleSpecs(cfg, 6, 4);
    ASSERT_EQ(four.size(), 3u);
    EXPECT_EQ(four[0].tp, 1);
    EXPECT_EQ(four[0].pp, 4);
    EXPECT_EQ(four[1].tp, 2);
    EXPECT_EQ(four[1].pp, 2);
    EXPECT_EQ(four[2].tp, 4);
    EXPECT_EQ(four[2].pp, 1);

    // 8 chips: pp = 8 exceeds the 6 layers, so (1, 8) drops out.
    const auto eight = feasibleSpecs(cfg, 6, 8);
    ASSERT_EQ(eight.size(), 3u);
    EXPECT_EQ(eight[0].tp, 2);
    EXPECT_EQ(eight[1].tp, 4);
    EXPECT_EQ(eight[2].tp, 8);

    // A 12-head model cannot split 8 ways: (8, 1) drops out too.
    const auto bert = feasibleSpecs(model::bertBase(), 12, 8);
    ASSERT_EQ(bert.size(), 3u);
    EXPECT_EQ(bert.back().tp, 4);
}

TEST(ShardPlan, OneChipPlanIsTheIdentityCarving)
{
    const auto stack = model::decoderOnly(model::t5Small());
    const auto plan = planShards(
        edgeCluster(1), stack, kSeq, kSeq,
        schedule::StrategyKind::TransFusion, fastPlan(1));
    ASSERT_EQ(plan.entries.size(), 1u);
    EXPECT_EQ(plan.bestEntry().spec.tp, 1);
    EXPECT_EQ(plan.bestEntry().spec.pp, 1);
}

TEST(ShardPlan, BestEntryMinimizesTheObjective)
{
    const auto stack = model::decoderOnly(model::t5Small());
    const auto plan = planShards(
        cloudCluster(4), stack, kSeq, kSeq,
        schedule::StrategyKind::TransFusion, fastPlan(2));
    ASSERT_EQ(plan.entries.size(), 3u);
    for (const auto &e : plan.entries)
        EXPECT_LE(plan.bestEntry().result.steady_state_s,
                  e.result.steady_state_s);
}

TEST(ShardPlan, ResultsAreBitIdenticalAcrossThreadCounts)
{
    const auto stack = model::decoderOnly(model::t5Small());
    const auto kind = schedule::StrategyKind::TransFusion;
    auto &cache = costmodel::CostTableCache::instance();

    // Both calls build: the cache is cleared before each, or the
    // second would be a hit of the first.  On one worker the (tp,
    // pp) evaluations run inside the build and memoize their DPipe
    // plans; on four they run on fresh threads and price directly.
    obs::Registry reg1;
    ShardPlan plan1;
    cache.clear();
    {
        obs::ScopedRegistry scope(reg1);
        plan1 = planShards(cloudCluster(8), stack, kSeq, kSeq,
                           kind, fastPlan(1));
    }
    const auto stats1 = cache.stats();
    obs::Registry reg4;
    ShardPlan plan4;
    cache.clear();
    {
        obs::ScopedRegistry scope(reg4);
        plan4 = planShards(cloudCluster(8), stack, kSeq, kSeq,
                           kind, fastPlan(4));
    }
    const auto stats4 = cache.stats();
    EXPECT_EQ(stats1.misses, 1);
    EXPECT_EQ(stats4.misses, 1);
    EXPECT_GT(stats1.nested_misses, 0);
    EXPECT_EQ(stats4.nested_hits + stats4.nested_misses, 0);

    ASSERT_EQ(plan1.entries.size(), plan4.entries.size());
    EXPECT_EQ(plan1.best, plan4.best);
    for (std::size_t i = 0; i < plan1.entries.size(); ++i) {
        const auto &a = plan1.entries[i];
        const auto &b = plan4.entries[i];
        EXPECT_EQ(a.spec.tp, b.spec.tp);
        EXPECT_EQ(a.spec.pp, b.spec.pp);
        EXPECT_EQ(a.result.latency_s, b.result.latency_s);
        EXPECT_EQ(a.result.steady_state_s,
                  b.result.steady_state_s);
        EXPECT_EQ(a.result.cluster_energy_j,
                  b.result.cluster_energy_j);
        EXPECT_EQ(a.result.tp_collectives.total_link_bytes,
                  b.result.tp_collectives.total_link_bytes);
        EXPECT_EQ(a.result.pipeline.first_layer,
                  b.result.pipeline.first_layer);
    }

    // The merged observability stream is part of the contract too.
    if (TRANSFUSION_OBS_ENABLED) {
        EXPECT_EQ(obs::RunReport::capture(reg1).toString(),
                  obs::RunReport::capture(reg4).toString());
    }
}

TEST(ShardPlan, FatalWhenNothingIsFeasible)
{
    // 3 chips: tp = 3 divides neither heads nor ffn, pp = 3 is
    // fine -- so only (1, 3) survives; with a 1-layer stack even
    // that dies, leaving nothing.
    auto cfg = model::t5Small();
    cfg.layers = 1;
    const auto stack = model::decoderOnly(cfg);
    EXPECT_THROW(planShards(cloudCluster(3), stack, kSeq, kSeq,
                            schedule::StrategyKind::TransFusion,
                            fastPlan(1)),
                 FatalError);
}

} // namespace
} // namespace transfusion::multichip
