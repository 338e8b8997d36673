/**
 * @file
 * Parallel (tp, pp) shard-plan search.
 */

#include "shard_plan.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "costmodel/cost_table_cache.hh"
#include "obs/obs.hh"
#include "obs/parallel.hh"

namespace transfusion::multichip
{

std::vector<ShardSpec>
feasibleSpecs(const model::TransformerConfig &cfg,
              std::int64_t total_layers, int chips)
{
    if (chips < 1)
        tf_fatal("cluster size must be >= 1, got ", chips);
    std::vector<ShardSpec> specs;
    for (int tp = 1; tp <= chips; ++tp) {
        if (chips % tp != 0)
            continue;
        const int pp = chips / tp;
        if (cfg.heads % tp != 0 || cfg.ffn_hidden % tp != 0)
            continue;
        if (static_cast<std::int64_t>(pp) > total_layers)
            continue;
        specs.push_back({ tp, pp });
    }
    return specs;
}

namespace
{

/**
 * CostTableCache key of one shard-plan search, compared member-wise
 * (see costmodel/cost_table_cache.hh).  `ShardPlanOptions::threads`
 * is deliberately NOT in the key: the sweep's result and its
 * registry deltas are thread-invariant (input-order collection,
 * grid-order merge — the determinism contract the threads-1v4
 * replay tests pin), so every fan-out width shares one entry.
 */
struct ShardPlanKey
{
    using Value = ShardPlan;

    ClusterConfig cluster;
    model::StackConfig stack;
    std::int64_t src_len;
    std::int64_t tgt_len;
    schedule::StrategyKind strategy;
    schedule::EvaluatorOptions evaluator;

    bool operator==(const ShardPlanKey &) const = default;
};

ShardPlan
planShardsUncached(const ShardPlanKey &key, int threads)
{
    const ClusterConfig &cluster = key.cluster;
    const std::int64_t total_layers =
        key.stack.encoder_layers + key.stack.decoder_layers;
    const std::vector<ShardSpec> specs = feasibleSpecs(
        key.stack.block, total_layers, cluster.size());
    if (specs.empty())
        tf_fatal("no feasible (tp, pp) sharding of '",
                 key.stack.block.name, "' over ", cluster.size(),
                 " chips");

    const int workers = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(threads > 0
                                     ? threads
                                     : ThreadPool::hardwareThreads()),
        specs.size()));
    ThreadPool pool(workers);
    ShardPlan plan;
    plan.entries = obs::parallelMapRecorded(
        pool, specs, [&](const ShardSpec &spec) {
            ShardPlanEntry entry;
            entry.spec = spec;
            const ShardedStackEvaluator eval(
                cluster, key.stack, key.src_len, key.tgt_len, spec,
                key.evaluator);
            entry.result = eval.evaluate(key.strategy);
            return entry;
        });

    for (std::size_t i = 1; i < plan.entries.size(); ++i) {
        if (plan.entries[i].result.steady_state_s
            < plan.entries[plan.best].result.steady_state_s)
            plan.best = i;
    }
    TF_COUNT("multichip.shard_plans", 1);
    return plan;
}

} // namespace

ShardPlan
planShards(const ClusterConfig &cluster,
           const model::StackConfig &stack, std::int64_t src_len,
           std::int64_t tgt_len, schedule::StrategyKind strategy,
           const ShardPlanOptions &options)
{
    TF_SPAN("multichip.plan_shards");
    cluster.validate();
    stack.validate();
    const ShardPlanKey key{ cluster,  stack,    src_len,
                            tgt_len,  strategy, options.evaluator };
    const auto plan =
        costmodel::CostTableCache::instance().getOrBuild(key, [&] {
            return planShardsUncached(key, options.threads);
        });
    return *plan;
}

} // namespace transfusion::multichip
