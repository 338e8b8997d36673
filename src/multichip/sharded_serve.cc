/**
 * @file
 * Sharded serving calibration and KV aggregation.
 */

#include "sharded_serve.hh"

#include "common/logging.hh"
#include "costmodel/cost_table_cache.hh"
#include "model/stack.hh"
#include "multichip/shard_plan.hh"
#include "obs/obs.hh"
#include "serve/kv_cache.hh"

namespace transfusion::multichip
{

namespace
{

void
checkSpec(const ClusterConfig &cluster,
          const model::TransformerConfig &cfg, ShardSpec spec)
{
    cluster.validate();
    cfg.validate();
    if (spec.chips() != cluster.size())
        tf_fatal("shard spec ", spec.toString(), " needs ",
                 spec.chips(), " chips but cluster '", cluster.name,
                 "' has ", cluster.size());
}

serve::ServeCostModel shardedServeCostModelUncached(
    const ClusterConfig &cluster,
    const model::TransformerConfig &cfg, ShardSpec spec,
    const serve::WorkloadOptions &workload,
    const serve::ServeOptions &options);

} // namespace

double
shardedKvCapacityWords(const ClusterConfig &cluster,
                       const model::TransformerConfig &cfg,
                       ShardSpec spec, double dram_capacity_bytes)
{
    checkSpec(cluster, cfg, spec);
    if (cluster.size() == 1)
        return serve::kvCapacityWords(cluster.chips.front(), cfg,
                                      dram_capacity_bytes);

    // TP slices every weight matrix tp ways and PP splits layers pp
    // ways, so each of the tp * pp chips holds ~1/chips of the
    // weights and contributes the rest of its DRAM to the shared
    // KV budget (the cache itself is sliced the same way, so
    // word-granular aggregate accounting stays balanced).
    const double shard_words = serve::weightWords(cfg)
                               / static_cast<double>(cluster.size());
    double total = 0;
    for (int i = 0; i < cluster.size(); ++i) {
        const arch::ArchConfig &chip =
            cluster.chips[static_cast<std::size_t>(i)];
        const double cap =
            dram_capacity_bytes > 0
                ? dram_capacity_bytes
                : serve::defaultDramCapacityBytes(chip);
        const double shard_bytes =
            shard_words * static_cast<double>(chip.element_bytes);
        if (shard_bytes >= cap)
            tf_fatal("model '", cfg.name, "' weight shard (",
                     shard_bytes, " bytes) exceeds the DRAM "
                     "capacity (", cap, " bytes) of chip ", i,
                     " ('", chip.name, "')");
        total += (cap - shard_bytes)
                 / static_cast<double>(chip.element_bytes);
    }
    return total;
}

bool
shardedWeightsFit(const ClusterConfig &cluster,
                  const model::TransformerConfig &cfg,
                  double dram_capacity_bytes)
{
    cluster.validate();
    cfg.validate();
    const double shard_words = serve::weightWords(cfg)
                               / static_cast<double>(cluster.size());
    for (const arch::ArchConfig &chip : cluster.chips) {
        const double cap =
            dram_capacity_bytes > 0
                ? dram_capacity_bytes
                : serve::defaultDramCapacityBytes(chip);
        const double shard_bytes =
            shard_words * static_cast<double>(chip.element_bytes);
        if (shard_bytes >= cap)
            return false;
    }
    return true;
}

serve::ServeCostModel
shardedServeCostModel(const ClusterConfig &cluster,
                      const model::TransformerConfig &cfg,
                      ShardSpec spec,
                      const serve::WorkloadOptions &workload,
                      const serve::ServeOptions &options)
{
    checkSpec(cluster, cfg, spec);
    workload.validate();
    // Memoized per (cluster, model, tp, pp, workload extents,
    // strategy, calibration options): fleet uniform() construction
    // and fault re-carves over the same surviving cluster stop
    // recomputing identical sharded tables.  The cache replays the
    // calibration's registry deltas on a hit (see
    // costmodel/cost_table_cache.hh), keeping cached construction
    // observably bit-identical.
    costmodel::KeyBuilder k;
    k.add("kind", "sharded-serve-cost-model");
    appendCacheKey(k, cluster);
    serve::appendCacheKey(k, cfg);
    k.add("spec.tp", spec.tp).add("spec.pp", spec.pp);
    k.add("strategy", schedule::toString(options.strategy));
    k.add("max_batch", options.max_batch);
    k.add("max_context", workload.maxContext());
    k.add("max_prompt", workload.prompt.hi);
    serve::appendCacheKey(k, options.cost);
    const auto table =
        costmodel::CostTableCache::instance()
            .getOrBuild<serve::ServeCostModel>(k.str(), [&] {
                return shardedServeCostModelUncached(
                    cluster, cfg, spec, workload, options);
            });
    return *table;
}

namespace
{

serve::ServeCostModel
shardedServeCostModelUncached(
    const ClusterConfig &cluster,
    const model::TransformerConfig &cfg, ShardSpec spec,
    const serve::WorkloadOptions &workload,
    const serve::ServeOptions &options)
{
    const std::int64_t max_context = workload.maxContext();
    const std::int64_t max_prompt = workload.prompt.hi;

    if (spec.tp == 1 && spec.pp == 1) {
        // The exact single-chip calibration: bit-identical tables.
        return serve::ServeCostModel(
            cluster.chips.front(), cfg, options.strategy,
            options.max_batch, max_context, max_prompt,
            options.cost);
    }

    TF_SPAN("multichip.sharded_calibration");
    const auto decode_step = [&](std::int64_t batch,
                                 std::int64_t cache_len) {
        model::TransformerConfig bcfg = cfg;
        bcfg.batch = batch;
        const ShardedStackEvaluator eval(
            cluster, model::decoderOnly(bcfg), /*src_len=*/0,
            /*tgt_len=*/max_context, spec,
            options.cost.evaluator);
        const ShardedStackEvaluator::DecodeStepCost c =
            eval.decodeStepCost(cache_len, options.strategy);
        return serve::StepCost{ c.seconds, c.joules };
    };
    const auto prefill = [&](std::int64_t prompt_len) {
        model::TransformerConfig one = cfg;
        one.batch = 1;
        const ShardedStackEvaluator eval(
            cluster, model::decoderOnly(one), /*src_len=*/0,
            /*tgt_len=*/prompt_len, spec, options.cost.evaluator);
        const ShardedStackResult r =
            eval.evaluate(options.strategy);
        return serve::StepCost{ r.latency_s, r.cluster_energy_j };
    };
    return serve::ServeCostModel(options.strategy,
                                 options.max_batch, max_context,
                                 max_prompt, options.cost,
                                 decode_step, prefill);
}

} // namespace

serve::ServeSimulator
shardedSimulator(const ClusterConfig &cluster,
                 const model::TransformerConfig &cfg,
                 ShardSpec spec,
                 const serve::WorkloadOptions &workload,
                 serve::ServeOptions options)
{
    // The replica occupies the whole cluster for its makespan, so
    // chip-seconds accounting bills every chip.
    options.chips = cluster.size();
    return serve::ServeSimulator(
        shardedServeCostModel(cluster, cfg, spec, workload,
                              options),
        serve::kvWordsPerToken(cfg),
        shardedKvCapacityWords(cluster, cfg, spec,
                               options.dram_capacity_bytes),
        workload, options);
}

ShardSpec
planServingSpec(const ClusterConfig &cluster,
                const model::TransformerConfig &cfg,
                const serve::WorkloadOptions &workload,
                const serve::ServeOptions &options, int plan_threads)
{
    ShardPlanOptions plan;
    plan.evaluator = options.cost.evaluator;
    plan.threads = plan_threads;
    return planShards(cluster, model::decoderOnly(cfg), /*src_len=*/0,
                      workload.maxContext(), options.strategy, plan)
        .bestEntry()
        .spec;
}

} // namespace transfusion::multichip
