/**
 * @file
 * Shard-plan search: sweep every feasible (tp, pp) carving of a
 * cluster for one stack + strategy, fanned out with parallelMap,
 * and rank the results.  Results are collected in
 * grid (input) order and per-task observability registries merge
 * in the same order, so the sweep is bit-identical for any thread
 * count -- the same contract schedule::Sweep keeps.
 */

#ifndef TRANSFUSION_MULTICHIP_SHARD_PLAN_HH
#define TRANSFUSION_MULTICHIP_SHARD_PLAN_HH

#include <vector>

#include "multichip/sharded_evaluator.hh"

namespace transfusion::multichip
{

/** Knobs of one shard-plan search. */
struct ShardPlanOptions
{
    schedule::EvaluatorOptions evaluator;
    /** Worker threads; <= 0 means hardware concurrency. */
    int threads = 0;
};

/** One evaluated (tp, pp) candidate. */
struct ShardPlanEntry
{
    ShardSpec spec;
    ShardedStackResult result;
};

/** Ranked outcome of one search. */
struct ShardPlan
{
    /** All feasible candidates, grid order (tp-major). */
    std::vector<ShardPlanEntry> entries;
    /**
     * Index into `entries` of the best plan: least steady-state
     * throughput time (ties: first).
     */
    std::size_t best = 0;

    const ShardPlanEntry &bestEntry() const
    {
        return entries.at(best);
    }
};

/**
 * Feasible (tp, pp) pairs for `chips` on `cfg`: tp * pp == chips,
 * tp divides heads and ffn_hidden, pp does not exceed the layer
 * count.  tp-major order (tp = 1 first).
 */
std::vector<ShardSpec> feasibleSpecs(
    const model::TransformerConfig &cfg, std::int64_t total_layers,
    int chips);

/**
 * Evaluate every feasible (tp, pp) of `cluster` and rank.  Fatal
 * when no spec is feasible.  Deterministic for any thread count.
 * The sweep is a cost-table build: on one worker its evaluations
 * run inside the build and memoize their DPipe plans, on more they
 * look up as top-level callers and price directly; a memo hit
 * records what a miss does, so results and reports agree.
 */
ShardPlan planShards(const ClusterConfig &cluster,
                     const model::StackConfig &stack,
                     std::int64_t src_len, std::int64_t tgt_len,
                     schedule::StrategyKind strategy,
                     const ShardPlanOptions &options = {});

} // namespace transfusion::multichip

#endif // TRANSFUSION_MULTICHIP_SHARD_PLAN_HH
