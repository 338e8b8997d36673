/**
 * @file
 * Multi-chip serving: calibrate a serve::ServeCostModel from a
 * sharded evaluator and aggregate KV capacity over the cluster, so
 * the existing request-level simulator prices one tp x pp sharded
 * replica.  The interesting serving question this answers: given N
 * chips, is one big sharded replica (shorter steps, more KV head-
 * room per replica) better than N independent single-chip replicas
 * (N x the step throughput, but each bounded by one chip's DRAM)?
 *
 * With tp = pp = 1 the calibration functions delegate to the exact
 * single-chip evaluators, so a 1-chip "sharded" simulator is
 * bit-identical to serve::ServeSimulator on the same chip.
 */

#ifndef TRANSFUSION_MULTICHIP_SHARDED_SERVE_HH
#define TRANSFUSION_MULTICHIP_SHARDED_SERVE_HH

#include "multichip/sharded_evaluator.hh"
#include "serve/simulator.hh"

namespace transfusion::multichip
{

/**
 * Words of KV budget a tp x pp sharded replica has across the
 * whole cluster: per-chip DRAM minus that chip's weight-shard
 * residency, summed.  `dram_capacity_bytes <= 0` means each chip's
 * serve::defaultDramCapacityBytes.  Fatal when any chip cannot
 * hold its weight shard.
 */
double shardedKvCapacityWords(const ClusterConfig &cluster,
                              const model::TransformerConfig &cfg,
                              ShardSpec spec,
                              double dram_capacity_bytes = 0);

/**
 * Whether every chip of `cluster` can hold a 1/size weight shard of
 * `cfg` with room left over for KV cache.  The non-fatal precheck
 * for shardedKvCapacityWords: the fault layer asks this about a
 * shrunken cluster before replanning onto it, and degrades to an
 * outage instead of aborting when the answer is no.
 */
bool shardedWeightsFit(const ClusterConfig &cluster,
                       const model::TransformerConfig &cfg,
                       double dram_capacity_bytes = 0);

/**
 * Calibrated cost tables for one sharded replica of `cfg` (a
 * decoder-only LLM) on `cluster`.  Grids match the single-chip
 * ServeCostModel's for equal options, decode steps and prefills
 * are priced by ShardedStackEvaluator.
 */
serve::ServeCostModel shardedServeCostModel(
    const ClusterConfig &cluster,
    const model::TransformerConfig &cfg, ShardSpec spec,
    const serve::WorkloadOptions &workload,
    const serve::ServeOptions &options);

/**
 * A ready-to-run simulator for one sharded replica: sharded cost
 * tables + cluster-aggregated KV admission budget.
 */
serve::ServeSimulator shardedSimulator(
    const ClusterConfig &cluster,
    const model::TransformerConfig &cfg, ShardSpec spec,
    const serve::WorkloadOptions &workload,
    serve::ServeOptions options = {});

/**
 * The spec a serving layer deploys when none is given: the best
 * planShards entry for decoder-only `cfg` on `cluster` at the
 * workload's longest context, under `options.strategy` and its
 * cost-model evaluator, searched on `plan_threads` workers.
 */
ShardSpec planServingSpec(const ClusterConfig &cluster,
                          const model::TransformerConfig &cfg,
                          const serve::WorkloadOptions &workload,
                          const serve::ServeOptions &options,
                          int plan_threads);

} // namespace transfusion::multichip

#endif // TRANSFUSION_MULTICHIP_SHARDED_SERVE_HH
