/**
 * @file
 * Whole-stack evaluation over a multi-chip cluster under a
 * (tp, pp) sharding.  Composition, not reinvention: per-chip
 * sub-layer metrics come from the existing schedule::Evaluator on
 * the TpShard's derived configs, collectives from the ring cost
 * model, and the stage placement from the pipeline DP.  With a
 * 1-chip cluster (tp = pp = 1) every added term is exactly zero
 * and the code path mirrors schedule::StackEvaluator operation for
 * operation, so the result reproduces it bit for bit.
 */

#ifndef TRANSFUSION_MULTICHIP_SHARDED_EVALUATOR_HH
#define TRANSFUSION_MULTICHIP_SHARDED_EVALUATOR_HH

#include "model/stack.hh"
#include "multichip/cluster.hh"
#include "multichip/collective.hh"
#include "multichip/pipeline_parallel.hh"
#include "multichip/tensor_parallel.hh"
#include "schedule/stack_evaluator.hh"

namespace transfusion::multichip
{

/** How the cluster is carved up: tp * pp must equal its size. */
struct ShardSpec
{
    int tp = 1; ///< tensor-parallel width of each stage
    int pp = 1; ///< pipeline stages

    int chips() const { return tp * pp; }
    std::string toString() const;

    bool operator==(const ShardSpec &) const = default;
};

/** One sharded whole-stack evaluation. */
struct ShardedStackResult
{
    ShardSpec spec;

    /**
     * One TP rank's whole-depth metrics (all pp stages of its
     * column summed): compute as the single-chip evaluator would
     * report it, plus TP collective wait time folded into
     * latency_s and this chip's share of link energy folded into
     * energy.link_j.  With tp = pp = 1 this is bit-identical to
     * schedule::StackEvaluator::evaluate.
     */
    schedule::StackResult per_chip;

    /** Stage placement (single full stage when pp = 1). */
    PipelinePartition pipeline;

    /** Summed TP all-reduce costs over every layer (all chips). */
    CollectiveCost tp_collectives;

    /** End-to-end single-batch latency: fill every stage once. */
    double latency_s = 0;
    /** Steady-state seconds per batch: the bottleneck stage. */
    double steady_state_s = 0;
    /**
     * Whole-cluster energy: per-rank column energy times tp (all
     * chips do symmetric work) plus inter-stage transfer energy.
     */
    double cluster_energy_j = 0;
};

/** Prices a StackConfig on a cluster under one ShardSpec. */
class ShardedStackEvaluator
{
  public:
    /**
     * @param cluster chips + link fabric; size must be tp * pp
     * @param stack   encoder/decoder composition
     * @param src_len source-sequence length (encoder input)
     * @param tgt_len target-sequence length (decoder input)
     * @param spec    how to carve the cluster
     *
     * Chips are grouped contiguously: stage k owns chips
     * [k*tp, (k+1)*tp), and each group must be homogeneous (a TP
     * group lock-steps through collectives, so mixed chips would
     * make the per-chip configs diverge).
     */
    ShardedStackEvaluator(ClusterConfig cluster,
                          model::StackConfig stack,
                          std::int64_t src_len, std::int64_t tgt_len,
                          ShardSpec spec,
                          schedule::EvaluatorOptions options = {});

    /** Evaluate one strategy over the whole sharded stack. */
    ShardedStackResult evaluate(schedule::StrategyKind strategy) const;

    /** Latency + whole-cluster energy of one decode iteration. */
    struct DecodeStepCost
    {
        double seconds = 0;
        double joules = 0;
    };

    /**
     * Cost of ONE decode iteration (query_len = 1 per batch
     * lane, all decoder layers) against a KV cache of `cache_len`
     * positions.  Decoder-only stacks; decode steps serialize
     * across pipeline stages (a token cannot enter stage k + 1
     * before leaving stage k), so pp adds inter-stage hops to the
     * step, while tp shrinks per-chip work at the price of the
     * per-layer all-reduces.  Uses the naive tile, mirroring
     * schedule::DecodeEvaluator::stepMetrics, and at tp = pp = 1
     * delegates to it outright so serving calibration stays
     * bit-compatible with the single-chip path.
     *
     * `joules` follows the evaluate() convention: per-chip energy
     * (TP link share included) times tp, plus inter-stage transfer
     * energy when pp > 1 — the whole cluster's draw for the step.
     */
    DecodeStepCost
    decodeStepCost(std::int64_t cache_len,
                   schedule::StrategyKind strategy) const;

    /** The latency component of decodeStepCost. */
    double decodeStepSeconds(std::int64_t cache_len,
                             schedule::StrategyKind strategy) const
    {
        return decodeStepCost(cache_len, strategy).seconds;
    }

    const ClusterConfig &cluster() const { return cluster_; }
    const model::StackConfig &stack() const { return stack_; }
    const ShardSpec &spec() const { return spec_; }

  private:
    ClusterConfig cluster_;
    model::StackConfig stack_;
    std::int64_t src_len_;
    std::int64_t tgt_len_;
    ShardSpec spec_;
    schedule::EvaluatorOptions opts_;
    TpShard shard_;

    /** Chip priced for pipeline stage k (its first TP member). */
    const arch::ArchConfig &stageArch(int stage) const;

    /**
     * One layer's per-chip metrics under `workload` on `stage`'s
     * chip, TP collective time and link-energy share included.
     * Mirrors StackEvaluator::blockMetrics at tp = 1.
     */
    schedule::LayerMetrics
    oneLayer(const schedule::Workload &workload,
             schedule::StrategyKind strategy, int stage,
             bool include_ffn, CollectiveCost *collectives,
             const schedule::EvaluatorOptions &opts) const;
};

} // namespace transfusion::multichip

#endif // TRANSFUSION_MULTICHIP_SHARDED_EVALUATOR_HH
