/**
 * @file
 * End-to-end evaluator: computes the latency, energy and
 * utilization of one (architecture, model, sequence length) point
 * under each of the five strategies, following the Sec. 6.1
 * methodology -- per-Einsum latency from the Eq. 40-42 model,
 * per-strategy pipelining of the compute side, per-strategy DRAM
 * traffic, roofline combination, and access-counting energy.
 */

#ifndef TRANSFUSION_SCHEDULE_EVALUATOR_HH
#define TRANSFUSION_SCHEDULE_EVALUATOR_HH

#include <cstdint>

#include "arch/arch.hh"
#include "dpipe/pipeline.hh"
#include "model/transformer.hh"
#include "schedule/metrics.hh"
#include "schedule/strategy.hh"
#include "tileseek/mcts.hh"

namespace transfusion::schedule
{

/** Evaluator tuning knobs (every modelling constant is here). */
struct EvaluatorOptions
{
    dpipe::PipelineOptions pipeline;
    tileseek::MctsOptions mcts;

    /**
     * Extra words per (batch, head) attention score element moved
     * by the Unfused baseline's multi-pass softmax, on top of the
     * GEMM traffic (reads for the max/sum passes, the probability
     * write and its re-read).
     */
    double softmax_extra_words = 4.0;

    /**
     * Fraction of intermediate buffer accesses a fused pipeline
     * forwards PE-to-PE through the register file (FuseMax's
     * in-register retention; TransFusion applies it stack-wide).
     */
    double rf_forward_fused = 0.6;

    /**
     * Traffic multiplier for unfused phases: per-phase mappings
     * cannot share the buffer across operator boundaries, so they
     * achieve worse reuse than the blocked optimum (Timeloop maps
     * each Einsum in isolation).  Fused dataflows are exempt.
     */
    double unfused_reread_factor = 2.0;

    /** Ablation knob: let TransFusion fall back to the naive tile. */
    bool use_tileseek = true;

    /** Ablation knob: disable DRAM/compute overlap entirely. */
    bool overlap_dram = true;

    bool operator==(const EvaluatorOptions &) const = default;
};

/**
 * Attention workload geometry.  Self-attention has query_len ==
 * context_len; decoder self-attention adds causal masking (half the
 * score matrix); cross-attention attends a context of a different
 * length (the encoder output).
 */
struct Workload
{
    std::int64_t query_len = 0;   ///< P
    std::int64_t context_len = 0; ///< M1*M0 (attended positions)
    bool causal = false;          ///< triangular masking
    /**
     * K/V for the context already live in DRAM (a KV cache): the
     * QKV layer only projects the `query_len` new positions, and
     * the fused stack neither recomputes nor re-spills them.
     */
    bool kv_cached = false;

    /** Plain self-attention over `seq` positions. */
    static Workload selfAttention(std::int64_t seq);
    /** Decoder self-attention (causal) over `seq` positions. */
    static Workload causalSelfAttention(std::int64_t seq);
    /** Cross-attention: tgt queries over src context. */
    static Workload crossAttention(std::int64_t tgt,
                                   std::int64_t src);
    /** One generation step against a cache of `cache_len`. */
    static Workload decodeStep(std::int64_t cache_len);
};

/** Evaluates strategies at one (arch, model, workload) point. */
class Evaluator
{
  public:
    /**
     * @param arch architecture instance (Table 3 presets or custom)
     * @param cfg  model shapes
     * @param seq  sequence length P (queries == attended context)
     */
    Evaluator(arch::ArchConfig arch, model::TransformerConfig cfg,
              std::int64_t seq, EvaluatorOptions options = {});

    /** General form: decoupled query/context lengths, masking. */
    Evaluator(arch::ArchConfig arch, model::TransformerConfig cfg,
              Workload workload, EvaluatorOptions options = {});

    /** Full evaluation of one strategy. */
    EvalResult evaluate(StrategyKind strategy) const;

    /** The full-layer dimension environment in use. */
    const einsum::DimEnv &dims() const { return dims_; }

    const arch::ArchConfig &arch() const { return arch_; }
    const model::TransformerConfig &config() const { return cfg_; }
    std::int64_t sequence() const { return workload_.query_len; }
    const Workload &workload() const { return workload_; }

  private:
    /** One model's immutable cascades, shared process-wide. */
    struct Cascades;
    static const Cascades &sharedCascades(
        const model::TransformerConfig &cfg);

    arch::ArchConfig arch_;
    model::TransformerConfig cfg_;
    Workload workload_;
    EvaluatorOptions opts_;
    einsum::DimEnv dims_;
    /** Dims for the QKV layer: context shrinks to the projected
     *  positions when the K/V cache already holds the rest. */
    einsum::DimEnv qkv_dims_;
    const Cascades *cascades_ = nullptr;

    /** Buffer capacity in words. */
    double bufferWords() const;

    /** Compute-side plan (latency/work) for one sub-layer. */
    dpipe::PipelineResult computePlan(model::LayerKind kind,
                                      StrategyKind strategy) const;

    /** DRAM words of one sub-layer for unfused-style strategies,
     *  re-reading operands `rr` times the blocked optimum (fused
     *  attention is exempt). */
    double phaseTrafficWords(model::LayerKind kind,
                             StrategyKind strategy, double rr) const;

    /** Per-sub-layer DRAM words of the fused stack under a tile. */
    std::array<double, 4>
    fusedTrafficWords(const tileseek::TileShape &tile) const;

    /**
     * Per-sub-layer DRAM words of the *selective* fusion fallback:
     * MHA and LayerNorm stay fused, QKV and FFN run phase-wise with
     * optimally blocked weight streaming.  The scheduler de-fuses
     * when full fusion's per-tile weight re-streaming costs more.
     */
    std::array<double, 4> selectiveTrafficWords() const;

    /** Whether a phase overlaps its DRAM streaming with compute. */
    bool overlapsDram(model::LayerKind kind,
                      StrategyKind strategy) const;

    /** On-chip energy of one sub-layer under a strategy. */
    costmodel::EnergyBreakdown
    onChipEnergy(model::LayerKind kind, StrategyKind strategy) const;
};

} // namespace transfusion::schedule

#endif // TRANSFUSION_SCHEDULE_EVALUATOR_HH
