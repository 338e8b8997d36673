/**
 * @file
 * Implementation of the end-to-end evaluator.
 */

#include "evaluator.hh"

#include <array>
#include <memory>
#include <mutex>

#include "common/logging.hh"
#include "common/math_utils.hh"
#include "costmodel/roofline.hh"
#include "obs/obs.hh"
#include "costmodel/traffic.hh"
#include "model/cascades.hh"
#include "schedule/tiling.hh"

namespace transfusion::schedule
{

using model::LayerKind;

namespace
{

/** "evaluator.evaluate/<strategy>", built once per strategy. */
const char *
evaluateSpanName(StrategyKind strategy)
{
    static const std::vector<std::string> names =
        strategyNames("evaluator.evaluate/");
    return names[static_cast<std::size_t>(strategy)].c_str();
}

#if TRANSFUSION_OBS_ENABLED
/** One strategy's attribution gauges, interned once. */
struct AttributionIds
{
    /// Per sub-layer (allLayerKinds() order): latency_s,
    /// dram_bytes, energy_j.
    std::vector<std::array<obs::MetricId, 3>> layers;
    /// latency_s, compute_s, dram_s, dram_bytes, energy_j,
    /// dram_energy_j of the whole layer.
    std::array<obs::MetricId, 6> total;
};

const AttributionIds &
attributionIds(StrategyKind strategy)
{
    static const std::vector<AttributionIds> table = [] {
        std::vector<AttributionIds> t;
        for (const std::string &name : strategyNames("eval/")) {
            const auto id = [&name](const std::string &suffix) {
                return obs::internMetric(name + "/" + suffix);
            };
            AttributionIds ids;
            for (const LayerKind kind : model::allLayerKinds()) {
                const std::string layer = model::toString(kind) + "/";
                ids.layers.push_back({ id(layer + "latency_s"),
                                       id(layer + "dram_bytes"),
                                       id(layer + "energy_j") });
            }
            ids.total = { id("total/latency_s"),
                          id("total/compute_s"),
                          id("total/dram_s"),
                          id("total/dram_bytes"),
                          id("total/energy_j"),
                          id("total/dram_energy_j") };
            t.push_back(std::move(ids));
        }
        return t;
    }();
    return table[static_cast<std::size_t>(strategy)];
}
#endif

/**
 * Per-sub-layer latency/traffic/energy attribution (the FuseMax
 * style per-Einsum breakdown): one gauge per (strategy, sub-layer,
 * metric), accumulated across evaluations into the thread's
 * current registry.  Runs on the thread that called evaluate(), so
 * sweep workers attribute into their per-task registries and the
 * input-order merge keeps reports bit-identical per thread count.
 */
void
recordEvalAttribution(StrategyKind strategy, const EvalResult &result)
{
#if TRANSFUSION_OBS_ENABLED
    const AttributionIds &ids = attributionIds(strategy);
    obs::Registry &reg = obs::currentRegistry();
    static const auto kinds = model::allLayerKinds();
    for (std::size_t k = 0; k < kinds.size(); ++k) {
        const LayerMetrics &m = result.layer(kinds[k]);
        reg.gaugeAdd(ids.layers[k][0], m.latency_s);
        reg.gaugeAdd(ids.layers[k][1], m.dram_bytes);
        reg.gaugeAdd(ids.layers[k][2], m.energy.total());
    }
    reg.gaugeAdd(ids.total[0], result.total.latency_s);
    reg.gaugeAdd(ids.total[1], result.total.compute_s);
    reg.gaugeAdd(ids.total[2], result.total.dram_s);
    reg.gaugeAdd(ids.total[3], result.total.dram_bytes);
    reg.gaugeAdd(ids.total[4], result.total.energy.total());
    reg.gaugeAdd(ids.total[5], result.total.energy.dram_j);
    TF_COUNT("eval/evaluations", 1);
#else
    (void)strategy;
    (void)result;
#endif
}

} // namespace

Workload
Workload::selfAttention(std::int64_t seq)
{
    return Workload{ seq, seq, false };
}

Workload
Workload::causalSelfAttention(std::int64_t seq)
{
    return Workload{ seq, seq, true };
}

Workload
Workload::crossAttention(std::int64_t tgt, std::int64_t src)
{
    return Workload{ tgt, src, false, false };
}

Workload
Workload::decodeStep(std::int64_t cache_len)
{
    return Workload{ 1, cache_len, false, true };
}

Evaluator::Evaluator(arch::ArchConfig arch,
                     model::TransformerConfig cfg, std::int64_t seq,
                     EvaluatorOptions options)
    : Evaluator(std::move(arch), std::move(cfg),
                Workload::selfAttention(seq), options)
{}

Evaluator::Evaluator(arch::ArchConfig arch,
                     model::TransformerConfig cfg,
                     Workload workload, EvaluatorOptions options)
    : arch_(std::move(arch)), cfg_(std::move(cfg)),
      workload_(workload), opts_(options)
{
    arch_.validate();
    cfg_.validate();
    cascades_ = &sharedCascades(cfg_);
    if (workload_.query_len <= 0 || workload_.context_len <= 0)
        tf_fatal("workload lengths must be positive, got P=",
                 workload_.query_len, " M=",
                 workload_.context_len);
    // Inner context tile: the largest divisor of the context that
    // fits the 2D columns (Table 1 maps m0 onto columns for MHA).
    const std::int64_t m0 =
        largestDivisorUpTo(workload_.context_len, arch_.pe2d.cols);
    dims_ = model::makeDims(cfg_, workload_.query_len, m0,
                            workload_.context_len / m0);
    // With a KV cache, the QKV layer only projects the new
    // positions: its context extent shrinks to query_len.
    if (workload_.kv_cached) {
        const std::int64_t q0 = largestDivisorUpTo(
            workload_.query_len, arch_.pe2d.cols);
        qkv_dims_ = model::makeDims(cfg_, workload_.query_len, q0,
                                    workload_.query_len / q0);
    } else {
        qkv_dims_ = dims_;
    }
}

/** The sub-layer cascades (by layerIndex) and the Unfused MHA one. */
struct Evaluator::Cascades
{
    std::vector<einsum::Cascade> layers;
    einsum::Cascade unfused_mha;
};

const Evaluator::Cascades &
Evaluator::sharedCascades(const model::TransformerConfig &cfg)
{
    // buildCascade reads only d_model (LayerNorm's 1/(H*F) means)
    // and the FFN activation; the QKV, MHA and Unfused MHA cascades
    // are the same for every model.  So there is one entry per
    // distinct (d_model, activation), built under the lock on first
    // use and kept for the life of the process, and finding it
    // compares two numbers, not the model's name.
    struct Entry
    {
        std::int64_t d_model;
        einsum::UnaryOp activation;
        std::unique_ptr<const Cascades> cascades;
    };
    static std::mutex mutex;
    static std::vector<Entry> entries;
    std::lock_guard<std::mutex> lock(mutex);
    for (const Entry &e : entries) {
        if (e.d_model == cfg.d_model && e.activation == cfg.activation)
            return *e.cascades;
    }
    auto built = std::make_unique<Cascades>(
        Cascades{ {}, model::buildUnfusedMhaCascade() });
    for (const LayerKind kind : model::allLayerKinds())
        built->layers.push_back(model::buildCascade(kind, cfg));
    entries.push_back({ cfg.d_model, cfg.activation, std::move(built) });
    return *entries.back().cascades;
}

double
Evaluator::bufferWords() const
{
    return static_cast<double>(arch_.buffer_bytes)
        / static_cast<double>(arch_.element_bytes);
}

dpipe::PipelineResult
Evaluator::computePlan(LayerKind kind, StrategyKind strategy) const
{
    const einsum::DimEnv &dims =
        kind == LayerKind::Qkv ? qkv_dims_ : dims_;
    const einsum::Cascade &layer = cascades_->layers[layerIndex(kind)];
    switch (strategy) {
      case StrategyKind::Unfused:
      case StrategyKind::Flat:
        // FLAT fuses attention on-chip per Q row but recomputes a
        // full (multi-pass) row softmax and executes operators
        // serially -- the unfused MHA cascade models its compute.
        return dpipe::scheduleSequential(
            kind == LayerKind::Mha ? cascades_->unfused_mha : layer,
            dims, arch_, opts_.pipeline);
      case StrategyKind::FuseMax:
      case StrategyKind::FuseMaxLayerFuse:
        // FuseMax pipelines inside MHA only (with partial softmax
        // mapped onto the 2D array); the rest is serial.
        if (kind == LayerKind::Mha) {
            auto popts = opts_.pipeline;
            popts.static_exp_on_2d = true;
            return dpipe::scheduleStaticPipeline(layer, dims, arch_,
                                                 popts);
        }
        return dpipe::scheduleSequential(layer, dims, arch_,
                                         opts_.pipeline);
      case StrategyKind::TransFusion: {
        // DPipe explores three plan families and keeps the best:
        // bipartition pipelining with DP placement, the static
        // 2D/1D split, and the cooperative tile-split execution.
        auto best = dpipe::schedulePipeline(kind, layer, dims, arch_,
                                            opts_.pipeline);
        auto fixed = dpipe::scheduleStaticPipeline(layer, dims,
                                                   arch_,
                                                   opts_.pipeline);
        if (fixed.total_seconds < best.total_seconds)
            best = fixed;
        auto coop = dpipe::scheduleCooperative(layer, dims, arch_,
                                               opts_.pipeline);
        if (coop.total_seconds < best.total_seconds)
            best = coop;
        return best;
      }
    }
    tf_panic("unknown StrategyKind");
}

double
Evaluator::phaseTrafficWords(LayerKind kind, StrategyKind strategy,
                             double rr) const
{
    const double w = bufferWords();
    const double b = static_cast<double>(cfg_.batch);
    const double p = static_cast<double>(workload_.query_len);
    const double m = static_cast<double>(workload_.context_len);
    const double d = static_cast<double>(cfg_.d_model);
    const double s = static_cast<double>(cfg_.ffn_hidden);
    const double h = static_cast<double>(cfg_.heads);
    const double e = static_cast<double>(cfg_.head_dim);
    const double f = e;

    switch (kind) {
      case LayerKind::Qkv: {
        // Q from the query stream, K/V from the context stream
        // (only the new positions when the cache holds the rest).
        // The contraction runs over the input width d_in (== d
        // except for tensor-parallel shards).
        const double d_in = static_cast<double>(cfg_.dInput());
        const double kv_rows = workload_.kv_cached ? p : m;
        return rr
            * (costmodel::gemmTrafficWords(b * p, d_in, d, w)
               + 2.0
                     * costmodel::gemmTrafficWords(b * kv_rows,
                                                   d_in, d, w));
      }
      case LayerKind::Mha:
        if (strategy == StrategyKind::Unfused) {
            // QK^T, materialized scores, multi-pass softmax, AV.
            const double scores = p * m;
            return rr * b * h
                * (costmodel::gemmTrafficWords(p, e, m, w)
                   + opts_.softmax_extra_words * scores
                   + costmodel::gemmTrafficWords(p, m, f, w));
        }
        // FLAT / FuseMax: fused streaming attention.
        return b * h * costmodel::attentionStreamWords(p, m, e, f, w);
      case LayerKind::LayerNorm:
        // Read residual + attention output, write normalized.
        return rr * 3.0 * b * p * d;
      case LayerKind::Ffn:
        // Two GEMMs with an activation round trip between them.
        return rr
            * (costmodel::gemmTrafficWords(b * p, d, s, w)
               + 2.0 * b * p * s
               + costmodel::gemmTrafficWords(b * p, s, d, w));
    }
    tf_panic("unknown LayerKind");
}

std::array<double, 4>
Evaluator::fusedTrafficWords(const tileseek::TileShape &tile) const
{
    costmodel::FusedStackShape shape;
    shape.batch = static_cast<double>(cfg_.batch);
    shape.seq = static_cast<double>(workload_.query_len);
    shape.context = static_cast<double>(workload_.context_len);
    shape.kv_precomputed = workload_.kv_cached;
    shape.d_model = static_cast<double>(cfg_.d_model);
    shape.ffn_hidden = static_cast<double>(cfg_.ffn_hidden);
    shape.d_input = static_cast<double>(cfg_.d_input);

    const costmodel::FusedStackTraffic t =
        costmodel::fusedStackTraffic(shape,
                                     { tile.b, tile.p },
                                     bufferWords());

    const double d = shape.d_model, s = shape.ffn_hidden;
    const double d_in = shape.dIn();
    const double w_total = 3.0 * d_in * d + 2.0 * d * s + s + d;
    const double qkv_frac = 3.0 * d_in * d / w_total;
    const double ffn_frac = 1.0 - qkv_frac;

    std::array<double, 4> words{};
    words[layerIndex(LayerKind::Qkv)] = t.input_words
        + t.kv_spill_words + t.weight_words * qkv_frac;
    words[layerIndex(LayerKind::Mha)] = t.kv_stream_words;
    words[layerIndex(LayerKind::LayerNorm)] = 0.0;
    words[layerIndex(LayerKind::Ffn)] = t.output_words
        + t.weight_words * ffn_frac;
    return words;
}

std::array<double, 4>
Evaluator::selectiveTrafficWords() const
{
    // QKV and FFN phase-wise with optimally blocked weight streaming
    // (no re-read factor); attention stays fused.
    std::array<double, 4> words{};
    for (LayerKind kind : model::allLayerKinds()) {
        words[layerIndex(kind)] =
            phaseTrafficWords(kind, StrategyKind::FuseMax, 1.0);
    }
    // LayerNorm stays fused with attention: AV never leaves the
    // chip, so it only reads the residual and writes NR.
    words[layerIndex(LayerKind::LayerNorm)] =
        2.0 * static_cast<double>(cfg_.batch)
        * static_cast<double>(workload_.query_len)
        * static_cast<double>(cfg_.d_model);
    return words;
}

bool
Evaluator::overlapsDram(LayerKind kind, StrategyKind strategy) const
{
    if (!opts_.overlap_dram)
        return false;
    switch (strategy) {
      case StrategyKind::Unfused:
        // Phase-by-phase execution: load, compute, store.
        return false;
      case StrategyKind::Flat:
      case StrategyKind::FuseMax:
        // Only the fused attention double-buffers its streams.
        return kind == LayerKind::Mha;
      case StrategyKind::FuseMaxLayerFuse:
      case StrategyKind::TransFusion:
        return true;
    }
    tf_panic("unknown StrategyKind");
}

costmodel::EnergyBreakdown
Evaluator::onChipEnergy(LayerKind kind, StrategyKind strategy) const
{
    const bool is_mha = kind == LayerKind::Mha;
    costmodel::OnChipParams params;
    switch (strategy) {
      case StrategyKind::Unfused:
      case StrategyKind::Flat:
        params.rf_forward_fraction = 0.0;
        break;
      case StrategyKind::FuseMax:
      case StrategyKind::FuseMaxLayerFuse:
        params.rf_forward_fraction =
            is_mha ? opts_.rf_forward_fused : 0.0;
        break;
      case StrategyKind::TransFusion:
        params.rf_forward_fraction = opts_.rf_forward_fused;
        break;
    }
    return costmodel::cascadeOnChipEnergy(
               is_mha && strategy == StrategyKind::Unfused
                   ? cascades_->unfused_mha
                   : cascades_->layers[layerIndex(kind)],
               kind == LayerKind::Qkv ? qkv_dims_ : dims_, arch_,
               params)
        .scaled(static_cast<double>(cfg_.batch));
}

EvalResult
Evaluator::evaluate(StrategyKind strategy) const
{
    TF_SPAN(evaluateSpanName(strategy));
    TF_TIMER("eval/evaluate");
    EvalResult result;
    const double batch = static_cast<double>(cfg_.batch);
    const double eb = static_cast<double>(arch_.element_bytes);

    // Causal masking touches only the attended score matrix: the
    // triangular mask halves the context-dependent MHA work and
    // its K/V streaming on average.
    const double mha_scale = workload_.causal ? 0.5 : 1.0;

    // Compute side (per sub-layer, scaled to the whole batch).
    for (LayerKind kind : model::allLayerKinds()) {
        const auto plan = computePlan(kind, strategy);
        const double scale = batch
            * (kind == LayerKind::Mha ? mha_scale : 1.0);
        LayerMetrics &m = result.layer(kind);
        m.compute_s = plan.total_seconds * scale;
        m.ops_2d = plan.work.ops_2d * scale;
        m.ops_1d = plan.work.ops_1d * scale;
    }

    // Traffic side.
    std::array<double, 4> traffic_words{};
    if (usesLayerFusion(strategy)) {
        double compute_hint = 0;
        for (const auto &m : result.layers)
            compute_hint += m.compute_s;
        if (strategy == StrategyKind::TransFusion
                && opts_.use_tileseek) {
            result.tile = seekTile(arch_, cfg_,
                                   workload_.query_len,
                                   compute_hint, opts_.mcts,
                                   workload_.context_len);
        } else {
            result.tile = naiveTile(arch_, cfg_,
                                    workload_.query_len,
                                    workload_.context_len);
        }
        traffic_words = fusedTrafficWords(result.tile);
        // Selective fusion: when per-tile weight re-streaming costs
        // more than phase-wise blocked weights, de-fuse QKV/FFN and
        // keep only attention+LayerNorm fused.
        const auto selective = selectiveTrafficWords();
        double full_total = 0, selective_total = 0;
        for (std::size_t i = 0; i < 4; ++i) {
            full_total += traffic_words[i];
            selective_total += selective[i];
        }
        if (selective_total < full_total)
            traffic_words = selective;
    } else {
        for (LayerKind kind : model::allLayerKinds()) {
            traffic_words[layerIndex(kind)] =
                phaseTrafficWords(kind, strategy,
                                  opts_.unfused_reread_factor);
        }
    }

    // Roofline combination and energy, then whole-model scaling.
    const double layers = static_cast<double>(cfg_.layers);
    for (LayerKind kind : model::allLayerKinds()) {
        LayerMetrics &m = result.layer(kind);
        const double traffic_scale =
            kind == LayerKind::Mha ? mha_scale : 1.0;
        m.dram_bytes = traffic_words[layerIndex(kind)] * eb
            * traffic_scale;
        m.dram_s = costmodel::dramSeconds(arch_, m.dram_bytes);
        m.latency_s = overlapsDram(kind, strategy)
            ? costmodel::overlapped(m.compute_s, m.dram_s)
            : m.compute_s + m.dram_s;

        m.energy = onChipEnergy(kind, strategy)
                       .scaled(traffic_scale);
        m.energy.dram_j = costmodel::dramEnergy(arch_, m.dram_bytes);

        // Scale to all encoder/decoder layers.
        m = m.scaled(layers);

        result.total += m;
    }
    recordEvalAttribution(strategy, result);
    return result;
}

} // namespace transfusion::schedule
