/**
 * @file
 * Sharded whole-stack evaluation: per-chip Evaluator runs on the
 * TpShard configs, ring collectives, pipeline DP.
 */

#include "sharded_evaluator.hh"

#include <algorithm>
#include <vector>

#include "common/logging.hh"
#include "obs/obs.hh"
#include "schedule/decode.hh"

namespace transfusion::multichip
{

namespace
{

/** "multichip.sharded_evaluate/<strategy>", built once per
 *  strategy. */
const char *
shardedSpanName(schedule::StrategyKind strategy)
{
    static const std::vector<std::string> names =
        schedule::strategyNames("multichip.sharded_evaluate/");
    return names[static_cast<std::size_t>(strategy)].c_str();
}

} // namespace

std::string
ShardSpec::toString() const
{
    return "tp" + std::to_string(tp) + "/pp" + std::to_string(pp);
}

ShardedStackEvaluator::ShardedStackEvaluator(
    ClusterConfig cluster, model::StackConfig stack,
    std::int64_t src_len, std::int64_t tgt_len, ShardSpec spec,
    schedule::EvaluatorOptions options)
    : cluster_(std::move(cluster)), stack_(std::move(stack)),
      src_len_(src_len), tgt_len_(tgt_len), spec_(spec),
      opts_(options)
{
    cluster_.validate();
    stack_.validate();
    if (spec_.tp < 1 || spec_.pp < 1)
        tf_fatal("shard spec ", spec_.toString(),
                 ": tp and pp must be >= 1");
    if (spec_.chips() != cluster_.size())
        tf_fatal("shard spec ", spec_.toString(), " needs ",
                 spec_.chips(), " chips but cluster '",
                 cluster_.name, "' has ", cluster_.size());
    // Each pipeline stage is one TP group of `tp` chips that
    // lock-step through collectives; they must be identical.
    for (int s = 0; s < spec_.pp; ++s)
        for (int i = 1; i < spec_.tp; ++i)
            if (!(cluster_.chips[static_cast<std::size_t>(
                      s * spec_.tp + i)]
                  == stageArch(s)))
                tf_fatal("cluster '", cluster_.name,
                         "': pipeline stage ", s,
                         " mixes different chips; TP groups must "
                         "be homogeneous");
    if (stack_.encoder_layers > 0 && src_len_ <= 0)
        tf_fatal("stack has an encoder but src_len is ", src_len_);
    if (stack_.decoder_layers > 0 && tgt_len_ <= 0)
        tf_fatal("stack has a decoder but tgt_len is ", tgt_len_);
    shard_ = shardTransformer(stack_.block, spec_.tp);
}

const arch::ArchConfig &
ShardedStackEvaluator::stageArch(int stage) const
{
    return cluster_.chips[static_cast<std::size_t>(stage * spec_.tp)];
}

schedule::LayerMetrics
ShardedStackEvaluator::oneLayer(
    const schedule::Workload &workload,
    schedule::StrategyKind strategy, int stage, bool include_ffn,
    CollectiveCost *collectives,
    const schedule::EvaluatorOptions &opts) const
{
    const arch::ArchConfig &arch = stageArch(stage);
    schedule::LayerMetrics m;

    if (spec_.tp == 1) {
        // Single evaluation, exactly StackEvaluator::blockMetrics'
        // inner loop: this is the bit-for-bit reproduction path.
        model::TransformerConfig one = stack_.block;
        one.layers = 1;
        schedule::Evaluator eval(arch, one, workload, opts);
        const schedule::EvalResult r = eval.evaluate(strategy);
        m += r.layer(model::LayerKind::Qkv);
        m += r.layer(model::LayerKind::Mha);
        m += r.layer(model::LayerKind::LayerNorm);
        if (include_ffn)
            m += r.layer(model::LayerKind::Ffn);
        return m;
    }

    // Two per-chip evaluations: the attention shard prices the
    // column-parallel QKV + head-parallel MHA, the FFN shard the
    // replicated LN + column/row-parallel FFN.  Sub-layers are
    // summed in StackEvaluator's order.
    model::TransformerConfig attn = shard_.attn_cfg;
    attn.layers = 1;
    model::TransformerConfig ffn = shard_.ffn_cfg;
    ffn.layers = 1;
    schedule::Evaluator attn_eval(arch, attn, workload, opts);
    schedule::Evaluator ffn_eval(arch, ffn, workload, opts);
    const schedule::EvalResult ra = attn_eval.evaluate(strategy);
    const schedule::EvalResult rf = ffn_eval.evaluate(strategy);
    m += ra.layer(model::LayerKind::Qkv);
    m += ra.layer(model::LayerKind::Mha);
    m += rf.layer(model::LayerKind::LayerNorm);
    if (include_ffn)
        m += rf.layer(model::LayerKind::Ffn);

    // Ring all-reduces of the B x P x D activation: one after the
    // attention output projection, one after the FFN.
    const double payload_bytes =
        shard_.allReduceElements(stack_.block.batch,
                                 workload.query_len,
                                 stack_.block.d_model)
        * static_cast<double>(arch.element_bytes);
    const CollectiveCost one = collectiveCost(
        CollectiveKind::AllReduce, payload_bytes, spec_.tp,
        cluster_.link);
    const int count = shard_.allReducesPerLayer(include_ffn);
    const CollectiveCost layer_cost =
        one.scaled(static_cast<double>(count));
    m.latency_s += layer_cost.seconds;
    // Each chip's serdes moves bytes_per_chip, so its energy share
    // is exactly 1/tp of the collective total.
    m.energy.link_j +=
        layer_cost.energy_j / static_cast<double>(spec_.tp);
    if (collectives)
        *collectives += layer_cost;
    return m;
}

ShardedStackResult
ShardedStackEvaluator::evaluate(
    schedule::StrategyKind strategy) const
{
    TF_SPAN(shardedSpanName(strategy));
    ShardedStackResult res;
    res.spec = spec_;

    const std::int64_t enc_layers = stack_.encoder_layers;
    const std::int64_t dec_layers = stack_.decoder_layers;
    const bool cross = dec_layers > 0 && stack_.decoder_cross_attention;

    // One-layer metrics per pipeline stage, reusing evaluations
    // across stages with identical chips (the common case: all of
    // them).  enc/self/cross one-layer CollectiveCosts are stored
    // alongside so totals can be assembled per placement.
    struct StageCosts
    {
        schedule::LayerMetrics enc, dec_self, dec_cross;
        CollectiveCost enc_c, self_c, cross_c;
        bool filled = false;
    };
    std::vector<StageCosts> per_stage(
        static_cast<std::size_t>(spec_.pp));
    const auto stageCosts = [&](int s) -> const StageCosts & {
        StageCosts &sc = per_stage[static_cast<std::size_t>(s)];
        if (sc.filled)
            return sc;
        for (int t = 0; t < s; ++t) {
            if (per_stage[static_cast<std::size_t>(t)].filled
                && stageArch(t) == stageArch(s)) {
                sc = per_stage[static_cast<std::size_t>(t)];
                return sc;
            }
        }
        if (enc_layers > 0)
            sc.enc = oneLayer(
                schedule::Workload::selfAttention(src_len_),
                strategy, s, /*include_ffn=*/true, &sc.enc_c,
                opts_);
        if (dec_layers > 0) {
            sc.dec_self = oneLayer(
                schedule::Workload::causalSelfAttention(tgt_len_),
                strategy, s, /*include_ffn=*/true, &sc.self_c,
                opts_);
            if (cross)
                sc.dec_cross = oneLayer(
                    schedule::Workload::crossAttention(tgt_len_,
                                                       src_len_),
                    strategy, s, /*include_ffn=*/false,
                    &sc.cross_c, opts_);
        }
        sc.filled = true;
        return sc;
    };

    // Per-section assembly for one stage's span of layers,
    // preserving StackEvaluator's encoder -> decoder_self ->
    // decoder_cross accumulation order.
    const auto addSpan = [&](int s, std::int64_t enc_n,
                             std::int64_t dec_n) {
        const StageCosts &sc = stageCosts(s);
        if (enc_n > 0) {
            res.per_chip.encoder +=
                sc.enc.scaled(static_cast<double>(enc_n));
            res.tp_collectives +=
                sc.enc_c.scaled(static_cast<double>(enc_n));
        }
        if (dec_n > 0) {
            res.per_chip.decoder_self +=
                sc.dec_self.scaled(static_cast<double>(dec_n));
            res.tp_collectives +=
                sc.self_c.scaled(static_cast<double>(dec_n));
            if (cross) {
                res.per_chip.decoder_cross +=
                    sc.dec_cross.scaled(static_cast<double>(dec_n));
                res.tp_collectives +=
                    sc.cross_c.scaled(static_cast<double>(dec_n));
            }
        }
    };

    if (spec_.pp == 1) {
        // Single stage: scale each section by its full layer count
        // in one multiply -- the exact StackEvaluator arithmetic.
        addSpan(0, enc_layers, dec_layers);
        res.per_chip.total += res.per_chip.encoder;
        res.per_chip.total += res.per_chip.decoder_self;
        res.per_chip.total += res.per_chip.decoder_cross;
        res.pipeline.first_layer = {
            0, static_cast<int>(enc_layers + dec_layers)
        };
        res.pipeline.stage_seconds = {
            res.per_chip.total.latency_s
        };
        res.pipeline.bottleneck_s = res.per_chip.total.latency_s;
        res.pipeline.total_s = res.per_chip.total.latency_s;
        res.latency_s = res.per_chip.total.latency_s;
        res.steady_state_s = res.per_chip.total.latency_s;
    } else {
        // Pipeline DP over the layer-unit sequence: encoder layers
        // first, then decoder layers (self + cross are one unit).
        const double eb = static_cast<double>(
            cluster_.chips.front().element_bytes);
        const double b =
            static_cast<double>(stack_.block.batch);
        const double d =
            static_cast<double>(stack_.block.d_model);
        std::vector<PipelineLayer> units;
        units.reserve(
            static_cast<std::size_t>(enc_layers + dec_layers));
        for (std::int64_t i = 0; i < enc_layers; ++i) {
            PipelineLayer u;
            for (int s = 0; s < spec_.pp; ++s)
                u.latency_per_stage.push_back(
                    stageCosts(s).enc.latency_s);
            u.activation_bytes =
                b * static_cast<double>(src_len_) * d * eb;
            units.push_back(std::move(u));
        }
        for (std::int64_t i = 0; i < dec_layers; ++i) {
            PipelineLayer u;
            for (int s = 0; s < spec_.pp; ++s) {
                const StageCosts &sc = stageCosts(s);
                u.latency_per_stage.push_back(
                    sc.dec_self.latency_s
                    + (cross ? sc.dec_cross.latency_s : 0.0));
            }
            u.activation_bytes =
                b * static_cast<double>(tgt_len_) * d * eb;
            units.push_back(std::move(u));
        }
        res.pipeline =
            partitionLayers(units, spec_.pp, cluster_.link);

        // Assemble the per-rank column from the placement.
        for (int s = 0; s < spec_.pp; ++s) {
            const std::int64_t a = res.pipeline.first_layer
                [static_cast<std::size_t>(s)];
            const std::int64_t e = res.pipeline.first_layer
                [static_cast<std::size_t>(s) + 1];
            const std::int64_t enc_n =
                std::min(e, enc_layers) - std::min(a, enc_layers);
            const std::int64_t dec_n =
                std::max(e - enc_layers, std::int64_t{0})
                - std::max(a - enc_layers, std::int64_t{0});
            addSpan(s, enc_n, dec_n);
        }
        res.per_chip.total += res.per_chip.encoder;
        res.per_chip.total += res.per_chip.decoder_self;
        res.per_chip.total += res.per_chip.decoder_cross;
        res.latency_s = res.pipeline.total_s;
        res.steady_state_s = res.pipeline.bottleneck_s;
    }

    res.cluster_energy_j =
        res.per_chip.total.energy.total()
            * static_cast<double>(spec_.tp)
        + res.pipeline.transfers.energy_j;

    TF_OBS_ONLY({
        obs::Registry &reg = obs::currentRegistry();
        const std::string prefix = "multichip/"
                                   + spec_.toString() + "/"
                                   + toString(strategy) + "/";
        reg.gaugeAdd(prefix + "latency_s", res.latency_s);
        reg.gaugeAdd(prefix + "steady_state_s",
                     res.steady_state_s);
        reg.gaugeAdd(prefix + "link_bytes",
                     res.tp_collectives.total_link_bytes
                         + res.pipeline.transfers.total_link_bytes);
        reg.gaugeAdd(prefix + "cluster_energy_j",
                     res.cluster_energy_j);
        TF_COUNT("multichip/sharded_evaluations", 1);
    })
    return res;
}

ShardedStackEvaluator::DecodeStepCost
ShardedStackEvaluator::decodeStepCost(
    std::int64_t cache_len, schedule::StrategyKind strategy) const
{
    if (stack_.encoder_layers > 0)
        tf_fatal("decode steps need a decoder-only stack; '",
                 stack_.name, "' has ", stack_.encoder_layers,
                 " encoder layers");
    const std::int64_t layers = stack_.decoder_layers;

    if (spec_.tp == 1 && spec_.pp == 1) {
        // Single chip: this IS DecodeEvaluator::stepMetrics.
        const schedule::DecodeEvaluator deval(
            stageArch(0), stack_.block,
            { /*prompt_len=*/1, /*generate_tokens=*/0 }, opts_);
        const schedule::LayerMetrics m =
            deval.stepMetrics(cache_len, strategy);
        return { m.latency_s, m.energy.total() };
    }

    // Per-step TileSeek would dwarf the step itself (the same
    // trade DecodeEvaluator makes).
    schedule::EvaluatorOptions opts = opts_;
    opts.use_tileseek = false;
    const schedule::Workload step =
        schedule::Workload::decodeStep(cache_len);

    if (spec_.pp == 1) {
        const schedule::LayerMetrics m = oneLayer(
            step, strategy, 0, /*include_ffn=*/true, nullptr,
            opts);
        // All tp chips of the single stage do symmetric work, so
        // the cluster draw is the per-chip layer energy (TP link
        // share included) times tp, over the whole depth.
        return { m.latency_s * static_cast<double>(layers),
                 m.energy.total() * static_cast<double>(layers)
                     * static_cast<double>(spec_.tp) };
    }

    // Decode pipeline: the token flows through every stage in
    // series, so the step costs the sum of stage times plus the
    // one-token activation hops between them.
    const double eb = static_cast<double>(
        cluster_.chips.front().element_bytes);
    const double act_bytes =
        static_cast<double>(stack_.block.batch)
        * static_cast<double>(stack_.block.d_model) * eb;
    std::vector<PipelineLayer> units;
    units.reserve(static_cast<std::size_t>(layers));
    std::vector<schedule::LayerMetrics> per_stage(
        static_cast<std::size_t>(spec_.pp));
    std::vector<bool> filled(
        static_cast<std::size_t>(spec_.pp), false);
    for (std::int64_t i = 0; i < layers; ++i) {
        PipelineLayer u;
        for (int s = 0; s < spec_.pp; ++s) {
            schedule::LayerMetrics &sm =
                per_stage[static_cast<std::size_t>(s)];
            if (!filled[static_cast<std::size_t>(s)]) {
                for (int t = 0; t < s; ++t)
                    if (filled[static_cast<std::size_t>(t)]
                        && stageArch(t) == stageArch(s)) {
                        sm = per_stage[static_cast<std::size_t>(
                            t)];
                        filled[static_cast<std::size_t>(s)] =
                            true;
                        break;
                    }
                if (!filled[static_cast<std::size_t>(s)]) {
                    sm = oneLayer(step, strategy, s,
                                  /*include_ffn=*/true, nullptr,
                                  opts);
                    filled[static_cast<std::size_t>(s)] = true;
                }
            }
            u.latency_per_stage.push_back(sm.latency_s);
        }
        u.activation_bytes = act_bytes;
        units.push_back(std::move(u));
    }
    const PipelinePartition part =
        partitionLayers(units, spec_.pp, cluster_.link);
    // Each layer runs on its assigned stage's TP group; add the
    // inter-stage hop energy the placement charged.
    double joules = part.transfers.energy_j;
    for (int s = 0; s < spec_.pp; ++s) {
        const std::int64_t assigned =
            part.first_layer[static_cast<std::size_t>(s) + 1]
            - part.first_layer[static_cast<std::size_t>(s)];
        joules += per_stage[static_cast<std::size_t>(s)]
                      .energy.total()
            * static_cast<double>(assigned)
            * static_cast<double>(spec_.tp);
    }
    return { part.total_s, joules };
}

} // namespace transfusion::multichip
