/**
 * @file
 * Implementation of the stack evaluator.
 */

#include "stack_evaluator.hh"

#include <array>

#include "common/logging.hh"
#include "obs/obs.hh"

namespace transfusion::schedule
{

namespace
{

/** "stack_evaluator.evaluate/<strategy>", built once per strategy. */
const char *
stackSpanName(StrategyKind strategy)
{
    static const std::vector<std::string> names =
        strategyNames("stack_evaluator.evaluate/");
    return names[static_cast<std::size_t>(strategy)].c_str();
}

} // namespace

StackEvaluator::StackEvaluator(arch::ArchConfig arch,
                               model::StackConfig stack,
                               std::int64_t src_len,
                               std::int64_t tgt_len,
                               EvaluatorOptions options)
    : arch_(std::move(arch)), stack_(std::move(stack)),
      src_len_(src_len), tgt_len_(tgt_len), opts_(options)
{
    stack_.validate();
    if (stack_.encoder_layers > 0 && src_len_ <= 0)
        tf_fatal("stack has an encoder but src_len is ", src_len_);
    if (stack_.decoder_layers > 0 && tgt_len_ <= 0)
        tf_fatal("stack has a decoder but tgt_len is ", tgt_len_);
}

LayerMetrics
StackEvaluator::blockMetrics(const Workload &workload,
                             StrategyKind strategy,
                             std::int64_t layers,
                             bool include_ffn) const
{
    // Evaluate one block (layers = 1), then scale: the per-layer
    // Evaluator already multiplies by its config's layer count.
    model::TransformerConfig one = stack_.block;
    one.layers = 1;
    Evaluator eval(arch_, one, workload, opts_);
    const EvalResult r = eval.evaluate(strategy);

    LayerMetrics m;
    m += r.layer(model::LayerKind::Qkv);
    m += r.layer(model::LayerKind::Mha);
    m += r.layer(model::LayerKind::LayerNorm);
    if (include_ffn)
        m += r.layer(model::LayerKind::Ffn);
    return m.scaled(static_cast<double>(layers));
}

StackResult
StackEvaluator::evaluate(StrategyKind strategy) const
{
    TF_SPAN(stackSpanName(strategy));
    StackResult r;
    if (stack_.encoder_layers > 0) {
        r.encoder = blockMetrics(
            Workload::selfAttention(src_len_), strategy,
            stack_.encoder_layers, /*include_ffn=*/true);
        r.total += r.encoder;
    }
    if (stack_.decoder_layers > 0) {
        r.decoder_self = blockMetrics(
            Workload::causalSelfAttention(tgt_len_), strategy,
            stack_.decoder_layers, /*include_ffn=*/true);
        r.total += r.decoder_self;
        if (stack_.decoder_cross_attention) {
            r.decoder_cross = blockMetrics(
                Workload::crossAttention(tgt_len_, src_len_),
                strategy, stack_.decoder_layers,
                /*include_ffn=*/false);
            r.total += r.decoder_cross;
        }
    }
    TF_OBS_ONLY({
        // Interned once per strategy: "stack/<strategy>/<field>".
        static const auto table = [] {
            std::vector<std::array<obs::MetricId, 5>> t;
            for (const std::string &name : strategyNames("stack/"))
                t.push_back(
                    { obs::internMetric(name + "/encoder/latency_s"),
                      obs::internMetric(name
                                        + "/decoder_self/latency_s"),
                      obs::internMetric(name
                                        + "/decoder_cross/latency_s"),
                      obs::internMetric(name + "/total/latency_s"),
                      obs::internMetric(name + "/total/dram_bytes") });
            return t;
        }();
        const auto &ids = table[static_cast<std::size_t>(strategy)];
        obs::Registry &reg = obs::currentRegistry();
        reg.gaugeAdd(ids[0], r.encoder.latency_s);
        reg.gaugeAdd(ids[1], r.decoder_self.latency_s);
        reg.gaugeAdd(ids[2], r.decoder_cross.latency_s);
        reg.gaugeAdd(ids[3], r.total.latency_s);
        reg.gaugeAdd(ids[4], r.total.dram_bytes);
        TF_COUNT("eval/stack_evaluations", 1);
    })
    return r;
}

} // namespace transfusion::schedule
