/**
 * @file
 * Implementation of the generation evaluator.
 */

#include "decode.hh"

#include <algorithm>

#include "common/logging.hh"

namespace transfusion::schedule
{

namespace
{

/** Sum of per-block metrics across one decode step's sub-layers. */
LayerMetrics
flatten(const EvalResult &r)
{
    LayerMetrics m;
    for (const auto &layer : r.layers)
        m += layer;
    return m;
}

} // namespace

DecodeEvaluator::DecodeEvaluator(arch::ArchConfig arch,
                                 model::TransformerConfig cfg,
                                 DecodeWorkload workload,
                                 EvaluatorOptions options,
                                 int samples)
    : arch_(std::move(arch)), cfg_(std::move(cfg)),
      workload_(workload), opts_(options), samples_(samples)
{
    cfg_.validate();
    if (workload_.prompt_len <= 0)
        tf_fatal("prompt length must be positive, got ",
                 workload_.prompt_len);
    if (workload_.generate_tokens < 0)
        tf_fatal("generate_tokens must be non-negative, got ",
                 workload_.generate_tokens);
    if (samples_ < 2)
        tf_fatal("need at least 2 integration samples, got ",
                 samples_);
    // Per-step tiling search would dwarf the step cost; decode
    // steps use the naive tile.
    opts_.use_tileseek = false;
}

LayerMetrics
DecodeEvaluator::stepMetrics(std::int64_t cache_len,
                             StrategyKind strategy) const
{
    if (cache_len <= 0)
        tf_fatal("decode step needs a positive cache length, got ",
                 cache_len);
    Evaluator eval(arch_, cfg_,
                   Workload::decodeStep(cache_len), opts_);
    return flatten(eval.evaluate(strategy));
}

DecodeResult
DecodeEvaluator::evaluate(StrategyKind strategy) const
{
    DecodeResult r;

    // Prefill: causal self-attention over the prompt.
    {
        Evaluator eval(arch_, cfg_,
                       Workload::causalSelfAttention(
                           workload_.prompt_len),
                       opts_);
        r.prefill = flatten(eval.evaluate(strategy));
    }

    const std::int64_t t = workload_.generate_tokens;
    if (t > 0) {
        // Sample step costs at evenly spaced cache lengths and
        // integrate: cost(step i) is affine in the cache length,
        // so the trapezoid over segment sums is exact up to the
        // sampling of any roofline crossover inside a segment.
        std::vector<std::int64_t> lens;
        for (int i = 0; i < samples_; ++i) {
            const double frac = static_cast<double>(i)
                / static_cast<double>(samples_ - 1);
            lens.push_back(workload_.prompt_len
                           + 1
                           + static_cast<std::int64_t>(
                               frac
                               * static_cast<double>(t - 1)));
        }
        lens.erase(std::unique(lens.begin(), lens.end()),
                   lens.end());

        std::vector<LayerMetrics> at;
        at.reserve(lens.size());
        for (auto len : lens)
            at.push_back(stepMetrics(len, strategy));

        if (lens.size() == 1) {
            r.decode = at[0].scaled(static_cast<double>(t));
        } else {
            for (std::size_t seg = 0; seg + 1 < lens.size();
                 ++seg) {
                const double steps = static_cast<double>(
                    lens[seg + 1] - lens[seg]
                    + (seg + 2 == lens.size() ? 1 : 0));
                LayerMetrics mid;
                mid += at[seg];
                mid += at[seg + 1];
                r.decode += mid.scaled(0.5 * steps);
            }
        }
        r.seconds_per_step =
            r.decode.latency_s / static_cast<double>(t);
    }

    r.total += r.prefill;
    r.total += r.decode;
    if (r.total.latency_s > 0 && t > 0) {
        r.tokens_per_second =
            static_cast<double>(t * cfg_.batch)
            / r.total.latency_s;
    }
    return r;
}

} // namespace transfusion::schedule
