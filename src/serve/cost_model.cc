/**
 * @file
 * Implementation of the calibrated serve cost tables.
 */

#include "cost_model.hh"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/logging.hh"
#include "obs/obs.hh"

namespace transfusion::serve
{

namespace
{

/**
 * Geometric integer grid from lo to hi (inclusive, deduplicated).
 * Endpoints are exact so interpolation covers the full range.
 */
std::vector<std::int64_t>
geometricGrid(std::int64_t lo, std::int64_t hi, int points)
{
    tf_assert(lo > 0 && hi >= lo, "grid needs 0 < lo <= hi");
    tf_assert(points >= 2, "grid needs at least 2 points");
    std::vector<std::int64_t> xs;
    const double llo = std::log(static_cast<double>(lo));
    const double lhi = std::log(static_cast<double>(hi));
    for (int i = 0; i < points; ++i) {
        const double frac = static_cast<double>(i)
            / static_cast<double>(points - 1);
        auto x = static_cast<std::int64_t>(
            std::llround(std::exp(llo + frac * (lhi - llo))));
        xs.push_back(std::clamp(x, lo, hi));
    }
    xs.erase(std::unique(xs.begin(), xs.end()), xs.end());
    return xs;
}

/**
 * Piecewise-linear interpolation; x outside [xs.front, xs.back]
 * clamps to the endpoint value.  Linear extrapolation on the
 * boundary segment used to run through zero for a steep-enough
 * negative boundary slope, pricing out-of-grid batches at
 * 0 s/step — the endpoint is the honest bound the grid supports.
 */
double
interp(const std::vector<std::int64_t> &xs,
       const std::vector<double> &ys, double x)
{
    if (xs.size() == 1)
        return ys[0];
    if (x <= static_cast<double>(xs.front()))
        return ys.front();
    if (x >= static_cast<double>(xs.back()))
        return ys.back();
    std::size_t hi = 1;
    while (hi + 1 < xs.size() && x > static_cast<double>(xs[hi]))
        ++hi;
    const auto x0 = static_cast<double>(xs[hi - 1]);
    const auto x1 = static_cast<double>(xs[hi]);
    const double frac = (x - x0) / (x1 - x0);
    return ys[hi - 1] + frac * (ys[hi] - ys[hi - 1]);
}

} // namespace

ServeCostModel::ServeCostModel(arch::ArchConfig arch,
                               model::TransformerConfig cfg,
                               schedule::StrategyKind strategy,
                               std::int64_t max_batch,
                               std::int64_t max_context,
                               std::int64_t max_prompt,
                               ServeCostOptions options)
    : ServeCostModel(
          strategy, max_batch, max_context, max_prompt, options,
          // Decode sampling visits one batch size at a time, so a
          // one-entry evaluator cache keeps this as cheap as the
          // old loop that hoisted the DecodeEvaluator per batch.
          [&arch, &cfg, strategy, &options,
           cache = std::shared_ptr<schedule::DecodeEvaluator>(),
           cached_batch = std::int64_t{ -1 }](
              std::int64_t batch,
              std::int64_t cache_len) mutable {
              if (batch != cached_batch) {
                  model::TransformerConfig bcfg = cfg;
                  bcfg.batch = batch;
                  cache = std::make_shared<
                      schedule::DecodeEvaluator>(
                      arch, bcfg,
                      schedule::DecodeWorkload{
                          /*prompt_len=*/1,
                          /*generate_tokens=*/0 },
                      options.evaluator);
                  cached_batch = batch;
              }
              const schedule::LayerMetrics m =
                  cache->stepMetrics(cache_len, strategy);
              return StepCost{ m.latency_s, m.energy.total() };
          },
          [&arch, &cfg, strategy, &options](
              std::int64_t prompt_len) {
              model::TransformerConfig one = cfg;
              one.batch = 1;
              const schedule::Evaluator eval(
                  arch, one,
                  schedule::Workload::causalSelfAttention(
                      prompt_len),
                  options.evaluator);
              const schedule::LayerMetrics total =
                  eval.evaluate(strategy).total;
              return StepCost{ total.latency_s,
                               total.energy.total() };
          })
{
    cfg.validate();
}

ServeCostModel::ServeCostModel(schedule::StrategyKind strategy,
                               std::int64_t max_batch,
                               std::int64_t max_context,
                               std::int64_t max_prompt,
                               const ServeCostOptions &options,
                               const DecodeStepFn &decode_step,
                               const PrefillFn &prefill)
    : strategy_(strategy)
{
    TF_SPAN("serve.calibrate");
    if (max_batch <= 0)
        tf_fatal("max_batch must be positive, got ", max_batch);
    if (max_context <= 0)
        tf_fatal("max_context must be positive, got ", max_context);
    if (max_prompt <= 0)
        tf_fatal("max_prompt must be positive, got ", max_prompt);

    for (std::int64_t b = 1; b < max_batch; b *= 2)
        batches_.push_back(b);
    batches_.push_back(max_batch);

    const std::int64_t cache_lo = std::min<std::int64_t>(
        64, max_context);
    cache_lens_ = geometricGrid(cache_lo, max_context,
                                options.cache_samples);

    // Decode tables: batch-major over the cache-length grid.  One
    // sample fills both the seconds and joules rows.
    for (std::int64_t b : batches_) {
        std::vector<double> row_s;
        std::vector<double> row_j;
        row_s.reserve(cache_lens_.size());
        row_j.reserve(cache_lens_.size());
        for (std::int64_t len : cache_lens_) {
            const StepCost c = decode_step(b, len);
            row_s.push_back(c.seconds);
            row_j.push_back(c.joules);
        }
        step_s_.push_back(std::move(row_s));
        step_j_.push_back(std::move(row_j));
    }

    // Prefill table: single requests at geometric prompt lengths.
    const std::int64_t prompt_lo = std::min<std::int64_t>(
        64, max_prompt);
    prompt_lens_ = geometricGrid(prompt_lo, max_prompt,
                                 options.prefill_samples);
    for (std::int64_t p : prompt_lens_) {
        const StepCost c = prefill(p);
        prefill_s_.push_back(c.seconds);
        prefill_j_.push_back(c.joules);
    }
}

double
ServeCostModel::decodeLookup(
    const std::vector<std::vector<double>> &table,
    std::int64_t batch, double mean_cache_len) const
{
    if (batch <= 0)
        tf_fatal("decode batch must be positive, got ", batch);
    const double b = std::clamp(
        static_cast<double>(batch),
        static_cast<double>(batches_.front()),
        static_cast<double>(batches_.back()));
    // Bilinear interpolation that evaluates only the two batch
    // rows bracketing `b`: interpolating every row along the cache
    // axis and then along the batch axis would read no other row.
    // Both axes use interp()'s arithmetic and operand order, so the
    // result is bitwise that full-grid interpolation
    // (tests/serve/cost_model_test.cc pins it for both tables).
    const auto at = [&](std::size_t i) {
        return interp(cache_lens_, table[i], mean_cache_len);
    };
    if (batches_.size() == 1)
        return at(0);
    if (b <= static_cast<double>(batches_.front()))
        return at(0);
    if (b >= static_cast<double>(batches_.back()))
        return at(batches_.size() - 1);
    std::size_t hi = 1;
    while (hi + 1 < batches_.size()
           && b > static_cast<double>(batches_[hi]))
        ++hi;
    const auto x0 = static_cast<double>(batches_[hi - 1]);
    const auto x1 = static_cast<double>(batches_[hi]);
    const double frac = (b - x0) / (x1 - x0);
    const double y0 = at(hi - 1);
    const double y1 = at(hi);
    return y0 + frac * (y1 - y0);
}

double
ServeCostModel::decodeStepSeconds(std::int64_t batch,
                                  double mean_cache_len) const
{
    return decodeLookup(step_s_, batch, mean_cache_len);
}

double
ServeCostModel::decodeStepJoules(std::int64_t batch,
                                 double mean_cache_len) const
{
    return decodeLookup(step_j_, batch, mean_cache_len);
}

double
ServeCostModel::prefillSeconds(std::int64_t prompt_len) const
{
    if (prompt_len <= 0)
        tf_fatal("prompt length must be positive, got ", prompt_len);
    return interp(prompt_lens_, prefill_s_,
                  static_cast<double>(prompt_len));
}

double
ServeCostModel::prefillJoules(std::int64_t prompt_len) const
{
    if (prompt_len <= 0)
        tf_fatal("prompt length must be positive, got ", prompt_len);
    return interp(prompt_lens_, prefill_j_,
                  static_cast<double>(prompt_len));
}

} // namespace transfusion::serve
