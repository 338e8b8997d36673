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
 * Where x falls on an ascending grid: the two grid points around
 * it and how far along, or one point (lo == hi) when x lies at or
 * beyond an end.  x outside [xs.front, xs.back] clamps to the
 * endpoint.  Linear extrapolation on the boundary segment used to
 * run through zero for a steep-enough negative boundary slope,
 * pricing out-of-grid batches at 0 s/step — the endpoint is the
 * honest bound the grid supports.
 */
struct Bracket
{
    std::size_t lo = 0;
    std::size_t hi = 0;
    double frac = 0;
};

Bracket
bracket(const std::vector<std::int64_t> &xs, double x)
{
    if (xs.size() == 1 || x <= static_cast<double>(xs.front()))
        return {};
    if (x >= static_cast<double>(xs.back()))
        return { xs.size() - 1, xs.size() - 1, 0 };
    std::size_t hi = 1;
    while (hi + 1 < xs.size() && x > static_cast<double>(xs[hi]))
        ++hi;
    const auto x0 = static_cast<double>(xs[hi - 1]);
    const auto x1 = static_cast<double>(xs[hi]);
    return { hi - 1, hi, (x - x0) / (x1 - x0) };
}

/** The one interpolation: y(i) is the value at grid point i. */
template <class Y>
double
lerp(const Bracket &at, const Y &y)
{
    const double y0 = y(at.lo);
    if (at.lo == at.hi)
        return y0;
    return y0 + at.frac * (y(at.hi) - y0);
}

double
interp(const std::vector<std::int64_t> &xs,
       const std::vector<double> &ys, double x)
{
    return lerp(bracket(xs, x), [&ys](std::size_t i) { return ys[i]; });
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

StepCost
ServeCostModel::decodeStep(std::int64_t batch,
                           double mean_cache_len) const
{
    if (batch <= 0)
        tf_fatal("decode batch must be positive, got ", batch);
    // Bilinear interpolation that searches each axis once for both
    // tables and reads only the two batch rows bracketing `batch`:
    // interpolating every row along the cache axis and then along
    // the batch axis would read no other row.  Both axes use the
    // one lerp(), so the result is bitwise that full-grid
    // interpolation (tests/serve/cost_model_test.cc pins it for
    // both tables).
    const Bracket b = bracket(batches_, static_cast<double>(batch));
    const Bracket c = bracket(cache_lens_, mean_cache_len);
    const auto at = [&](const std::vector<std::vector<double>> &table) {
        return lerp(b, [&](std::size_t i) {
            return lerp(c, [&](std::size_t j) { return table[i][j]; });
        });
    };
    return { at(step_s_), at(step_j_) };
}

double
ServeCostModel::decodeStepSeconds(std::int64_t batch,
                                  double mean_cache_len) const
{
    return decodeStep(batch, mean_cache_len).seconds;
}

double
ServeCostModel::decodeStepJoules(std::int64_t batch,
                                 double mean_cache_len) const
{
    return decodeStep(batch, mean_cache_len).joules;
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
