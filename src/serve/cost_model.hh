/**
 * @file
 * Calibrated per-iteration cost tables for the serving simulator.
 *
 * Pricing every simulated batch step with a fresh
 * schedule::Evaluator would make request-level simulation cost as
 * much as the design-space sweeps it builds on.  Instead we exploit
 * the same structure the trapezoidal decode integration uses: at
 * query_len = 1 the step cost is affine in the cache length between
 * roofline crossovers, and piecewise-smooth in the batch size.  The
 * constructor samples schedule::DecodeEvaluator::stepMetrics on a
 * small (batch x cache-length) grid and full prefill evaluations on
 * a prompt-length grid, then the simulator interpolates — millions
 * of simulated steps cost a few hundred evaluator calls up front.
 *
 * Everything is deterministic: the grids are fixed by the options,
 * and the underlying evaluators are pure functions of their inputs
 * (TileSeek's MCTS seed included), so two ServeCostModels built
 * from equal arguments agree bit-for-bit.
 */

#ifndef TRANSFUSION_SERVE_COST_MODEL_HH
#define TRANSFUSION_SERVE_COST_MODEL_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "schedule/decode.hh"

namespace transfusion::serve
{

/**
 * Calibration knobs.  Decode steps are calibrated at the powers of
 * two below the simulator's max batch, plus the max batch itself.
 */
struct ServeCostOptions
{
    /** Geometric cache-length sample count (>= 2). */
    int cache_samples = 4;
    /** Geometric prompt-length sample count (>= 2). */
    int prefill_samples = 6;
    /** Underlying evaluator configuration (MCTS seed lives here). */
    schedule::EvaluatorOptions evaluator;

    bool operator==(const ServeCostOptions &) const = default;
};

/**
 * One calibration sample: the virtual-time cost and the energy of
 * a single priced unit (one decode iteration, or one prompt
 * prefill).  Both values come from the same evaluator call, so
 * adding energy never perturbs the latency tables.
 */
struct StepCost
{
    double seconds = 0;
    double joules = 0;
};

/** Interpolating (batch, cache length) -> step cost tables. */
class ServeCostModel
{
  public:
    /**
     * Calibrate for one (arch, model, strategy) triple.
     *
     * @param max_batch   largest decode batch the simulator forms
     * @param max_context largest cache length any request reaches
     * @param max_prompt  largest prompt length of the workload
     *
     * `cfg.batch` is ignored: decode tables override it with the
     * calibrated batch sizes and prefill prices single requests
     * (batch 1), because in serving the batch dimension is the
     * number of co-scheduled requests, not a model constant.
     */
    ServeCostModel(arch::ArchConfig arch,
                   model::TransformerConfig cfg,
                   schedule::StrategyKind strategy,
                   std::int64_t max_batch,
                   std::int64_t max_context,
                   std::int64_t max_prompt,
                   ServeCostOptions options = {});

    /** Prices one decode iteration of `batch` requests. */
    using DecodeStepFn =
        std::function<StepCost(std::int64_t batch,
                               std::int64_t cache_len)>;
    /** Prices one request's prompt prefill. */
    using PrefillFn =
        std::function<StepCost(std::int64_t prompt_len)>;

    /**
     * Calibrate from injected pricing functions instead of a local
     * single-chip evaluator (multi-chip sharded evaluators plug in
     * here).  The sampling grids are identical to the evaluator
     * constructor's for equal (max_batch, max_context, max_prompt,
     * options), so two models whose functions agree pointwise
     * produce bit-identical tables.  Samples are taken in batch-
     * major then cache-length order, prompts ascending.
     */
    ServeCostModel(schedule::StrategyKind strategy,
                   std::int64_t max_batch, std::int64_t max_context,
                   std::int64_t max_prompt,
                   const ServeCostOptions &options,
                   const DecodeStepFn &decode_step,
                   const PrefillFn &prefill);

    /**
     * Seconds and joules of one decode iteration: `batch`
     * co-scheduled requests each emit one token against a mean
     * resident cache of `mean_cache_len` positions.  Bilinear
     * interpolation on the calibrated grid, one bracket search per
     * axis for both tables; batch and cache length clamp to the
     * grid endpoints (boundary-segment extrapolation could run a
     * steep negative slope through zero and price off-grid steps
     * for free).
     */
    StepCost decodeStep(std::int64_t batch,
                        double mean_cache_len) const;

    /** decodeStep(batch, mean_cache_len).seconds. */
    double decodeStepSeconds(std::int64_t batch,
                             double mean_cache_len) const;

    /**
     * Seconds to prefill one request's prompt (causal
     * self-attention, batch 1).  Piecewise-linear in the prompt
     * length over the calibrated grid, clamped at the grid
     * endpoints.
     */
    double prefillSeconds(std::int64_t prompt_len) const;

    /**
     * decodeStep(batch, mean_cache_len).joules: calibrated from the
     * same evaluator calls that priced the latency, so a simulator
     * can meter energy without re-running anything.
     */
    double decodeStepJoules(std::int64_t batch,
                            double mean_cache_len) const;

    /** Joules of one request's prompt prefill (batch 1),
     *  piecewise-linear over the prefill grid like
     *  prefillSeconds. */
    double prefillJoules(std::int64_t prompt_len) const;

    schedule::StrategyKind strategy() const { return strategy_; }

    /**
     * The decode batch grid the tables were calibrated on
     * (ascending).  The capacity planner's analytic throughput
     * bound maximizes batch / decodeStepSeconds(batch) over these:
     * seconds are piecewise-linear in batch between grid points, so
     * b / s(b) is monotone within each segment and the grid-point
     * maximum is the true maximum over the whole batch range.
     */
    const std::vector<std::int64_t> &calibratedBatches() const
    {
        return batches_;
    }

  private:
    schedule::StrategyKind strategy_;
    std::vector<std::int64_t> batches_;
    std::vector<std::int64_t> cache_lens_;
    /** step_s_[batch index][cache index] in seconds. */
    std::vector<std::vector<double>> step_s_;
    /** step_j_[batch index][cache index] in joules. */
    std::vector<std::vector<double>> step_j_;
    std::vector<std::int64_t> prompt_lens_;
    std::vector<double> prefill_s_;
    std::vector<double> prefill_j_;
};

} // namespace transfusion::serve

#endif // TRANSFUSION_SERVE_COST_MODEL_HH
