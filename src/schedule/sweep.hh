/**
 * @file
 * Parallel design-space sweep driver.
 *
 * Every figure, ablation, and extension in this repository is a
 * grid of independent (architecture, model, sequence) evaluation
 * points; this driver fans that grid out with parallelMap and
 * collects per-point StrategyMetrics in deterministic *input*
 * order, so sweeping with N threads is bit-identical to sweeping
 * serially -- the evaluators are pure functions of their point and
 * options (TileSeek's MCTS seed included), and no result depends on
 * completion order.
 */

#ifndef TRANSFUSION_SCHEDULE_SWEEP_HH
#define TRANSFUSION_SCHEDULE_SWEEP_HH

#include <map>
#include <string>
#include <vector>

#include "schedule/evaluator.hh"

namespace transfusion::schedule
{

/** One evaluation point of a design-space grid. */
struct SweepPoint
{
    arch::ArchConfig arch;
    model::TransformerConfig cfg;
    std::int64_t seq = 0;

    /** "cloud/Llama3/65536" -- for tables and error messages. */
    std::string label() const;
};

/** All requested strategies evaluated at one sweep point. */
struct StrategyMetrics
{
    SweepPoint point;
    std::map<StrategyKind, EvalResult> results;

    /** Result for one strategy; fatal if it was not swept. */
    const EvalResult &at(StrategyKind kind) const;
};

/** Sweep tuning knobs. */
struct SweepOptions
{
    /** Worker threads; <= 0 means all hardware threads. */
    int threads = 0;
    /** Strategies to evaluate per point; empty = allStrategies(). */
    std::vector<StrategyKind> strategies;
    /** Per-point evaluator configuration (MCTS seed lives here). */
    EvaluatorOptions evaluator;
};

/**
 * Fans a grid of evaluation points across worker threads.
 *
 * Reproducibility guarantee: for a fixed point list and options,
 * run() returns bit-identical results for any thread count,
 * point-for-point equal to constructing an Evaluator per point and
 * evaluating serially.
 */
class Sweep
{
  public:
    explicit Sweep(SweepOptions options = {});

    /** Worker threads the sweep will use (always >= 1). */
    int threads() const { return thread_count; }

    /** Evaluate every point; results are in input order. */
    std::vector<StrategyMetrics>
    run(const std::vector<SweepPoint> &points) const;

    /**
     * Cartesian grid in (arch, model, seq) major-to-minor order --
     * the iteration order of the serial figure loops.
     */
    static std::vector<SweepPoint>
    grid(const std::vector<arch::ArchConfig> &archs,
         const std::vector<model::TransformerConfig> &models,
         const std::vector<std::int64_t> &seqs);

  private:
    SweepOptions options;
    int thread_count = 1;
};

} // namespace transfusion::schedule

#endif // TRANSFUSION_SCHEDULE_SWEEP_HH
