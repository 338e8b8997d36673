/**
 * @file
 * The paper-figure driver: a figure's (arch, model, seq) grid is
 * evaluated in one schedule::Sweep::run at --threads and printed
 * as one table per arch through printTable.
 */

#ifndef TRANSFUSION_BENCH_FIGURE_HH
#define TRANSFUSION_BENCH_FIGURE_HH

#include <functional>

#include "bench_util.hh"

namespace transfusion::bench
{

/** Swept arch-major.  The table rows are the seqs of a one-model
 *  grid, else the models (at a single seq). */
struct FigureGrid
{
    std::vector<std::string> archs; ///< arch::archByName presets
    std::vector<model::TransformerConfig> models;
    std::vector<std::int64_t> seqs;
};

/** The cells of one table row, after its seq/model label. */
using FigureCells = std::function<std::vector<std::string>(
    const schedule::StrategyMetrics &)>;

/** Evaluate every point of `grid` in one Sweep::run. */
std::vector<schedule::StrategyMetrics>
sweepFigure(const FigureGrid &grid, const BenchArgs &args);

/** Print `metrics` (swept from `grid`) as one table per arch.  A
 *  multi-arch grid heads each table "[<panel><arch>]" and ends it
 *  with a blank line; a single arch prints the bare table. */
void printFigure(const FigureGrid &grid,
                 const std::vector<schedule::StrategyMetrics> &metrics,
                 const std::string &panel,
                 const std::vector<std::string> &columns,
                 const FigureCells &cells, const BenchArgs &args);

/** printFigure(grid, sweepFigure(grid, args), "", ...). */
void runFigure(const FigureGrid &grid,
               const std::vector<std::string> &columns,
               const FigureCells &cells, const BenchArgs &args);

/** Each figure strategy's name plus each suffix, strategy-major. */
std::vector<std::string>
strategyColumns(const std::vector<std::string> &suffixes = { "" });

/** Per strategy, `metric(Unfused, strategy)` then `unit`. */
FigureCells vsUnfused(double (*metric)(const schedule::EvalResult &,
                                       const schedule::EvalResult &),
                      int precision, const std::string &unit = "");

/** Per strategy, 2D then 1D PE-array utilization in percent. */
std::vector<std::string>
utilizationCells(const schedule::StrategyMetrics &m);

} // namespace transfusion::bench

#endif // TRANSFUSION_BENCH_FIGURE_HH
