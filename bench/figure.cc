/**
 * @file
 * Implementation of the paper-figure driver.
 */

#include "figure.hh"

#include <iostream>
#include <utility>

#include "common/table.hh"

namespace transfusion::bench
{

std::vector<schedule::StrategyMetrics>
sweepFigure(const FigureGrid &grid, const BenchArgs &args)
{
    std::vector<arch::ArchConfig> archs;
    for (const std::string &name : grid.archs)
        archs.push_back(arch::archByName(name));
    schedule::SweepOptions opts = sweepOptions();
    opts.threads = args.threads;
    return schedule::Sweep(opts).run(
        schedule::Sweep::grid(archs, grid.models, grid.seqs));
}

void
printFigure(const FigureGrid &grid,
            const std::vector<schedule::StrategyMetrics> &metrics,
            const std::string &panel,
            const std::vector<std::string> &columns,
            const FigureCells &cells, const BenchArgs &args)
{
    const bool by_seq = grid.models.size() == 1;
    const bool multi_arch = grid.archs.size() > 1;
    std::vector<std::string> headers{ by_seq ? "seq" : "model" };
    headers.insert(headers.end(), columns.begin(), columns.end());
    const std::size_t rows = grid.models.size() * grid.seqs.size();
    for (std::size_t first = 0; first < metrics.size();
         first += rows) {
        if (multi_arch)
            std::cout << "[" << panel
                      << metrics[first].point.arch.toString()
                      << "]\n";
        Table t(headers);
        for (std::size_t i = first; i < first + rows; ++i) {
            const schedule::SweepPoint &p = metrics[i].point;
            std::vector<std::string> row = cells(metrics[i]);
            row.insert(row.begin(),
                       by_seq ? seqLabel(p.seq) : p.cfg.name);
            t.addRow(std::move(row));
        }
        printTable(t, args, std::cout);
        if (multi_arch)
            std::cout << "\n";
    }
}

void
runFigure(const FigureGrid &grid,
          const std::vector<std::string> &columns,
          const FigureCells &cells, const BenchArgs &args)
{
    printFigure(grid, sweepFigure(grid, args), "", columns, cells,
                args);
}

std::vector<std::string>
strategyColumns(const std::vector<std::string> &suffixes)
{
    std::vector<std::string> columns;
    for (const schedule::StrategyKind kind : figureStrategies())
        for (const std::string &suffix : suffixes)
            columns.push_back(schedule::toString(kind) + suffix);
    return columns;
}

FigureCells
vsUnfused(double (*metric)(const schedule::EvalResult &,
                           const schedule::EvalResult &),
          int precision, const std::string &unit)
{
    return [=](const schedule::StrategyMetrics &m) {
        const auto &base = m.at(schedule::StrategyKind::Unfused);
        std::vector<std::string> cells;
        for (const schedule::StrategyKind kind : figureStrategies())
            cells.push_back(
                Table::cell(metric(base, m.at(kind)), precision)
                + unit);
        return cells;
    };
}

std::vector<std::string>
utilizationCells(const schedule::StrategyMetrics &m)
{
    std::vector<std::string> cells;
    for (const schedule::StrategyKind kind : figureStrategies()) {
        const schedule::EvalResult &r = m.at(kind);
        cells.push_back(
            Table::cell(100 * r.utilization2d(m.point.arch), 1));
        cells.push_back(
            Table::cell(100 * r.utilization1d(m.point.arch), 1));
    }
    return cells;
}

} // namespace transfusion::bench
