/**
 * @file
 * Figure 13: energy breakdown across the memory hierarchy (DRAM,
 * global buffer, register file, PE arrays) for TransFusion (a) and
 * FuseMax (b) on Llama3, cloud and edge, across sequence lengths.
 */

#include "figure.hh"

int
main(int argc, char **argv)
{
    using namespace transfusion;
    const auto args = bench::parseBenchArgs(argc, argv);
    bench::printBanner("Figure 13",
                       "Energy breakdown across the memory hierarchy "
                       "for TransFusion (a) and FuseMax (b), Llama3");

    // Both panels read the same points: sweep them once.
    const bench::FigureGrid grid{ { "cloud", "edge" },
                                  { model::llama3_8b() },
                                  sim::paperSequenceSweep() };
    const auto metrics = bench::sweepFigure(grid, args);
    for (auto kind : { schedule::StrategyKind::TransFusion,
                       schedule::StrategyKind::FuseMax }) {
        const auto cells = [kind](const schedule::StrategyMetrics &m) {
            const auto &e = m.at(kind).total.energy;
            std::vector<std::string> row;
            for (const double j : { e.dram_j, e.buffer_j, e.rf_j,
                                    e.pe_j })
                row.push_back(Table::cell(100 * j / e.total(), 1)
                              + "%");
            return row;
        };
        bench::printFigure(
            grid, metrics, schedule::toString(kind) + " on ",
            { "DRAM", "GlobalBuffer", "RegisterFile", "PE" }, cells,
            args);
    }
    return 0;
}
