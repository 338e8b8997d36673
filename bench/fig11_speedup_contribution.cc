/**
 * @file
 * Figure 11: layer-wise speedup-contribution breakdown (Eq. 47-48)
 * of TransFusion over FuseMax on Llama3 across sequence lengths,
 * cloud and edge.
 */

#include "figure.hh"

int
main(int argc, char **argv)
{
    using namespace transfusion;
    const auto args = bench::parseBenchArgs(argc, argv);
    bench::printBanner("Figure 11",
                       "Speedup contribution (Eq. 47-48) per "
                       "sub-layer, TransFusion over FuseMax, Llama3");
    const auto cells = [](const schedule::StrategyMetrics &m) {
        std::vector<std::string> row;
        for (const double c : sim::speedupContribution(
                 m.at(schedule::StrategyKind::FuseMax),
                 m.at(schedule::StrategyKind::TransFusion)))
            row.push_back(Table::cell(100 * c, 1) + "%");
        return row;
    };
    bench::runFigure({ { "cloud", "edge" }, { model::llama3_8b() },
                       sim::paperSequenceSweep() },
                     { "QKV", "MHA", "LayerNorm", "FFN" }, cells,
                     args);
    return 0;
}
