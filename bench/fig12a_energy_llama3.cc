/**
 * @file
 * Figure 12a: Llama3 energy consumption relative to Unfused across
 * sequence lengths, cloud and edge.
 */

#include "figure.hh"

int
main(int argc, char **argv)
{
    using namespace transfusion;
    const auto args = bench::parseBenchArgs(argc, argv);
    bench::printBanner("Figure 12a",
                       "Llama3 energy relative to Unfused (lower is "
                       "better) across sequence lengths");
    bench::runFigure({ { "cloud", "edge" }, { model::llama3_8b() },
                       sim::paperSequenceSweep() },
                     bench::strategyColumns(),
                     bench::vsUnfused(sim::energyRatio, 3), args);
    return 0;
}
