/**
 * @file
 * Figure 8a: Llama3 speedup over Unfused across sequence lengths
 * (1K-1M) on the cloud and edge architectures, for all five
 * systems.
 */

#include "figure.hh"

int
main(int argc, char **argv)
{
    using namespace transfusion;
    const auto args = bench::parseBenchArgs(argc, argv);
    bench::printBanner("Figure 8a",
                       "Llama3 end-to-end speedup over Unfused vs "
                       "sequence length, cloud and edge");
    bench::runFigure({ { "cloud", "edge" }, { model::llama3_8b() },
                       sim::paperSequenceSweep() },
                     bench::strategyColumns(),
                     bench::vsUnfused(sim::speedup, 2, "x"), args);
    return 0;
}
