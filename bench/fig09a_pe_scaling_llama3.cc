/**
 * @file
 * Figure 9a: impact of the edge 2D PE array size (32x32 and 64x64,
 * the latter with an 8 MB buffer) on Llama3 speedup over Unfused
 * across sequence lengths.
 */

#include "figure.hh"

int
main(int argc, char **argv)
{
    using namespace transfusion;
    const auto args = bench::parseBenchArgs(argc, argv);
    bench::printBanner("Figure 9a",
                       "Llama3 speedup over Unfused on edge variants "
                       "with 32x32 and 64x64 2D PE arrays");
    bench::runFigure({ { "edge32", "edge64" }, { model::llama3_8b() },
                       sim::paperSequenceSweep() },
                     bench::strategyColumns(),
                     bench::vsUnfused(sim::speedup, 2, "x"), args);
    return 0;
}
