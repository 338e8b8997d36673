/**
 * @file
 * Figure 10a: 1D and 2D PE-array utilization for Llama3 across
 * sequence lengths on the cloud architecture (edge shown too for
 * the mirrored Sec. 6.2 discussion).
 */

#include "figure.hh"

int
main(int argc, char **argv)
{
    using namespace transfusion;
    const auto args = bench::parseBenchArgs(argc, argv);
    bench::printBanner("Figure 10a",
                       "PE-array utilization (percent of peak) for "
                       "Llama3 across sequence lengths");
    bench::runFigure({ { "cloud", "edge" }, { model::llama3_8b() },
                       sim::paperSequenceSweep() },
                     bench::strategyColumns({ " 2D", " 1D" }),
                     bench::utilizationCells, args);
    return 0;
}
