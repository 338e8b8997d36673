/**
 * @file
 * Figure 10b: 1D/2D utilization per model at 64K sequence length
 * on the cloud architecture.
 */

#include "figure.hh"

int
main(int argc, char **argv)
{
    using namespace transfusion;
    const auto args = bench::parseBenchArgs(argc, argv);
    bench::printBanner("Figure 10b",
                       "PE-array utilization (percent of peak) per "
                       "model at 64K on the cloud architecture");
    bench::runFigure({ { "cloud" }, model::allModels(),
                       { 64 << 10 } },
                     bench::strategyColumns({ " 2D", " 1D" }),
                     bench::utilizationCells, args);
    return 0;
}
