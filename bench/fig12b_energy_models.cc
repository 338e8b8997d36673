/**
 * @file
 * Figure 12b: model-wise energy relative to Unfused at 64K, cloud
 * and edge.
 */

#include "figure.hh"

int
main(int argc, char **argv)
{
    using namespace transfusion;
    const auto args = bench::parseBenchArgs(argc, argv);
    bench::printBanner("Figure 12b",
                       "Model-wise energy relative to Unfused at 64K "
                       "(lower is better)");
    bench::runFigure({ { "cloud", "edge" }, model::allModels(),
                       { 64 << 10 } },
                     bench::strategyColumns(),
                     bench::vsUnfused(sim::energyRatio, 3), args);
    return 0;
}
