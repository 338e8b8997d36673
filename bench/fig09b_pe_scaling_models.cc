/**
 * @file
 * Figure 9b: model-wise speedup over Unfused at 64K on the 32x32
 * and 64x64 edge variants.
 */

#include "figure.hh"

int
main(int argc, char **argv)
{
    using namespace transfusion;
    const auto args = bench::parseBenchArgs(argc, argv);
    bench::printBanner("Figure 9b",
                       "Model-wise speedup over Unfused at 64K on edge "
                       "32x32 / 64x64 variants");
    bench::runFigure({ { "edge32", "edge64" }, model::allModels(),
                       { 64 << 10 } },
                     bench::strategyColumns(),
                     bench::vsUnfused(sim::speedup, 2, "x"), args);
    return 0;
}
