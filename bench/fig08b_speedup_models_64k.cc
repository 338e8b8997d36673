/**
 * @file
 * Figure 8b: model-wise speedup over Unfused (BERT, TrXL, T5, XLM,
 * Llama3) at a 64K sequence length, cloud and edge.
 */

#include "figure.hh"

int
main(int argc, char **argv)
{
    using namespace transfusion;
    const auto args = bench::parseBenchArgs(argc, argv);
    bench::printBanner("Figure 8b",
                       "Model-wise speedup over Unfused at 64K "
                       "sequence length");
    bench::runFigure({ { "cloud", "edge" }, model::allModels(),
                       { 64 << 10 } },
                     bench::strategyColumns(),
                     bench::vsUnfused(sim::speedup, 2, "x"), args);
    return 0;
}
