/**
 * @file
 * Golden regression tests: the observability RunReport of an
 * Evaluator run pins every cost-model constant at once.  Latency,
 * traffic and energy attribution land in the report with 12
 * significant digits, so corrupting any modelling constant (DRAM
 * bandwidth, energy-per-access, reread factors, ...) changes at
 * least one line and fails the comparison with a readable diff.
 *
 * Regenerate with scripts/update_golden.sh (or by running this
 * binary with TRANSFUSION_UPDATE_GOLDEN=1) after an intentional
 * cost-model change, and review the golden diff like code.
 */

#include <string>

#include <gtest/gtest.h>

#include "arch/arch.hh"
#include "model/transformer.hh"
#include "obs/obs.hh"
#include "obs/report.hh"
#include "schedule/evaluator.hh"
#include "support/golden.hh"

namespace transfusion
{
namespace
{

/** Sequence kept small so the golden tier stays fast. */
constexpr std::int64_t kSeq = 4096;

/** Reduced MCTS budget: deterministic (fixed seed) and quick. */
constexpr int kMctsIterations = 128;

/**
 * Evaluate `strategy` on llama3-8B at `arch` with every metric
 * captured in a scoped local registry, and render the report.
 */
std::string
evaluateReport(const arch::ArchConfig &arch,
               schedule::StrategyKind strategy)
{
    schedule::EvaluatorOptions options;
    options.mcts.iterations = kMctsIterations;
    obs::Registry local;
    {
        obs::ScopedRegistry scope(local);
        const schedule::Evaluator eval(arch, model::llama3_8b(),
                                       kSeq, options);
        (void)eval.evaluate(strategy);
    }
    return obs::RunReport::capture(local).toString();
}

void
compareAgainstGolden(const std::string &name,
                     const arch::ArchConfig &arch,
                     schedule::StrategyKind strategy)
{
    if (!TRANSFUSION_OBS_ENABLED)
        GTEST_SKIP() << "observability disabled "
                        "(TRANSFUSION_OBS=OFF): no report to pin";

    const std::string actual = evaluateReport(arch, strategy);
    ASSERT_FALSE(actual.empty())
        << "instrumentation produced no metrics";

    test::expectMatchesGolden(name, actual);
}

TEST(GoldenReport, CloudUnfused)
{
    compareAgainstGolden("cloud_llama3_unfused", arch::cloudArch(),
                         schedule::StrategyKind::Unfused);
}

TEST(GoldenReport, CloudTransFusion)
{
    compareAgainstGolden("cloud_llama3_transfusion",
                         arch::cloudArch(),
                         schedule::StrategyKind::TransFusion);
}

TEST(GoldenReport, EdgeUnfused)
{
    compareAgainstGolden("edge_llama3_unfused", arch::edgeArch(),
                         schedule::StrategyKind::Unfused);
}

TEST(GoldenReport, EdgeTransFusion)
{
    compareAgainstGolden("edge_llama3_transfusion",
                         arch::edgeArch(),
                         schedule::StrategyKind::TransFusion);
}

TEST(GoldenReport, ReportIsReproducibleWithinProcess)
{
    if (!TRANSFUSION_OBS_ENABLED)
        GTEST_SKIP() << "observability disabled";
    // The golden contract only works if back-to-back runs agree
    // bit-for-bit; wall-clock timers must not leak in.
    EXPECT_EQ(evaluateReport(arch::edgeArch(),
                             schedule::StrategyKind::TransFusion),
              evaluateReport(arch::edgeArch(),
                             schedule::StrategyKind::TransFusion));
}

} // namespace
} // namespace transfusion
