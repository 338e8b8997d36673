/**
 * @file
 * Golden regression test for the multi-chip subsystem: the
 * RunReport of a sharded llama3-8B evaluation (TP = 2, PP = 2 on
 * the 4-chip cloud cluster) pins the collective byte/energy
 * formulas, the link model constants, the pipeline partition, and
 * the sharded per-chip evaluation in one reviewable file.
 *
 * Regenerate with scripts/update_golden.sh (or run this binary
 * with TRANSFUSION_UPDATE_GOLDEN=1) after an intentional change to
 * the cost model or the cluster presets.
 */

#include <string>

#include <gtest/gtest.h>

#include "model/stack.hh"
#include "multichip/sharded_evaluator.hh"
#include "obs/obs.hh"
#include "obs/report.hh"
#include "support/golden.hh"

namespace transfusion
{
namespace
{

constexpr std::int64_t kSeq = 4096;
constexpr int kMctsIterations = 128;

/** Sharded llama3-8B evaluation with every metric captured. */
std::string
shardedReport()
{
    schedule::EvaluatorOptions options;
    options.mcts.iterations = kMctsIterations;
    obs::Registry local;
    {
        obs::ScopedRegistry scope(local);
        const multichip::ShardedStackEvaluator eval(
            multichip::cloudCluster(4),
            model::decoderOnly(model::llama3_8b()), kSeq, kSeq,
            { /*tp=*/2, /*pp=*/2 }, options);
        (void)eval.evaluate(schedule::StrategyKind::TransFusion);
    }
    return obs::RunReport::capture(local).toString();
}

TEST(GoldenMultichip, CloudLlama3Tp2Pp2TransFusion)
{
    if (!TRANSFUSION_OBS_ENABLED)
        GTEST_SKIP() << "observability disabled "
                        "(TRANSFUSION_OBS=OFF): no report to pin";

    const std::string actual = shardedReport();
    ASSERT_FALSE(actual.empty())
        << "instrumentation produced no metrics";
    // The multi-chip layer must actually have reported: collective
    // counters and the sharded-evaluation gauges.
    EXPECT_NE(actual.find("multichip"), std::string::npos);

    test::expectMatchesGolden("cloud_llama3_tp2pp2", actual);
}

TEST(GoldenMultichip, ShardedReportIsReproducibleWithinProcess)
{
    if (!TRANSFUSION_OBS_ENABLED)
        GTEST_SKIP() << "observability disabled";
    EXPECT_EQ(shardedReport(), shardedReport());
}

} // namespace
} // namespace transfusion
