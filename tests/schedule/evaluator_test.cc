/**
 * @file
 * Unit tests for the end-to-end evaluator: bookkeeping invariants
 * (positive metrics, roofline consistency, work conservation) and
 * the qualitative orderings every strategy must respect.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/logging.hh"
#include "schedule/evaluator.hh"

namespace transfusion::schedule
{
namespace
{

EvaluatorOptions
fastOptions()
{
    EvaluatorOptions o;
    o.mcts.iterations = 256; // keep unit tests quick
    return o;
}

TEST(Strategy, NamesAndOrder)
{
    const auto all = allStrategies();
    ASSERT_EQ(all.size(), 5u);
    EXPECT_EQ(toString(all[0]), "Unfused");
    EXPECT_EQ(toString(all[1]), "FLAT");
    EXPECT_EQ(toString(all[2]), "FuseMax");
    EXPECT_EQ(toString(all[3]), "FuseMax+LayerFuse");
    EXPECT_EQ(toString(all[4]), "TransFusion");
    EXPECT_FALSE(usesLayerFusion(StrategyKind::FuseMax));
    EXPECT_TRUE(usesLayerFusion(StrategyKind::TransFusion));
}

TEST(Evaluator, MetricsArePositiveAndConsistent)
{
    Evaluator eval(arch::cloudArch(), model::bertBase(), 4096,
                   fastOptions());
    for (auto kind : allStrategies()) {
        const auto r = eval.evaluate(kind);
        double layer_latency = 0;
        for (const auto &m : r.layers) {
            EXPECT_GT(m.latency_s, 0.0) << toString(kind);
            EXPECT_GE(m.dram_bytes, 0.0);
            EXPECT_GT(m.compute_s, 0.0);
            // Roofline: latency at least compute and at least DRAM.
            EXPECT_GE(m.latency_s, m.compute_s - 1e-12);
            EXPECT_GE(m.latency_s, m.dram_s - 1e-12);
            EXPECT_GT(m.energy.total(), 0.0);
            layer_latency += m.latency_s;
        }
        EXPECT_NEAR(r.total.latency_s, layer_latency,
                    1e-9 * layer_latency);
    }
}

TEST(Evaluator, WorkIsConservedAcrossStrategies)
{
    // Every strategy executes the same mathematics; only the
    // Unfused softmax differs (multi-pass adds vector work).
    Evaluator eval(arch::cloudArch(), model::bertBase(), 2048,
                   fastOptions());
    const auto fuse = eval.evaluate(StrategyKind::FuseMax);
    const auto tf = eval.evaluate(StrategyKind::TransFusion);
    const double fuse_ops = fuse.total.ops_2d + fuse.total.ops_1d;
    const double tf_ops = tf.total.ops_2d + tf.total.ops_1d;
    EXPECT_NEAR(fuse_ops, tf_ops, 1e-6 * fuse_ops);
}

TEST(Evaluator, TransFusionWinsEndToEnd)
{
    for (const auto *arch_name : { "cloud", "edge" }) {
        Evaluator eval(arch::archByName(arch_name),
                       model::bertBase(), 8192, fastOptions());
        const auto base = eval.evaluate(StrategyKind::Unfused);
        const auto tf = eval.evaluate(StrategyKind::TransFusion);
        EXPECT_LT(tf.total.latency_s, base.total.latency_s)
            << arch_name;
        EXPECT_LT(tf.total.energy.total(),
                  base.total.energy.total())
            << arch_name;
    }
}

TEST(Evaluator, StrategyLatencyOrdering)
{
    // The paper's ordering: Unfused >= FLAT >= FuseMax >=
    // LayerFuse >= TransFusion (latency, modulo small noise).
    Evaluator eval(arch::cloudArch(), model::llama3_8b(), 16384,
                   fastOptions());
    const double unfused =
        eval.evaluate(StrategyKind::Unfused).total.latency_s;
    const double flat =
        eval.evaluate(StrategyKind::Flat).total.latency_s;
    const double fusemax =
        eval.evaluate(StrategyKind::FuseMax).total.latency_s;
    const double layerfuse =
        eval.evaluate(StrategyKind::FuseMaxLayerFuse)
            .total.latency_s;
    const double tf =
        eval.evaluate(StrategyKind::TransFusion).total.latency_s;
    EXPECT_GE(unfused, flat);
    EXPECT_GE(flat, fusemax);
    EXPECT_GE(fusemax * 1.02, layerfuse);
    EXPECT_GT(layerfuse, tf);
}

TEST(Evaluator, LayerNormTrafficFreeUnderFullFusion)
{
    // When full fusion is chosen, LayerNorm reads and writes
    // nothing off-chip; under selective fusion it still moves at
    // most the two activation tensors.
    Evaluator eval(arch::cloudArch(), model::bertBase(), 1024,
                   fastOptions());
    const auto tf = eval.evaluate(StrategyKind::TransFusion);
    const auto unfused = eval.evaluate(StrategyKind::Unfused);
    EXPECT_LT(tf.layer(model::LayerKind::LayerNorm).dram_bytes,
              unfused.layer(model::LayerKind::LayerNorm)
                  .dram_bytes);
}

TEST(Evaluator, UtilizationsAreFractions)
{
    const auto a = arch::edgeArch();
    Evaluator eval(a, model::t5Small(), 4096, fastOptions());
    for (auto kind : allStrategies()) {
        const auto r = eval.evaluate(kind);
        EXPECT_GE(r.utilization2d(a), 0.0);
        EXPECT_LE(r.utilization2d(a), 1.0 + 1e-9) << toString(kind);
        EXPECT_GE(r.utilization1d(a), 0.0);
        EXPECT_LE(r.utilization1d(a), 1.0 + 1e-9) << toString(kind);
    }
}

TEST(Evaluator, TransFusionRaises2dUtilizationOnCloud)
{
    const auto a = arch::cloudArch();
    Evaluator eval(a, model::llama3_8b(), 65536, fastOptions());
    const auto fuse = eval.evaluate(StrategyKind::FuseMax);
    const auto tf = eval.evaluate(StrategyKind::TransFusion);
    EXPECT_GT(tf.utilization2d(a), fuse.utilization2d(a));
}

TEST(Evaluator, SequenceScalingIsSuperlinearForAttention)
{
    // MHA cost grows ~quadratically with P; FFN linearly.
    EvaluatorOptions opts = fastOptions();
    Evaluator small(arch::cloudArch(), model::bertBase(), 4096,
                    opts);
    Evaluator large(arch::cloudArch(), model::bertBase(), 16384,
                    opts);
    const auto s = small.evaluate(StrategyKind::TransFusion);
    const auto l = large.evaluate(StrategyKind::TransFusion);
    const double mha_growth =
        l.layer(model::LayerKind::Mha).compute_s
        / s.layer(model::LayerKind::Mha).compute_s;
    const double ffn_growth =
        l.layer(model::LayerKind::Ffn).compute_s
        / s.layer(model::LayerKind::Ffn).compute_s;
    EXPECT_GT(mha_growth, 12.0); // ~16x
    EXPECT_LT(ffn_growth, 6.0);  // ~4x
}

TEST(Evaluator, AblationDisablingTileSeekUsesNaiveTile)
{
    EvaluatorOptions opts = fastOptions();
    opts.use_tileseek = false;
    Evaluator eval(arch::cloudArch(), model::bertBase(), 4096,
                   opts);
    const auto tf = eval.evaluate(StrategyKind::TransFusion);
    EXPECT_EQ(tf.tile.b, 1); // naive tile pins the batch tile to 1
}

TEST(Evaluator, AblationSerializingDramNeverFaster)
{
    EvaluatorOptions overlap = fastOptions();
    EvaluatorOptions serial = fastOptions();
    serial.overlap_dram = false;
    Evaluator e1(arch::edgeArch(), model::bertBase(), 4096,
                 overlap);
    Evaluator e2(arch::edgeArch(), model::bertBase(), 4096,
                 serial);
    for (auto kind : allStrategies()) {
        EXPECT_LE(e1.evaluate(kind).total.latency_s,
                  e2.evaluate(kind).total.latency_s + 1e-12)
            << toString(kind);
    }
}

TEST(Evaluator, RejectsBadSequence)
{
    EXPECT_THROW(
        Evaluator(arch::cloudArch(), model::bertBase(), 0),
        FatalError);
}

void
expectSameMetrics(const LayerMetrics &a, const LayerMetrics &b)
{
    EXPECT_EQ(a.latency_s, b.latency_s);
    EXPECT_EQ(a.compute_s, b.compute_s);
    EXPECT_EQ(a.dram_s, b.dram_s);
    EXPECT_EQ(a.dram_bytes, b.dram_bytes);
    EXPECT_EQ(a.ops_2d, b.ops_2d);
    EXPECT_EQ(a.ops_1d, b.ops_1d);
    EXPECT_EQ(a.energy.total(), b.energy.total());
}

TEST(Evaluator, ConcurrentConstructionSharesCascades)
{
    // Renamed models are configs no other test has built, so the
    // four threads race on the first use of their cascade entries.
    std::vector<model::TransformerConfig> models;
    for (model::TransformerConfig cfg : model::allModels()) {
        cfg.name += "/concurrent";
        models.push_back(cfg);
    }
    models.resize(4);
    const auto run = [](const model::TransformerConfig &cfg) {
        const Evaluator eval(arch::edgeArch(), cfg, 1024,
                             fastOptions());
        std::vector<EvalResult> results;
        for (const StrategyKind kind : allStrategies())
            results.push_back(eval.evaluate(kind));
        return results;
    };

    std::vector<std::vector<EvalResult>> concurrent(models.size());
    {
        std::vector<std::thread> threads;
        for (std::size_t i = 0; i < models.size(); ++i) {
            threads.emplace_back([&, i] {
                concurrent[i] = run(models[i]);
            });
        }
        for (auto &t : threads)
            t.join();
    }
    for (std::size_t i = 0; i < models.size(); ++i) {
        const auto serial = run(models[i]);
        ASSERT_EQ(serial.size(), concurrent[i].size());
        for (std::size_t k = 0; k < serial.size(); ++k) {
            SCOPED_TRACE(models[i].name + " "
                         + toString(allStrategies()[k]));
            expectSameMetrics(serial[k].total, concurrent[i][k].total);
            for (std::size_t l = 0; l < serial[k].layers.size(); ++l)
                expectSameMetrics(serial[k].layers[l],
                                  concurrent[i][k].layers[l]);
            EXPECT_EQ(serial[k].tile.toString(),
                      concurrent[i][k].tile.toString());
        }
    }
}

TEST(LayerMetrics, AccumulateOperator)
{
    LayerMetrics a, b;
    a.latency_s = 1;
    a.ops_2d = 2;
    a.energy.pe_j = 3;
    b.latency_s = 4;
    b.ops_2d = 5;
    b.energy.pe_j = 6;
    a += b;
    EXPECT_DOUBLE_EQ(a.latency_s, 5.0);
    EXPECT_DOUBLE_EQ(a.ops_2d, 7.0);
    EXPECT_DOUBLE_EQ(a.energy.pe_j, 9.0);
}

TEST(EvalResult, LayerIndexMapping)
{
    EXPECT_EQ(layerIndex(model::LayerKind::Qkv), 0u);
    EXPECT_EQ(layerIndex(model::LayerKind::Mha), 1u);
    EXPECT_EQ(layerIndex(model::LayerKind::LayerNorm), 2u);
    EXPECT_EQ(layerIndex(model::LayerKind::Ffn), 3u);
}

} // namespace
} // namespace transfusion::schedule
