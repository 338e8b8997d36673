/**
 * @file
 * The strongest functional obligation: chaining the paper's four
 * cascades -- QKV (Cascade 2, via the interpreter), 1-pass MHA
 * (Cascade 1, via the streaming implementation), Add & LayerNorm
 * (Cascade 3) and FFN (Cascade 4) -- reproduces the monolithic
 * reference Transformer layer bit-for-bit.  This is the "end-to-end
 * fusion preserves computation semantics" claim (Sec. 7) executed
 * on real tensors, swept over shapes and tilings.
 */

#include <gtest/gtest.h>

#include <ostream>

#include "einsum/ops.hh"
#include "model/cascades.hh"
#include "ref/interpreter.hh"
#include "ref/reference.hh"
#include "ref/streaming_attention.hh"

namespace transfusion
{
namespace
{

using ref::Bindings;
using ref::Tensor;

struct LayerCase
{
    std::int64_t h, e, s, p, m0, m1;
    einsum::UnaryOp act;
};

/** Readable, stable test ids (the default prints raw bytes,
 *  padding included), e.g. `h2 e4 s16 p6 m3x2 relu` for the m0 x m1
 *  tiling; terse so every full id stays under 100 characters. */
void
PrintTo(const LayerCase &c, std::ostream *os)
{
    *os << "h" << c.h << " e" << c.e << " s" << c.s << " p" << c.p
        << " m" << c.m0 << "x" << c.m1 << " " << einsum::toString(c.act);
}

class FullLayerEquivalence
    : public ::testing::TestWithParam<LayerCase>
{};

TEST_P(FullLayerEquivalence, FusedStackMatchesReferenceLayer)
{
    const auto c = GetParam();
    model::TransformerConfig cfg;
    cfg.name = "case";
    cfg.layers = 1;
    cfg.heads = c.h;
    cfg.head_dim = c.e;
    cfg.d_model = c.h * c.e;
    cfg.ffn_hidden = c.s;
    cfg.activation = c.act;
    cfg.batch = 1;
    // Self-attention: the streamed context equals the queries.
    ASSERT_EQ(c.m0 * c.m1, c.p);
    const auto dims = model::makeDims(cfg, c.p, c.m0, c.m1);

    Rng rng(31337 + static_cast<std::uint64_t>(
        c.h * 7 + c.p * 3 + c.s));
    const Tensor input = Tensor::random({ cfg.d_model, c.p }, rng);
    const Tensor wq = Tensor::random(
        { cfg.d_model, c.h, c.e }, rng, -0.4, 0.4);
    const Tensor wk = Tensor::random(
        { cfg.d_model, c.h, c.e }, rng, -0.4, 0.4);
    const Tensor wv = Tensor::random(
        { cfg.d_model, c.h, c.e }, rng, -0.4, 0.4);
    const Tensor wf1 = Tensor::random(
        { c.h, c.e, c.s }, rng, -0.4, 0.4);
    const Tensor bf1 = Tensor::random({ c.s }, rng);
    const Tensor wf2 = Tensor::random(
        { c.h, c.e, c.s }, rng, -0.4, 0.4);
    const Tensor bf2 = Tensor::random({ c.h, c.e }, rng);

    // ---- Reference: the monolithic unfused layer.
    const Tensor expect = ref::transformerLayer(
        input, wq, wk, wv, wf1, bf1, wf2, bf2, c.act);

    // ---- Fused path, cascade by cascade.
    // INPUT_KV is INPUT reorganized into (m1, m0) context blocks.
    Tensor input_kv({ cfg.d_model, c.m1, c.m0 });
    for (std::int64_t d = 0; d < cfg.d_model; ++d) {
        for (std::int64_t i = 0; i < c.p; ++i) {
            input_kv.at({ d, i / c.m0, i % c.m0 }) =
                input.at({ d, i });
        }
    }
    Bindings env;
    env["INPUT"] = input;
    env["INPUT_KV"] = input_kv;
    env["WQ"] = wq;
    env["WK"] = wk;
    env["WV"] = wv;
    env = ref::evaluateCascade(model::buildQkvCascade(), dims,
                               std::move(env));

    // Cascade 1 runs as the streaming 1-pass recurrence.
    Tensor k_flat({ c.h, c.e, c.p }), v_flat({ c.h, c.e, c.p });
    for (std::int64_t h = 0; h < c.h; ++h) {
        for (std::int64_t e = 0; e < c.e; ++e) {
            for (std::int64_t i = 0; i < c.p; ++i) {
                k_flat.at({ h, e, i }) =
                    env.at("BK").at({ h, e, i / c.m0, i % c.m0 });
                v_flat.at({ h, e, i }) =
                    env.at("BV").at({ h, e, i / c.m0, i % c.m0 });
            }
        }
    }
    const Tensor av = ref::streamingAttention(env.at("Q"), k_flat,
                                              v_flat, c.m0);

    // Residual input reshaped [d,p] -> [h,f,p], as in Sec. 3.2.
    Tensor residual({ c.h, c.e, c.p });
    for (std::int64_t h = 0; h < c.h; ++h) {
        for (std::int64_t e = 0; e < c.e; ++e) {
            for (std::int64_t i = 0; i < c.p; ++i) {
                residual.at({ h, e, i }) =
                    input.at({ h * c.e + e, i });
            }
        }
    }
    Bindings ln;
    ln["INP"] = residual;
    ln["AV"] = av;
    ln = ref::evaluateCascade(
        model::buildCascade(model::LayerKind::LayerNorm, cfg),
        dims, std::move(ln));

    Bindings ffn;
    ffn["NR"] = ln.at("NR");
    ffn["WF1"] = wf1;
    ffn["BF1"] = bf1;
    ffn["WF2"] = wf2;
    ffn["BF2"] = bf2;
    ffn = ref::evaluateCascade(model::buildFfnCascade(c.act), dims,
                               std::move(ffn));

    EXPECT_LT(Tensor::maxAbsDiff(ffn.at("FFN2B"), expect), 1e-8)
        << "h=" << c.h << " e=" << c.e << " p=" << c.p
        << " m0=" << c.m0;
}

INSTANTIATE_TEST_SUITE_P(
    ShapeAndTilingSweep, FullLayerEquivalence,
    ::testing::Values(
        LayerCase{ 2, 4, 16, 6, 3, 2, einsum::UnaryOp::Relu },
        LayerCase{ 2, 4, 16, 6, 2, 3, einsum::UnaryOp::Relu },
        LayerCase{ 2, 4, 16, 6, 6, 1, einsum::UnaryOp::Relu },
        LayerCase{ 2, 4, 16, 6, 1, 6, einsum::UnaryOp::Relu },
        LayerCase{ 4, 8, 32, 8, 4, 2, einsum::UnaryOp::Gelu },
        LayerCase{ 1, 8, 24, 10, 5, 2, einsum::UnaryOp::Silu },
        LayerCase{ 3, 4, 12, 4, 2, 2, einsum::UnaryOp::Gelu },
        LayerCase{ 2, 16, 64, 12, 4, 3, einsum::UnaryOp::Silu }));

} // namespace
} // namespace transfusion
