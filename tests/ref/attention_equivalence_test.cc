/**
 * @file
 * The central functional-correctness obligation: the 1-pass
 * streaming attention of Einsum Cascade 1 (Fig. 2) computes exactly
 * the same function as naive softmax attention, for every tile
 * split of the context.  Parameterized over shapes and tile sizes.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "common/logging.hh"
#include "ref/reference.hh"
#include "ref/streaming_attention.hh"

namespace transfusion::ref
{
namespace
{

struct AttentionCase
{
    std::int64_t h, e, f, p, m, m0;
};

/** Readable, stable test ids (the default prints raw bytes,
 *  padding included). */
void
PrintTo(const AttentionCase &c, std::ostream *os)
{
    *os << "h=" << c.h << " e=" << c.e << " f=" << c.f << " p=" << c.p
        << " m=" << c.m << " m0=" << c.m0;
}

class AttentionEquivalence
    : public ::testing::TestWithParam<AttentionCase>
{};

TEST_P(AttentionEquivalence, StreamingMatchesNaive)
{
    const auto c = GetParam();
    Rng rng(0xC0FFEE ^ static_cast<std::uint64_t>(
        c.h * 1000003 + c.p * 101 + c.m * 13 + c.m0));
    const Tensor q = Tensor::random({ c.h, c.e, c.p }, rng, -2, 2);
    const Tensor k = Tensor::random({ c.h, c.e, c.m }, rng, -2, 2);
    const Tensor v = Tensor::random({ c.h, c.f, c.m }, rng, -2, 2);

    const Tensor expect = naiveAttention(q, k, v);
    const Tensor got = streamingAttention(q, k, v, c.m0);
    EXPECT_LT(Tensor::maxAbsDiff(expect, got), 1e-9)
        << "h=" << c.h << " e=" << c.e << " p=" << c.p
        << " m=" << c.m << " m0=" << c.m0;
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, AttentionEquivalence,
    ::testing::Values(
        AttentionCase{ 1, 4, 4, 3, 8, 1 },   // finest tiling
        AttentionCase{ 1, 4, 4, 3, 8, 2 },
        AttentionCase{ 1, 4, 4, 3, 8, 4 },
        AttentionCase{ 1, 4, 4, 3, 8, 8 },   // single tile
        AttentionCase{ 2, 8, 8, 5, 12, 3 },  // non-power-of-two
        AttentionCase{ 4, 16, 16, 8, 32, 8 },
        AttentionCase{ 2, 4, 4, 1, 16, 4 },  // single query
        AttentionCase{ 1, 1, 1, 2, 6, 2 },   // degenerate dims
        AttentionCase{ 3, 8, 8, 7, 20, 5 },
        AttentionCase{ 2, 32, 32, 4, 64, 16 }));

TEST(AttentionEquivalence, TileSizeInvariance)
{
    // All tile splits of the same problem agree with each other.
    Rng rng(77);
    const std::int64_t h = 2, e = 8, f = 8, p = 4, m = 24;
    const Tensor q = Tensor::random({ h, e, p }, rng);
    const Tensor k = Tensor::random({ h, e, m }, rng);
    const Tensor v = Tensor::random({ h, f, m }, rng);

    const Tensor base = streamingAttention(q, k, v, m);
    for (std::int64_t m0 : { 1, 2, 3, 4, 6, 8, 12 }) {
        const Tensor t = streamingAttention(q, k, v, m0);
        EXPECT_LT(Tensor::maxAbsDiff(base, t), 1e-9)
            << "m0=" << m0;
    }
}

TEST(AttentionEquivalence, LargeScoresStayStable)
{
    // The running-max correction must keep large logits finite
    // (this is the whole point of the RM/PRM machinery).
    Rng rng(123);
    const std::int64_t h = 1, e = 4, p = 2, m = 8;
    const Tensor q = Tensor::random({ h, e, p }, rng, 20, 40);
    const Tensor k = Tensor::random({ h, e, m }, rng, 20, 40);
    const Tensor v = Tensor::random({ h, e, m }, rng, -1, 1);

    const Tensor out = streamingAttention(q, k, v, 2);
    for (std::int64_t i = 0; i < out.size(); ++i)
        EXPECT_TRUE(std::isfinite(out.flat(i)));
    const Tensor expect = naiveAttention(q, k, v);
    EXPECT_LT(Tensor::maxAbsDiff(expect, out), 1e-9);
}

TEST(AttentionEquivalence, RowsAreConvexCombinations)
{
    // Attention output lies in the convex hull of the V rows:
    // min_m V <= AV <= max_m V per (h, f).
    Rng rng(9);
    const std::int64_t h = 2, e = 4, f = 4, p = 6, m = 12;
    const Tensor q = Tensor::random({ h, e, p }, rng);
    const Tensor k = Tensor::random({ h, e, m }, rng);
    const Tensor v = Tensor::random({ h, f, m }, rng);
    const Tensor out = streamingAttention(q, k, v, 4);

    for (std::int64_t hi = 0; hi < h; ++hi) {
        for (std::int64_t fi = 0; fi < f; ++fi) {
            double lo = 1e300, hi_v = -1e300;
            for (std::int64_t mi = 0; mi < m; ++mi) {
                lo = std::min(lo, v.at({ hi, fi, mi }));
                hi_v = std::max(hi_v, v.at({ hi, fi, mi }));
            }
            for (std::int64_t pi = 0; pi < p; ++pi) {
                const double x = out.at({ hi, fi, pi });
                EXPECT_GE(x, lo - 1e-9);
                EXPECT_LE(x, hi_v + 1e-9);
            }
        }
    }
}

TEST(AttentionEquivalence, BadTileSizeIsFatal)
{
    Rng rng(1);
    const Tensor q = Tensor::random({ 1, 2, 2 }, rng);
    const Tensor k = Tensor::random({ 1, 2, 8 }, rng);
    const Tensor v = Tensor::random({ 1, 2, 8 }, rng);
    EXPECT_THROW(streamingAttention(q, k, v, 3), FatalError);
    EXPECT_THROW(streamingAttention(q, k, v, 0), FatalError);
}

} // namespace
} // namespace transfusion::ref
