/**
 * @file
 * Unit tests for the TileSeek workload bridge: search-space
 * construction, feasibility (Table 2 + context bound), the naive
 * LayerFuse tile, and MCTS tile selection quality.
 */

#include <gtest/gtest.h>

#include "common/math_utils.hh"
#include "costmodel/traffic.hh"
#include "schedule/tiling.hh"
#include "sim/compare.hh"

namespace transfusion::schedule
{
namespace
{

TEST(TilingSpace, LevelsAndCandidates)
{
    const auto arch = arch::cloudArch();
    const auto cfg = model::bertBase();
    const auto space = buildTilingSpace(arch, cfg, 4096);
    ASSERT_EQ(space.depth(), 6u);
    EXPECT_EQ(space.level_names,
              (std::vector<std::string>{ "b", "d", "p", "m0", "m1",
                                         "s" }));
    // Every candidate divides its full extent (legal tilings only).
    for (auto b : space.choices[0])
        EXPECT_EQ(cfg.batch % b, 0);
    for (auto d : space.choices[1])
        EXPECT_EQ(cfg.d_model % d, 0);
    for (auto p : space.choices[2]) {
        EXPECT_EQ(4096 % p, 0);
        EXPECT_LE(p, 4096);
    }
    for (auto s : space.choices[5])
        EXPECT_EQ(cfg.ffn_hidden % s, 0);
}

TEST(TilingSpace, AssignmentRoundTrip)
{
    const auto arch = arch::edgeArch();
    const auto cfg = model::t5Small();
    const tileseek::Assignment a{ 2, 64, 128, 16, 4, 256 };
    const auto t = assignmentToTile(a, arch, cfg);
    EXPECT_EQ(t.b, 2);
    EXPECT_EQ(t.d, 64);
    EXPECT_EQ(t.p, 128);
    EXPECT_EQ(t.m0, 16);
    EXPECT_EQ(t.m1, 4);
    EXPECT_EQ(t.s, 256);
    EXPECT_EQ(t.h, cfg.heads);
    EXPECT_EQ(t.e, cfg.head_dim);
    // P' = min(p, rows) = min(128, 16).
    EXPECT_EQ(t.p_prime, 16);
}

TEST(TileFeasible, ContextBound)
{
    const auto arch = arch::cloudArch();
    const auto cfg = model::t5Small();
    tileseek::TileShape t = assignmentToTile(
        { 1, 64, 64, 64, 4, 128 }, arch, cfg);
    // m1 * m0 = 256 exceeds a 128-long sequence.
    EXPECT_FALSE(tileFeasible(t, arch, 128));
    EXPECT_TRUE(tileFeasible(t, arch, 1024));
}

TEST(NaiveTile, FeasibleOnEveryArchModelPoint)
{
    for (const auto &arch_name :
         { "cloud", "edge", "edge32", "edge64" }) {
        const auto arch = arch::archByName(arch_name);
        for (const auto &cfg : model::allModels()) {
            for (std::int64_t seq : { std::int64_t{1} << 10,
                                      std::int64_t{1} << 16 }) {
                const auto t = naiveTile(arch, cfg, seq);
                EXPECT_TRUE(tileFeasible(t, arch, seq))
                    << arch_name << " " << cfg.name << " P=" << seq;
                EXPECT_EQ(t.b, 1);
            }
        }
    }
}

/** naiveTile as first written: a nested first-fit over (p, m0, d,
 *  s), each descending, testing the whole tile at every step. */
tileseek::TileShape
nestedFirstFitTile(const arch::ArchConfig &arch,
                   const model::TransformerConfig &cfg,
                   std::int64_t seq, std::int64_t ctx)
{
    tileseek::TileShape t;
    t.b = 1;
    t.h = cfg.heads;
    t.e = cfg.head_dim;
    t.f = cfg.head_dim;
    t.m1 = 1;
    const auto p_options = divisorsUpTo(seq, 4096);
    const auto m0_options = divisorsUpTo(ctx, arch.pe2d.cols);
    const auto d_options = divisorsUpTo(cfg.d_model, 256);
    const auto s_options = divisorsUpTo(cfg.ffn_hidden, 256);
    for (auto p = p_options.rbegin(); p != p_options.rend(); ++p) {
        t.p = *p;
        t.p_prime = tileseek::pPrime(t.p, arch.pe2d.rows);
        for (auto m0 = m0_options.rbegin(); m0 != m0_options.rend();
             ++m0) {
            t.m0 = *m0;
            for (auto d = d_options.rbegin(); d != d_options.rend();
                 ++d) {
                t.d = *d;
                for (auto s = s_options.rbegin();
                     s != s_options.rend(); ++s) {
                    t.s = *s;
                    if (tileFeasible(t, arch, ctx))
                        return t;
                }
            }
        }
    }
    t.p = t.p_prime = t.m0 = t.d = t.s = 1;
    return t;
}

TEST(NaiveTile, SeparableFirstFitMatchesNestedFirstFit)
{
    std::size_t compared = 0;
    for (const auto &arch : { arch::cloudArch(), arch::edgeArch() }) {
        for (const auto &cfg : model::allModels()) {
            // Prefill over the paper's sequence sweep.
            for (const std::int64_t seq : sim::paperSequenceSweep()) {
                EXPECT_EQ(naiveTile(arch, cfg, seq).toString(),
                          nestedFirstFitTile(arch, cfg, seq, seq)
                              .toString())
                    << arch.name << " " << cfg.name << " P=" << seq;
                ++compared;
            }
            // Decode steps: one query against a cache of `len`.
            for (const std::int64_t len :
                 { 1, 2, 3, 7, 100, 255, 256, 257, 1000, 4096, 4099,
                   65536 }) {
                EXPECT_EQ(naiveTile(arch, cfg, 1, len).toString(),
                          nestedFirstFitTile(arch, cfg, 1, len)
                              .toString())
                    << arch.name << " " << cfg.name
                    << " cache=" << len;
                ++compared;
            }
        }
    }
    EXPECT_GT(compared, 0u);
}

TEST(NaiveTile, PrefersLargeSequenceTiles)
{
    // On the roomy cloud buffer the naive tile should reach a
    // respectable sequence tile for a small model.
    const auto t =
        naiveTile(arch::cloudArch(), model::t5Small(), 65536);
    EXPECT_GE(t.p, 256);
}

TEST(SeekTile, FeasibleAndNoWorseThanNaive)
{
    const auto arch = arch::cloudArch();
    const auto cfg = model::llama3_8b();
    const std::int64_t seq = 65536;

    const auto naive = naiveTile(arch, cfg, seq);
    tileseek::MctsOptions opts;
    opts.iterations = 1024;
    const auto sought = seekTile(arch, cfg, seq, 1.0, opts);
    EXPECT_TRUE(tileFeasible(sought, arch, seq));

    // Compare the traffic both tiles imply.
    costmodel::FusedStackShape shape;
    shape.batch = static_cast<double>(cfg.batch);
    shape.seq = static_cast<double>(seq);
    shape.d_model = static_cast<double>(cfg.d_model);
    shape.ffn_hidden = static_cast<double>(cfg.ffn_hidden);
    const double w = static_cast<double>(arch.buffer_bytes)
        / arch.element_bytes;
    const double naive_traffic = costmodel::fusedStackTraffic(
        shape, { naive.b, naive.p }, w).total();
    const double sought_traffic = costmodel::fusedStackTraffic(
        shape, { sought.b, sought.p }, w).total();
    EXPECT_LE(sought_traffic, naive_traffic * 1.05);
}

TEST(SeekTile, DeterministicUnderSeed)
{
    const auto arch = arch::edgeArch();
    const auto cfg = model::bertBase();
    tileseek::MctsOptions opts;
    opts.iterations = 256;
    opts.seed = 5;
    const auto a = seekTile(arch, cfg, 4096, 1.0, opts);
    const auto b = seekTile(arch, cfg, 4096, 1.0, opts);
    EXPECT_EQ(a.toString(), b.toString());
}

} // namespace
} // namespace transfusion::schedule
