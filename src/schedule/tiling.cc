/**
 * @file
 * Implementation of the TileSeek workload bridge.
 */

#include "tiling.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/math_utils.hh"
#include "costmodel/energy.hh"
#include "costmodel/roofline.hh"
#include "costmodel/traffic.hh"

namespace transfusion::schedule
{

using tileseek::Assignment;
using tileseek::SearchSpace;
using tileseek::TileShape;

tileseek::SearchSpace
buildTilingSpace(const arch::ArchConfig &arch,
                 const model::TransformerConfig &cfg,
                 std::int64_t seq, std::int64_t context)
{
    cfg.validate();
    const std::int64_t ctx = context > 0 ? context : seq;
    SearchSpace space;
    space.level_names = { "b", "d", "p", "m0", "m1", "s" };
    space.choices = {
        divisorsOf(cfg.batch),
        divisorsOf(cfg.d_model),
        // Sequence tiles beyond a few thousand positions never fit
        // the buffer once D-scale activations ride along.
        divisorsUpTo(seq, 4096),
        divisorsUpTo(ctx, std::max<std::int64_t>(arch.pe2d.cols,
                                                 arch.pe2d.rows)),
        { 1, 2, 4, 8 },
        divisorsOf(cfg.ffn_hidden),
    };
    return space;
}

tileseek::TileShape
assignmentToTile(const Assignment &a, const arch::ArchConfig &arch,
                 const model::TransformerConfig &cfg)
{
    tf_assert(a.size() == 6, "tiling assignment must have 6 levels");
    TileShape t;
    t.b = a[0];
    t.d = a[1];
    t.p = a[2];
    t.m0 = a[3];
    t.m1 = a[4];
    t.s = a[5];
    t.h = cfg.heads;
    t.e = cfg.head_dim;
    t.f = cfg.head_dim;
    t.p_prime = tileseek::pPrime(t.p, arch.pe2d.rows);
    return t;
}

bool
tileFeasible(const TileShape &tile, const arch::ArchConfig &arch,
             std::int64_t context_len)
{
    if (tile.m1 * tile.m0 > context_len)
        return false; // resident context exceeds the attended span
    return tileseek::fitsBuffer(tile, arch);
}

tileseek::TileShape
naiveTile(const arch::ArchConfig &arch,
          const model::TransformerConfig &cfg, std::int64_t seq,
          std::int64_t context)
{
    const std::int64_t ctx = context > 0 ? context : seq;
    TileShape t;
    t.b = 1;
    t.h = cfg.heads;
    t.e = cfg.head_dim;
    t.f = cfg.head_dim;
    t.m1 = 1;

    // First-fit descent: largest sequence tile first (it dominates
    // K/V re-streaming), then shrink the context chunk and the
    // hidden-dimension slices until the tile fits.  No joint
    // optimization across levels -- that is TileSeek's job.
    //
    // fitsBuffer tests the max of the four Table 2 rows, so a tile
    // fits iff every row does (scaling words to bytes keeps their
    // order), and of the hidden slices only the QKV row reads d and
    // only the FFN row reads s.  So at each (p, m0) that MHA and
    // LayerNorm fit, the first fitting (d, s) in descending order is
    // the first fitting d paired with the first fitting s: the
    // nested first-fit over (d, s) separates into two scans.
    const auto fits = [&](double words) {
        return tileseek::wordsFitBuffer(words, arch);
    };
    const auto first_fit = [&](const std::vector<std::int64_t> &options,
                               std::int64_t &slot, auto row_words) {
        for (auto it = options.rbegin(); it != options.rend(); ++it) {
            slot = *it;
            if (fits(row_words(t)))
                return true;
        }
        return false;
    };
    const auto p_options = divisorsUpTo(seq, 4096);
    const auto m0_options = divisorsUpTo(ctx, arch.pe2d.cols);
    const auto d_options = divisorsUpTo(cfg.d_model, 256);
    const auto s_options = divisorsUpTo(cfg.ffn_hidden, 256);
    for (auto it = p_options.rbegin(); it != p_options.rend(); ++it) {
        t.p = *it;
        t.p_prime = tileseek::pPrime(t.p, arch.pe2d.rows);
        for (auto m0 = m0_options.rbegin(); m0 != m0_options.rend();
             ++m0) {
            t.m0 = *m0;
            if (t.m1 * t.m0 > ctx
                    || !fits(tileseek::mhaBufferWords(t))
                    || !fits(tileseek::layerNormBufferWords(t)))
                continue;
            if (first_fit(d_options, t.d, tileseek::qkvBufferWords)
                    && first_fit(s_options, t.s,
                                 tileseek::ffnBufferWords))
                return t;
        }
    }
    tf_warn("naiveTile: no feasible sequence tile for ",
            cfg.name, " at P=", seq, " on ", arch.name,
            "; using the minimal tile");
    t.p = 1;
    t.p_prime = 1;
    t.m0 = 1;
    t.d = 1;
    t.s = 1;
    return t;
}

tileseek::TileShape
seekTile(const arch::ArchConfig &arch,
         const model::TransformerConfig &cfg, std::int64_t seq,
         double compute_hint_s, const tileseek::MctsOptions &options,
         std::int64_t context, TileObjective objective)
{
    const std::int64_t ctx = context > 0 ? context : seq;
    const SearchSpace space =
        buildTilingSpace(arch, cfg, seq, ctx);

    const double buffer_words =
        static_cast<double>(arch.buffer_bytes)
        / static_cast<double>(arch.element_bytes);
    costmodel::FusedStackShape shape;
    shape.batch = static_cast<double>(cfg.batch);
    shape.seq = static_cast<double>(seq);
    shape.context = static_cast<double>(ctx);
    shape.d_model = static_cast<double>(cfg.d_model);
    shape.ffn_hidden = static_cast<double>(cfg.ffn_hidden);

    auto feasible = [&](const Assignment &a) {
        return tileFeasible(assignmentToTile(a, arch, cfg), arch,
                            ctx);
    };
    auto tile_cost = [&](const TileShape &t) {
        costmodel::OuterTile outer{t.b, t.p};
        const double bytes =
            costmodel::fusedStackTraffic(shape, outer, buffer_words)
                .total()
            * static_cast<double>(arch.element_bytes);
        // Pipeline-granularity regularizer: a larger resident
        // context chunk (m1*m0) means fewer, longer K/V refills and
        // smoother inner pipelining.  Kept tiny so it only breaks
        // ties among traffic-equivalent tilings.
        const double chunk_penalty = 1.0
            + 0.002 * std::log2(static_cast<double>(ctx)
                                / static_cast<double>(t.m1 * t.m0))
            + 0.001 * std::log2(static_cast<double>(cfg.ffn_hidden)
                                / static_cast<double>(t.s))
            + 0.001 * std::log2(static_cast<double>(cfg.d_model)
                                / static_cast<double>(t.d));
        if (objective == TileObjective::Energy) {
            // Reward = off-chip energy (Sec. 5.1: the estimated
            // energy can serve as the MCTS reward signal).
            return costmodel::dramEnergy(arch, bytes)
                * chunk_penalty;
        }
        const double dram_s = costmodel::dramSeconds(arch, bytes);
        // Latency reward with a traffic tie-breaker so the search
        // still prefers lower energy once compute-bound.
        return (costmodel::overlapped(compute_hint_s, dram_s)
                + 0.01 * dram_s)
            * chunk_penalty;
    };
    auto cost = [&](const Assignment &a) {
        return tile_cost(assignmentToTile(a, arch, cfg));
    };

    tileseek::TileSeek seeker(space, feasible, cost, options);
    const auto result = seeker.search();
    const TileShape naive = naiveTile(arch, cfg, seq, ctx);
    if (!result.found) {
        tf_warn("TileSeek found no feasible tile for ", cfg.name,
                " at P=", seq, " on ", arch.name,
                "; falling back to the naive tile");
        return naive;
    }
    // Never return a tile worse than the zero-search heuristic:
    // TransFusion strictly extends LayerFuse's tiling.
    const TileShape sought =
        assignmentToTile(result.best, arch, cfg);
    if (tileFeasible(naive, arch, ctx)
            && tile_cost(naive) < tile_cost(sought)) {
        return naive;
    }
    return sought;
}

} // namespace transfusion::schedule
