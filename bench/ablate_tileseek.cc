/**
 * @file
 * Ablation (DESIGN.md): TransFusion with MCTS-searched outer tiles
 * vs the naive largest-fitting tile.  Reports latency and DRAM
 * traffic deltas per architecture/model at 64K.
 */

#include <algorithm>
#include <iostream>

#include "bench_util.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "costmodel/roofline.hh"
#include "costmodel/traffic.hh"
#include "schedule/tiling.hh"

namespace
{

/**
 * Median DRAM traffic over random *feasible* tiles: how a search
 * point picked blindly from the constraint-satisfying region
 * performs (the space is treacherous; most feasible tiles are far
 * from optimal).
 */
double
medianRandomTraffic(const transfusion::arch::ArchConfig &arch,
                    const transfusion::model::TransformerConfig &cfg,
                    std::int64_t seq)
{
    using namespace transfusion;
    const auto space = schedule::buildTilingSpace(arch, cfg, seq);
    const double w = static_cast<double>(arch.buffer_bytes)
        / arch.element_bytes;
    costmodel::FusedStackShape shape;
    shape.batch = static_cast<double>(cfg.batch);
    shape.seq = static_cast<double>(seq);
    shape.d_model = static_cast<double>(cfg.d_model);
    shape.ffn_hidden = static_cast<double>(cfg.ffn_hidden);

    Rng rng(12345);
    std::vector<double> samples;
    int tries = 0;
    while (samples.size() < 64 && tries < 200000) {
        ++tries;
        tileseek::Assignment a(space.depth());
        for (std::size_t l = 0; l < space.depth(); ++l) {
            const auto &c = space.choices[l];
            a[l] = c[static_cast<std::size_t>(
                rng.nextBelow(c.size()))];
        }
        const auto t = schedule::assignmentToTile(a, arch, cfg);
        if (!schedule::tileFeasible(t, arch, seq))
            continue;
        samples.push_back(
            costmodel::fusedStackTraffic(shape, { t.b, t.p }, w)
                .total());
    }
    if (samples.empty())
        return 0;
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2]
        * static_cast<double>(arch.element_bytes);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace transfusion;
    const auto args = bench::parseBenchArgs(argc, argv);
    bench::printBanner(
        "Ablation: TileSeek",
        "TransFusion with TileSeek vs naive largest-fitting outer "
        "tiles at 64K");

    const std::int64_t seq = 64 << 10;
    Table t({ "arch", "model", "latency (naive/seek)",
              "DRAM bytes (naive/seek)",
              "DRAM bytes (random/seek)", "tile (seek)" });

    for (const auto *arch_name : { "cloud", "edge" }) {
        const auto arch = arch::archByName(arch_name);
        for (const auto &cfg : model::allModels()) {
            schedule::EvaluatorOptions with;
            with.mcts.iterations = 2048;
            schedule::EvaluatorOptions without = with;
            without.use_tileseek = false;

            const auto seek =
                schedule::Evaluator(arch, cfg, seq, with)
                    .evaluate(schedule::StrategyKind::TransFusion);
            const auto naive =
                schedule::Evaluator(arch, cfg, seq, without)
                    .evaluate(schedule::StrategyKind::TransFusion);

            // Compare mode-A (fully fused) traffic of the median
            // random feasible tile vs the TileSeek tile.
            const double w =
                static_cast<double>(arch.buffer_bytes)
                / arch.element_bytes;
            costmodel::FusedStackShape shape;
            shape.batch = static_cast<double>(cfg.batch);
            shape.seq = static_cast<double>(seq);
            shape.d_model = static_cast<double>(cfg.d_model);
            shape.ffn_hidden =
                static_cast<double>(cfg.ffn_hidden);
            const double seek_bytes =
                costmodel::fusedStackTraffic(
                    shape, { seek.tile.b, seek.tile.p }, w)
                    .total()
                * arch.element_bytes;
            const double random_bytes =
                medianRandomTraffic(arch, cfg, seq);
            t.addRow({
                arch.name,
                cfg.name,
                Table::cell(naive.total.latency_s
                                / seek.total.latency_s, 3) + "x",
                Table::cell(naive.total.dram_bytes
                                / seek.total.dram_bytes, 3) + "x",
                Table::cell(random_bytes / seek_bytes, 2) + "x",
                seek.tile.toString(),
            });
        }
    }
    bench::printTable(t, args, std::cout);
    return 0;
}
