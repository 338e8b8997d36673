/**
 * @file
 * Table 2: per-tile on-chip buffer requirements of each intra-layer
 * module, evaluated symbolically (formulas) and for the concrete
 * tiles TileSeek chooses on each architecture.
 */

#include <iostream>

#include "bench_util.hh"
#include "common/math_utils.hh"
#include "common/table.hh"
#include "schedule/tiling.hh"
#include "tileseek/buffer_model.hh"

int
main(int argc, char **argv)
{
    using namespace transfusion;
    const auto args = bench::parseBenchArgs(argc, argv);
    bench::printBanner(
        "Table 2",
        "Buffer requirement per tile for each intra-layer module "
        "(words), for TileSeek's chosen tiles");

    const std::int64_t seq = 64 << 10;
    Table t({ "arch", "model", "tile", "QKV", "MHA", "LayerNorm",
              "FFN", "peak-bytes", "buffer", "fits" });

    for (const auto *arch_name : { "cloud", "edge" }) {
        const auto arch = arch::archByName(arch_name);
        for (const auto &cfg : model::allModels()) {
            tileseek::MctsOptions opts;
            opts.iterations = 2048;
            const auto tile =
                schedule::seekTile(arch, cfg, seq, 1.0, opts);
            const double peak_bytes =
                tileseek::peakBufferWords(tile)
                * arch.element_bytes;
            t.addRow({
                arch.name,
                cfg.name,
                tile.toString(),
                Table::cell(tileseek::qkvBufferWords(tile), 0),
                Table::cell(tileseek::mhaBufferWords(tile), 0),
                Table::cell(
                    tileseek::layerNormBufferWords(tile), 0),
                Table::cell(tileseek::ffnBufferWords(tile), 0),
                Table::cell(peak_bytes, 0),
                std::to_string(arch.buffer_bytes),
                tileseek::fitsBuffer(tile, arch) ? "yes" : "NO",
            });
        }
    }
    bench::printTable(t, args, std::cout);
    std::cout << "\nFormulas (Table 2 of the paper):\n"
              << "  QKV       BD(4P + 3*M1*M0) + 3DHE + 2BHP\n"
              << "  MHA       BHE(P + 2*M1*M0) + BHP(2+2F) "
                 "+ 4*M0*P' + 18P'\n"
              << "  LayerNorm 3BHFP + 4HFP'\n"
              << "  FFN       HF(2BP + S) + S(P+2) + 2SP'\n";
    return 0;
}
