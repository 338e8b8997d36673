/**
 * @file
 * Extension experiment (Sec. 5.1: "the resulting energy or latency
 * can serve as the reward signal"): run TileSeek under both reward
 * objectives and compare the chosen tiles, their DRAM traffic and
 * their streaming time.
 */

#include <iostream>

#include "bench_util.hh"
#include "common/math_utils.hh"
#include "common/table.hh"
#include "costmodel/energy.hh"
#include "costmodel/roofline.hh"
#include "costmodel/traffic.hh"
#include "schedule/tiling.hh"

int
main(int argc, char **argv)
{
    using namespace transfusion;
    const auto args = bench::parseBenchArgs(argc, argv);
    bench::printBanner(
        "Extension: TileSeek reward objective",
        "Latency-reward vs energy-reward tiling at 64K");

    const std::int64_t seq = 64 << 10;
    Table t({ "arch", "model", "objective", "tile b/p",
              "DRAM GB/layer", "DRAM energy/layer" });

    for (const auto *arch_name : { "cloud", "edge" }) {
        const auto arch = arch::archByName(arch_name);
        const double w = static_cast<double>(arch.buffer_bytes)
            / arch.element_bytes;
        for (const auto &cfg :
             { model::bertBase(), model::llama3_8b() }) {
            costmodel::FusedStackShape shape;
            shape.batch = static_cast<double>(cfg.batch);
            shape.seq = static_cast<double>(seq);
            shape.d_model = static_cast<double>(cfg.d_model);
            shape.ffn_hidden =
                static_cast<double>(cfg.ffn_hidden);

            tileseek::MctsOptions opts;
            opts.iterations = 2048;
            for (auto obj : { schedule::TileObjective::Latency,
                              schedule::TileObjective::Energy }) {
                const auto tile = schedule::seekTile(
                    arch, cfg, seq, 1.0, opts, 0, obj);
                const double bytes =
                    costmodel::fusedStackTraffic(
                        shape, { tile.b, tile.p }, w)
                        .total()
                    * arch.element_bytes;
                t.addRow({
                    arch.name,
                    cfg.name,
                    obj == schedule::TileObjective::Latency
                        ? "latency" : "energy",
                    std::to_string(tile.b) + "/"
                        + std::to_string(tile.p),
                    Table::cell(bytes / 1e9, 2),
                    formatJoules(
                        costmodel::dramEnergy(arch, bytes)),
                });
            }
        }
    }
    bench::printTable(t, args, std::cout);
    std::cout << "\nBoth objectives minimize off-chip movement "
                 "once compute-bound, so the chosen tiles should "
                 "coincide or tie in traffic.\n";
    return 0;
}
