/**
 * @file
 * TileSeek explorer: runs the MCTS outer-tiling search for a
 * (model, architecture, sequence) point, compares it against the
 * naive largest-fitting tile and -- when the space is small enough
 * -- the exhaustive optimum, and prints the Table 2 buffer budget
 * of the winning tile.
 *
 * The MCTS runs root-parallel (`threads` independent trees merged
 * by best cost -- deterministic for a fixed seed and thread
 * count), and the closing per-sequence comparison fans across the
 * schedule::Sweep driver.
 *
 * Usage: tileseek_explorer [model=Llama3] [arch=edge] [seq=65536]
 *                          [threads=hardware]
 */

#include <cstdlib>
#include <iostream>

#include "common/math_utils.hh"
#include "common/table.hh"
#include "common/parallel_map.hh"
#include "costmodel/roofline.hh"
#include "costmodel/traffic.hh"
#include "schedule/sweep.hh"
#include "schedule/tiling.hh"
#include "sim/compare.hh"

int
main(int argc, char **argv)
{
    using namespace transfusion;

    const model::TransformerConfig cfg =
        model::modelByName(argc > 1 ? argv[1] : "Llama3");
    const arch::ArchConfig arch =
        arch::archByName(argc > 2 ? argv[2] : "edge");
    const std::int64_t seq = argc > 3 ? std::atoll(argv[3]) : 65536;
    const int threads_arg =
        argc > 4 ? std::atoi(argv[4]) : 0;
    // 0 or unparseable means "use every core".
    const int threads = threads_arg > 0
        ? threads_arg
        : hardwareThreads();

    std::cout << "TileSeek exploration: " << cfg.name << " on "
              << arch.toString() << ", P=" << seq << ", "
              << threads << " search trees\n\n";

    const auto space = schedule::buildTilingSpace(arch, cfg, seq);
    std::cout << "search space: " << space.leafCount()
              << " leaves over " << space.depth()
              << " levels [b, d, p, m0, m1, s]\n";

    // Shared cost: DRAM-streaming seconds of the fused stack.
    const double w = static_cast<double>(arch.buffer_bytes)
        / arch.element_bytes;
    costmodel::FusedStackShape shape;
    shape.batch = static_cast<double>(cfg.batch);
    shape.seq = static_cast<double>(seq);
    shape.d_model = static_cast<double>(cfg.d_model);
    shape.ffn_hidden = static_cast<double>(cfg.ffn_hidden);
    auto traffic_of = [&](const tileseek::TileShape &t) {
        return costmodel::fusedStackTraffic(shape, { t.b, t.p }, w)
                   .total()
            * arch.element_bytes;
    };

    tileseek::MctsOptions opts;
    opts.iterations = 4096;
    opts.threads = threads;
    const auto sought =
        schedule::seekTile(arch, cfg, seq, 0.0, opts);
    const auto naive = schedule::naiveTile(arch, cfg, seq);

    Table t({ "tile source", "tile", "DRAM bytes/layer",
              "stream time" });
    for (const auto &[label, tile] :
         { std::pair<const char *, tileseek::TileShape>{
               "TileSeek (MCTS)", sought },
           { "naive first-fit", naive } }) {
        const double bytes = traffic_of(tile);
        t.addRow({ label, tile.toString(),
                   Table::cell(bytes, 0),
                   formatSeconds(
                       costmodel::dramSeconds(arch, bytes)) });
    }
    t.print(std::cout);

    std::cout << "\nTable 2 budget of the TileSeek tile (words):\n";
    Table b({ "module", "words", "bytes" });
    const struct { const char *name; double words; } rows[] = {
        { "QKV", tileseek::qkvBufferWords(sought) },
        { "MHA", tileseek::mhaBufferWords(sought) },
        { "LayerNorm", tileseek::layerNormBufferWords(sought) },
        { "FFN", tileseek::ffnBufferWords(sought) },
    };
    for (const auto &r : rows) {
        b.addRow({ r.name, Table::cell(r.words, 0),
                   Table::cell(r.words * arch.element_bytes, 0) });
    }
    b.print(std::cout);
    std::cout << "buffer capacity: " << arch.buffer_bytes
              << " bytes; fits: "
              << (tileseek::fitsBuffer(sought, arch) ? "yes" : "NO")
              << "\n";

    // How the searched tile pays off end to end, across the
    // paper's sequence axis -- evaluated in parallel by the sweep
    // driver (results are input-ordered and thread-count
    // independent).
    schedule::SweepOptions sweep_opts;
    sweep_opts.threads = threads;
    sweep_opts.strategies = {
        schedule::StrategyKind::FuseMaxLayerFuse,
        schedule::StrategyKind::TransFusion,
    };
    const schedule::Sweep sweep(sweep_opts);
    const auto metrics = sweep.run(schedule::Sweep::grid(
        { arch }, { cfg }, sim::paperSequenceSweep()));

    std::cout << "\nEnd-to-end latency across sequence lengths ("
              << sweep.threads() << " sweep threads):\n";
    Table s({ "P", "LayerFuse (naive tile)", "TransFusion",
              "speedup" });
    for (const auto &m : metrics) {
        const auto &lf =
            m.at(schedule::StrategyKind::FuseMaxLayerFuse);
        const auto &tf = m.at(schedule::StrategyKind::TransFusion);
        s.addRow({ formatQuantity(m.point.seq),
                   formatSeconds(lf.total.latency_s),
                   formatSeconds(tf.total.latency_s),
                   Table::cell(sim::speedup(lf, tf), 2) + "x" });
    }
    s.print(std::cout);
    return 0;
}
