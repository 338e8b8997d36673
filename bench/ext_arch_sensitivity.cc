/**
 * @file
 * Extension experiment: architecture sensitivity.  Sweeps the DRAM
 * bandwidth and buffer capacity around the Table 3 presets and
 * reports the TransFusion-over-FuseMax speedup at each point --
 * quantifying how robust the advantage is to the hardware budget
 * (the spirit of the paper's reviewer-prompted Fig. 9 study,
 * extended to the memory system).
 */

#include <iostream>

#include "bench_util.hh"
#include "common/table.hh"
#include "schedule/evaluator.hh"

namespace
{

double
gainAt(const transfusion::arch::ArchConfig &arch,
       const transfusion::model::TransformerConfig &cfg,
       std::int64_t seq)
{
    using namespace transfusion;
    schedule::EvaluatorOptions opts;
    opts.mcts.iterations = 512;
    schedule::Evaluator eval(arch, cfg, seq, opts);
    return eval.evaluate(schedule::StrategyKind::FuseMax)
               .total.latency_s
        / eval.evaluate(schedule::StrategyKind::TransFusion)
              .total.latency_s;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace transfusion;
    const auto args = bench::parseBenchArgs(argc, argv);
    bench::printBanner(
        "Extension: architecture sensitivity",
        "TransFusion-over-FuseMax speedup vs DRAM bandwidth and "
        "buffer capacity (BERT, 16K)");

    const auto cfg = model::bertBase();
    const std::int64_t seq = 16 << 10;

    for (const auto *arch_name : { "cloud", "edge" }) {
        const auto base = arch::archByName(arch_name);
        std::cout << "[" << base.toString() << "]\n";

        Table bw({ "DRAM BW scale", "BW (GB/s)",
                   "TransFusion/FuseMax" });
        for (double scale : { 0.25, 0.5, 1.0, 2.0, 4.0 }) {
            auto a = base;
            a.dram_bytes_per_sec *= scale;
            bw.addRow({ Table::cell(scale, 2),
                        Table::cell(a.dram_bytes_per_sec / 1e9, 0),
                        Table::cell(gainAt(a, cfg, seq), 2)
                            + "x" });
        }
        bench::printTable(bw, args, std::cout);
        std::cout << "\n";

        Table buf({ "buffer scale", "buffer (MB)",
                    "TransFusion/FuseMax" });
        for (double scale : { 0.5, 1.0, 2.0, 4.0 }) {
            auto a = base;
            a.buffer_bytes = static_cast<std::int64_t>(
                static_cast<double>(a.buffer_bytes) * scale);
            buf.addRow({ Table::cell(scale, 2),
                         Table::cell(static_cast<double>(
                                         a.buffer_bytes)
                                         / (1 << 20), 1),
                         Table::cell(gainAt(a, cfg, seq), 2)
                             + "x" });
        }
        bench::printTable(buf, args, std::cout);
        std::cout << "\n";
    }
    return 0;
}
