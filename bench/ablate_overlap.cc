/**
 * @file
 * Ablation (DESIGN.md): DRAM/compute overlap.  Disabling double
 * buffering serializes every phase; this bench quantifies how much
 * of each strategy's latency the overlap hides, per architecture.
 */

#include <iostream>

#include "bench_util.hh"
#include "common/table.hh"

int
main(int argc, char **argv)
{
    using namespace transfusion;
    const auto args = bench::parseBenchArgs(argc, argv);
    bench::printBanner(
        "Ablation: DRAM overlap",
        "Latency inflation when DRAM streaming cannot overlap "
        "compute (BERT, 16K)");

    const std::int64_t seq = 16 << 10;
    const auto cfg = model::bertBase();

    Table t({ "arch", "system", "overlapped", "serialized",
              "inflation" });
    for (const auto *arch_name : { "cloud", "edge" }) {
        const auto arch = arch::archByName(arch_name);
        schedule::EvaluatorOptions on;
        on.mcts.iterations = 1024;
        schedule::EvaluatorOptions off = on;
        off.overlap_dram = false;

        schedule::Evaluator with(arch, cfg, seq, on);
        schedule::Evaluator without(arch, cfg, seq, off);
        for (auto kind : schedule::allStrategies()) {
            const double a = with.evaluate(kind).total.latency_s;
            const double b =
                without.evaluate(kind).total.latency_s;
            t.addRow({ arch.name, schedule::toString(kind),
                       Table::cell(a, 2) + " s",
                       Table::cell(b, 2) + " s",
                       Table::cell(b / a, 3) + "x" });
        }
    }
    bench::printTable(t, args, std::cout);
    return 0;
}
