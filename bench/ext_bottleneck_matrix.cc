/**
 * @file
 * Extension experiment: the memory-vs-compute bound matrix behind
 * the paper's Sec. 6.2 narrative -- per sub-layer, per sequence
 * length, per architecture, under the Unfused baseline and under
 * TransFusion.  Shows fusion converting memory-bound phases into
 * compute-bound ones and the MHA crossover point.
 */

#include <iostream>

#include "bench_util.hh"
#include "common/table.hh"
#include "model/cascades.hh"
#include "schedule/evaluator.hh"
#include "sim/bottleneck.hh"

namespace
{

void
matrixFor(const char *arch_name,
          transfusion::schedule::StrategyKind kind,
          const transfusion::bench::BenchArgs &args)
{
    using namespace transfusion;
    const auto arch = arch::archByName(arch_name);
    const auto cfg = model::llama3_8b();
    schedule::EvaluatorOptions opts;
    opts.mcts.iterations = 1024;

    std::cout << "[" << schedule::toString(kind) << " on "
              << arch.toString() << "]\n";
    Table t({ "seq", "QKV", "MHA", "LayerNorm", "FFN",
              "overall" });
    for (std::int64_t seq : sim::paperSequenceSweep()) {
        schedule::Evaluator eval(arch, cfg, seq, opts);
        const auto report = sim::analyze(eval.evaluate(kind));
        auto cell = [&](model::LayerKind k) {
            return sim::toString(
                report.layers[schedule::layerIndex(k)]);
        };
        t.addRow({ bench::seqLabel(seq),
                   cell(model::LayerKind::Qkv),
                   cell(model::LayerKind::Mha),
                   cell(model::LayerKind::LayerNorm),
                   cell(model::LayerKind::Ffn),
                   sim::toString(report.overall) });
    }
    bench::printTable(t, args, std::cout);
    std::cout << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace transfusion;
    const auto args = bench::parseBenchArgs(argc, argv);
    bench::printBanner(
        "Extension: bottleneck matrix",
        "Memory/compute-bound classification per sub-layer "
        "(Llama3)");
    for (auto kind : { schedule::StrategyKind::Unfused,
                       schedule::StrategyKind::TransFusion }) {
        for (const auto *arch_name : { "cloud", "edge" })
            matrixFor(arch_name, kind, args);
    }
    return 0;
}
