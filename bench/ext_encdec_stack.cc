/**
 * @file
 * Extension experiment (Sec. 3.2 composition claim): a T5-style
 * encoder-decoder stack with causal decoder self-attention and
 * cross-attention over the encoder output, priced end-to-end for
 * every strategy across (src, tgt) shapes.
 */

#include <iostream>

#include "bench_util.hh"
#include "common/math_utils.hh"
#include "common/table.hh"
#include "schedule/stack_evaluator.hh"

int
main(int argc, char **argv)
{
    using namespace transfusion;
    const auto args = bench::parseBenchArgs(argc, argv);
    bench::printBanner(
        "Extension: encoder-decoder",
        "T5-style seq2seq stack (causal self-attention + "
        "cross-attention) under each system");

    const auto stack = model::encoderDecoder(model::t5Small(), 6,
                                             6);
    schedule::EvaluatorOptions opts;
    opts.mcts.iterations = 1024;

    const struct { std::int64_t src, tgt; } points[] = {
        { 4096, 512 },    // long document, short summary
        { 16384, 16384 }, // symmetric translation
        { 1024, 65536 },  // short prompt, long generation
    };

    for (const auto *arch_name : { "cloud", "edge" }) {
        const auto arch = arch::archByName(arch_name);
        std::cout << "[" << arch.toString() << "]\n";

        Table t({ "src", "tgt", "system", "encoder", "dec-self",
                  "dec-cross", "total", "speedup" });
        for (const auto &pt : points) {
            schedule::StackEvaluator eval(arch, stack, pt.src,
                                          pt.tgt, opts);
            const auto base =
                eval.evaluate(schedule::StrategyKind::Unfused);
            for (auto kind : { schedule::StrategyKind::Unfused,
                               schedule::StrategyKind::FuseMax,
                               schedule::StrategyKind::TransFusion
                             }) {
                const auto r = eval.evaluate(kind);
                t.addRow({
                    formatQuantity(pt.src),
                    formatQuantity(pt.tgt),
                    schedule::toString(kind),
                    formatSeconds(r.encoder.latency_s),
                    formatSeconds(r.decoder_self.latency_s),
                    formatSeconds(r.decoder_cross.latency_s),
                    formatSeconds(r.total.latency_s),
                    Table::cell(base.total.latency_s
                                    / r.total.latency_s, 2) + "x",
                });
            }
        }
        bench::printTable(t, args, std::cout);
        std::cout << "\n";
    }
    return 0;
}
