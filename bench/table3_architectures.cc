/**
 * @file
 * Table 3: architecture specifications used in the evaluation,
 * printed from the presets so the harness and the paper stay in
 * sync.
 */

#include <iostream>

#include "arch/arch.hh"
#include "bench_util.hh"
#include "common/table.hh"

int
main(int argc, char **argv)
{
    using namespace transfusion;
    const auto args = bench::parseBenchArgs(argc, argv);
    bench::printBanner("Table 3",
                       "Architecture specifications in evaluation");

    Table t({ "name", "2D PE size", "1D PE size", "on-chip mem",
              "DRAM BW", "clock" });
    for (const auto *name : { "cloud", "edge", "edge32",
                              "edge64" }) {
        const auto a = arch::archByName(name);
        t.addRow({
            a.name,
            std::to_string(a.pe2d.rows) + "x"
                + std::to_string(a.pe2d.cols),
            std::to_string(a.pe1d),
            std::to_string(a.buffer_bytes >> 20) + "MB",
            Table::cell(a.dram_bytes_per_sec / 1e9, 0) + "GB/s",
            Table::cell(a.clock_hz / 1e6, 0) + "MHz",
        });
    }
    bench::printTable(t, args, std::cout);
    return 0;
}
