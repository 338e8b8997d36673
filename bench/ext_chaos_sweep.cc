/**
 * @file
 * Extension experiment: the chaos-invariant sweep as a standalone
 * driver.  Fans `--schedules` seeds of the shared harness
 * (chaos_harness.hh: seeded chip-loss / link-degrade / slowdown
 * schedules across routing policies and health/brownout
 * configurations) and checks the harness's invariants on every
 * run: 1. conservation, 3. threads-1v4 bit-identity,
 * 4. termination and 5. exact post-recovery spec restore.
 * Invariant 2, the frozen replay digest, is pinned only for the
 * seeds tests/chaos sweeps.
 *
 * The ctest harness pins a fixed seed count for CI; this binary is
 * the dial — crank `--schedules` into the thousands for a soak run,
 * or drop it for a smoke pass (the UBSan tier runs a reduced
 * sweep).  Exit status is the verdict: 0 only if every schedule
 * held every invariant, so it can gate scripts directly.
 *
 * Flags: --schedules N (schedules swept, default 32), --seed
 * offsets the whole sweep, --threads sets the workers that fan
 * seeds out (per-seed replays stay bit-identical regardless).
 */

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "chaos_harness.hh"
#include "common/parallel_map.hh"

using namespace transfusion;

int
main(int argc, char **argv)
{
    const auto args = bench::parseBenchArgs(argc, argv);
    bench::printBanner(
        "Extension: chaos-invariant sweep",
        "Seeded fault schedules x policies; every run must "
        "conserve requests, agree bitwise across thread counts, "
        "terminate, and recover to the exact initial spec");

    chaos::warmCostTables();

    std::vector<std::uint64_t> seeds;
    for (int s = 0; s < args.schedules; ++s)
        seeds.push_back(args.seed
                        + static_cast<std::uint64_t>(s));
    const std::vector<chaos::SeedResult> results =
        parallelMap(args.threads, seeds, [](const std::uint64_t &seed) {
            return chaos::runSeed(seed);
        });

    Table t({ "seed", "policy", "faults", "slowdn", "br.open",
              "sheds", "reroute", "done/offer", "makespan_s",
              "ok" });
    std::int64_t failures = 0;
    for (const chaos::SeedResult &r : results) {
        if (!r.failure.empty())
            failures += 1;
        t.addRow({ std::to_string(r.seed),
                   fleet::toString(r.policy),
                   std::to_string(r.fault_events),
                   std::to_string(r.metrics.slowdown_transitions),
                   std::to_string(r.metrics.breaker_opens),
                   std::to_string(r.metrics.brownout_sheds),
                   std::to_string(r.metrics.failover_reroutes),
                   std::to_string(r.metrics.completed) + "/"
                       + std::to_string(r.metrics.offered),
                   Table::cell(r.metrics.makespan_s),
                   r.failure.empty() ? "yes" : "NO" });
    }
    bench::printTable(t, args, std::cout);

    std::cout << "\nSchedules swept: "
              << results.size() * chaos::kReplicas << " ("
              << results.size() << " seeds x " << chaos::kReplicas
              << " replicas), invariant failures: " << failures
              << "\n";
    for (const chaos::SeedResult &r : results)
        if (!r.failure.empty())
            std::cerr << "seed " << r.seed << ": " << r.failure
                      << "\n";
    return failures == 0 ? 0 : 1;
}
