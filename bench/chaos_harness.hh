/**
 * @file
 * The seeded chaos-invariant harness, shared by the CI test
 * (tests/chaos) and the standalone sweep (bench/ext_chaos_sweep).
 *
 * One seed draws a request trace, a routing policy, a health /
 * brownout configuration and a randomized fault schedule per
 * replica (chip losses, link degrades, correlated gray-failure
 * slowdowns), replays it, and checks the invariants:
 *
 *   1. conservation — completed + rejected == offered, fleet-wide
 *      and per replica;
 *   2. frozen digest — the threads=1 replay (metrics and
 *      RunReport) matches its checked-in digest.  runSeed returns
 *      both; tests/chaos computes and compares the digest;
 *   3. thread independence — threads=1 and threads=4 replays are
 *      bitwise identical;
 *   4. termination — every run returns (the caller bounds the
 *      wall time, e.g. with a ctest TIMEOUT);
 *   5. exact recovery — a fault-tolerant server replay whose
 *      schedule was fully applied ends on the exact initial spec.
 *
 * runSeed is a pure function of the seed and reports violations
 * as a string, not as gtest assertions, so callers can fan seeds
 * out with parallelMap.
 */

#ifndef TRANSFUSION_BENCH_CHAOS_HARNESS_HH
#define TRANSFUSION_BENCH_CHAOS_HARNESS_HH

#include <cstdint>
#include <string>

#include "fleet/fleet_sim.hh"

namespace transfusion::chaos
{

/** Replicas per fleet, each with its own fault schedule. */
constexpr int kReplicas = 3;

/** One seed's verdict plus the headline numbers of its replay. */
struct SeedResult
{
    std::uint64_t seed = 0;
    fleet::PolicyKind policy = fleet::PolicyKind::RoundRobin;
    /** Fault events over all replica schedules. */
    std::int64_t fault_events = 0;
    /** The threads=1 replay and its RunReport (invariant 2). */
    fleet::FleetMetrics metrics;
    std::string report;
    /** Every violated invariant; empty = the seed passed. */
    std::string failure;
};

/** Invariants 1 and 3-5 for one seed. */
SeedResult runSeed(std::uint64_t seed);

/** Calibrate the harness's cost tables once, so a parallel seed
 *  fan-out does not race to build them. */
void warmCostTables();

} // namespace transfusion::chaos

#endif // TRANSFUSION_BENCH_CHAOS_HARNESS_HH
