/**
 * @file
 * Seeded chaos-invariant sweep: 70 seeds, each with a randomized
 * fault schedule per replica (losses, link degrades, correlated
 * gray-failure slowdowns), swept across routing policies,
 * health/brownout configurations and two thread counts.  The
 * shared harness (bench/chaos_harness.hh) checks invariants 1 and
 * 3-5: conservation, threads-1v4 bit-identity, termination and
 * exact recovery.  This test adds invariant 2: every seed's
 * threads=1 replay (metrics and RunReport) matches its frozen
 * digest in tests/golden/data/replay_digests_chaos.txt.
 * bench/ext_chaos_sweep runs the harness at any seed count.
 *
 * Seeds fan out with parallelMap; gtest assertions are not
 * thread-safe, so workers return failure strings and the main
 * thread asserts the collection is empty.  Own binary under the
 * `chaos` label: heavier than the unit tier, cheap enough for CI.
 * The ctest TIMEOUT property on this binary is the backstop for
 * the termination invariant.
 */

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chaos_harness.hh"
#include "common/parallel_map.hh"
#include "support/replay_digest.hh"

namespace transfusion::chaos
{
namespace
{

constexpr int kSeeds = 70; ///< x3 replica schedules per seed

TEST(Chaos, InvariantsHoldAcrossSeededFaultSchedules)
{
    warmCostTables();

    std::vector<std::uint64_t> seeds;
    for (int s = 1; s <= kSeeds; ++s)
        seeds.push_back(static_cast<std::uint64_t>(s));
    const std::vector<SeedResult> results =
        parallelMap(0, seeds, [](const std::uint64_t &seed) {
            return runSeed(seed);
        });
    std::ostringstream failures;
    std::string digests;
    for (const SeedResult &r : results) {
        if (!r.failure.empty())
            failures << "seed " << r.seed << ": " << r.failure
                     << "\n";
        digests += test::digestLine("seed=" + std::to_string(r.seed),
                                    test::canonicalDigest(r.metrics),
                                    r.report);
    }
    EXPECT_TRUE(failures.str().empty()) << failures.str();
    test::expectMatchesDigests("replay_digests_chaos", digests);
    // The sweep really covered the advertised schedule count.
    EXPECT_GE(kSeeds * kReplicas, 200);
}

} // namespace
} // namespace transfusion::chaos
