/**
 * @file
 * Seeded chaos-invariant sweep: 70 seeds, each with a randomized
 * fault schedule per replica (losses, link degrades, correlated
 * gray-failure slowdowns), swept across routing policies,
 * health/brownout configurations, both session cores and two
 * thread counts.  The invariants live in the shared harness
 * (bench/chaos_harness.hh); bench/ext_chaos_sweep runs the same
 * harness at any seed count.
 *
 * Seeds fan out over the ThreadPool; gtest assertions are not
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
#include "common/thread_pool.hh"

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
    ThreadPool pool(0);
    const std::vector<SeedResult> results =
        parallelMap(pool, seeds, [](const std::uint64_t &seed) {
            return runSeed(seed);
        });
    std::ostringstream failures;
    for (const SeedResult &r : results)
        if (!r.failure.empty())
            failures << "seed " << r.seed << ": " << r.failure
                     << "\n";
    EXPECT_TRUE(failures.str().empty()) << failures.str();
    // The sweep really covered the advertised schedule count.
    EXPECT_GE(kSeeds * kReplicas, 200);
}

} // namespace
} // namespace transfusion::chaos
