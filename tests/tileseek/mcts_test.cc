/**
 * @file
 * Unit tests for the TileSeek MCTS: determinism, constraint
 * respect, optimality on exhaustively searchable spaces, and
 * behaviour on degenerate spaces.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "tileseek/mcts.hh"

namespace transfusion::tileseek
{
namespace
{

/** Three-level toy space with product values 1..5 per level. */
SearchSpace
toySpace()
{
    SearchSpace s;
    s.level_names = { "a", "b", "c" };
    s.choices = {
        { 1, 2, 3, 4, 5 },
        { 1, 2, 3, 4, 5 },
        { 1, 2, 3, 4, 5 },
    };
    return s;
}

TEST(ExhaustiveSearch, FindsGlobalOptimum)
{
    // cost = (a-3)^2 + (b-1)^2 + (c-5)^2, optimum (3,1,5).
    auto cost = [](const Assignment &x) {
        return std::pow(static_cast<double>(x[0]) - 3, 2)
            + std::pow(static_cast<double>(x[1]) - 1, 2)
            + std::pow(static_cast<double>(x[2]) - 5, 2);
    };
    auto feasible = [](const Assignment &) { return true; };
    const auto r = exhaustiveSearch(toySpace(), feasible, cost);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.best, (Assignment{ 3, 1, 5 }));
    EXPECT_DOUBLE_EQ(r.best_cost, 0.0);
    EXPECT_EQ(r.evaluations, 125);
}

TEST(ExhaustiveSearch, RespectsFeasibility)
{
    auto cost = [](const Assignment &x) {
        return static_cast<double>(x[0] + x[1] + x[2]);
    };
    // Only odd sums allowed.
    auto feasible = [](const Assignment &x) {
        return (x[0] + x[1] + x[2]) % 2 == 1;
    };
    const auto r = exhaustiveSearch(toySpace(), feasible, cost);
    ASSERT_TRUE(r.found);
    EXPECT_EQ((r.best[0] + r.best[1] + r.best[2]) % 2, 1);
    EXPECT_DOUBLE_EQ(r.best_cost, 3.0); // 1+1+1
}

TEST(ExhaustiveSearch, NothingFeasible)
{
    auto r = exhaustiveSearch(
        toySpace(), [](const Assignment &) { return false; },
        [](const Assignment &) { return 0.0; });
    EXPECT_FALSE(r.found);
    EXPECT_EQ(r.evaluations, 0);
}

TEST(ExhaustiveSearch, CapIsFatal)
{
    EXPECT_THROW(
        exhaustiveSearch(
            toySpace(), [](const Assignment &) { return true; },
            [](const Assignment &) { return 0.0; }, 10.0),
        FatalError);
}

/**
 * A 4x4 space whose only real cost is at (8,8); every other leaf
 * signals infeasibility through the CostFn contract (+inf, -1, NaN
 * or -inf by its first level), and the first leaf an MCTS visits
 * costs +inf.
 */
SearchSpace
signalledSpace()
{
    SearchSpace s;
    s.level_names = { "a", "b" };
    s.choices = { { 1, 2, 4, 8 }, { 1, 2, 4, 8 } };
    return s;
}

double
signalledCost(const Assignment &x)
{
    if (x[0] == 8 && x[1] == 8)
        return 5.0;
    switch (x[0]) {
      case 1: return std::numeric_limits<double>::infinity();
      case 2: return -1.0;
      case 4: return std::numeric_limits<double>::quiet_NaN();
      default: return -std::numeric_limits<double>::infinity();
    }
}

TEST(ExhaustiveSearch, NegativeOrNonFiniteCostIsInfeasible)
{
    const auto r = exhaustiveSearch(
        signalledSpace(), [](const Assignment &) { return true; },
        signalledCost);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.best, (Assignment{ 8, 8 }));
    EXPECT_DOUBLE_EQ(r.best_cost, 5.0);
    EXPECT_EQ(r.evaluations, 1);
    EXPECT_EQ(r.infeasible, 15);
    EXPECT_EQ(r.best_updates, 1);
}

TEST(Mcts, FindsOptimumOnSeparableObjective)
{
    auto cost = [](const Assignment &x) {
        return std::pow(static_cast<double>(x[0]) - 3, 2)
            + std::pow(static_cast<double>(x[1]) - 1, 2)
            + std::pow(static_cast<double>(x[2]) - 5, 2);
    };
    auto feasible = [](const Assignment &) { return true; };
    MctsOptions opts;
    opts.iterations = 600; // > 125 leaves: must find the optimum
    TileSeek seeker(toySpace(), feasible, cost, opts);
    const auto r = seeker.search();
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.best, (Assignment{ 3, 1, 5 }));
    EXPECT_GT(seeker.nodesExpanded(), 0);
}

TEST(Mcts, MatchesExhaustiveOnConstrainedSpace)
{
    // Feasible region: product of levels <= 12; maximize product
    // (cost = -product ... costs must be positive for the reward
    // shaping, so use 100 - product).
    auto cost = [](const Assignment &x) {
        return 100.0 - static_cast<double>(x[0] * x[1] * x[2]);
    };
    auto feasible = [](const Assignment &x) {
        return x[0] * x[1] * x[2] <= 12;
    };
    const auto truth =
        exhaustiveSearch(toySpace(), feasible, cost);
    MctsOptions opts;
    opts.iterations = 1000;
    const auto r =
        TileSeek(toySpace(), feasible, cost, opts).search();
    ASSERT_TRUE(r.found);
    EXPECT_DOUBLE_EQ(r.best_cost, truth.best_cost);
    EXPECT_LE(r.best[0] * r.best[1] * r.best[2], 12);
}

TEST(Mcts, DeterministicUnderFixedSeed)
{
    auto cost = [](const Assignment &x) {
        return static_cast<double>(
            (x[0] * 7 + x[1] * 13 + x[2] * 29) % 11) + 1.0;
    };
    auto feasible = [](const Assignment &) { return true; };
    MctsOptions opts;
    opts.iterations = 100;
    opts.seed = 77;
    const auto a = TileSeek(toySpace(), feasible, cost, opts)
                       .search();
    const auto b = TileSeek(toySpace(), feasible, cost, opts)
                       .search();
    EXPECT_EQ(a.best, b.best);
    EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST(Mcts, SeedChangesExploration)
{
    // Different seeds may visit different numbers of feasible
    // leaves (not necessarily different incumbents).
    auto cost = [](const Assignment &x) {
        return static_cast<double>(x[0] + x[1] + x[2]);
    };
    auto feasible = [](const Assignment &x) {
        return (x[0] + x[1]) % 2 == 0;
    };
    MctsOptions a_opts;
    a_opts.iterations = 50;
    a_opts.seed = 1;
    MctsOptions b_opts = a_opts;
    b_opts.seed = 999;
    const auto a = TileSeek(toySpace(), feasible, cost, a_opts)
                       .search();
    const auto b = TileSeek(toySpace(), feasible, cost, b_opts)
                       .search();
    // Both must respect feasibility and find something.
    ASSERT_TRUE(a.found);
    ASSERT_TRUE(b.found);
    EXPECT_EQ((a.best[0] + a.best[1]) % 2, 0);
    EXPECT_EQ((b.best[0] + b.best[1]) % 2, 0);
}

TEST(Mcts, InfeasibleSpaceReturnsNotFound)
{
    MctsOptions opts;
    opts.iterations = 64;
    const auto r = TileSeek(
        toySpace(), [](const Assignment &) { return false; },
        [](const Assignment &) { return 1.0; }, opts).search();
    EXPECT_FALSE(r.found);
    // Infeasible rollouts still consumed the evaluation budget:
    // one completed leaf per iteration.
    EXPECT_EQ(r.evaluations, 64);
}

TEST(Mcts, EvaluationsCountEveryCompletedLeaf)
{
    // Feasible or not, each iteration completes exactly one leaf.
    auto cost = [](const Assignment &x) {
        return static_cast<double>(x[0] + x[1] + x[2]);
    };
    auto feasible = [](const Assignment &x) {
        return (x[0] + x[1] + x[2]) % 2 == 1;
    };
    MctsOptions opts;
    opts.iterations = 200;
    const auto r =
        TileSeek(toySpace(), feasible, cost, opts).search();
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.evaluations, 200);
}

TEST(Mcts, NegativeOrNonFiniteCostIsInfeasible)
{
    MctsOptions opts;
    opts.iterations = 200;
    const auto r = TileSeek(signalledSpace(),
                            [](const Assignment &) { return true; },
                            signalledCost, opts).search();
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.best, (Assignment{ 8, 8 }));
    EXPECT_DOUBLE_EQ(r.best_cost, 5.0);
    // The incumbent moved once, to the only real cost; every other
    // leaf earned zero reward, so an infinite first cost neither
    // became the reward scale nor turned later rewards into NaN.
    EXPECT_EQ(r.best_updates, 1);
    EXPECT_EQ(r.evaluations, 200);
    EXPECT_GT(r.infeasible, 0);
    EXPECT_LT(r.infeasible, r.evaluations);
}

TEST(Mcts, SearchIsIdempotentOnOneInstance)
{
    auto cost = [](const Assignment &x) {
        return static_cast<double>(
            (x[0] * 5 + x[1] * 3 + x[2]) % 13) + 1.0;
    };
    auto feasible = [](const Assignment &) { return true; };
    MctsOptions opts;
    opts.iterations = 150;
    opts.seed = 31;
    TileSeek seeker(toySpace(), feasible, cost, opts);
    const auto a = seeker.search();
    const auto b = seeker.search();
    EXPECT_EQ(a.best, b.best);
    EXPECT_EQ(a.best_cost, b.best_cost);
    EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST(Mcts, RootParallelDeterministicPerThreadCount)
{
    auto cost = [](const Assignment &x) {
        return static_cast<double>(
            (x[0] * 7 + x[1] * 13 + x[2] * 29) % 17) + 1.0;
    };
    auto feasible = [](const Assignment &x) {
        return (x[0] + x[2]) % 2 == 0;
    };
    for (const int threads : { 1, 2, 8 }) {
        MctsOptions opts;
        opts.iterations = 120;
        opts.seed = 99;
        opts.threads = threads;
        const auto a =
            TileSeek(toySpace(), feasible, cost, opts).search();
        const auto b =
            TileSeek(toySpace(), feasible, cost, opts).search();
        ASSERT_TRUE(a.found) << "threads=" << threads;
        EXPECT_EQ(a.best, b.best) << "threads=" << threads;
        EXPECT_EQ(a.best_cost, b.best_cost)
            << "threads=" << threads;
        EXPECT_EQ(a.evaluations, b.evaluations)
            << "threads=" << threads;
        // Every tree runs the full budget and every leaf counts.
        EXPECT_EQ(a.evaluations,
                  static_cast<std::int64_t>(threads)
                      * opts.iterations);
    }
}

TEST(Mcts, RootParallelNeverWorseThanSerial)
{
    // Tree 0 forks from seed + 0, i.e. it *is* the serial search;
    // merging more trees by best cost can only improve the
    // incumbent or tie it.
    auto cost = [](const Assignment &x) {
        return static_cast<double>(
            (x[0] * 11 + x[1] * 5 + x[2] * 3) % 23) + 1.0;
    };
    auto feasible = [](const Assignment &x) {
        return x[0] != x[1];
    };
    MctsOptions serial_opts;
    serial_opts.iterations = 80;
    serial_opts.seed = 7;
    const auto serial =
        TileSeek(toySpace(), feasible, cost, serial_opts).search();
    ASSERT_TRUE(serial.found);
    for (const int threads : { 2, 4, 8 }) {
        MctsOptions opts = serial_opts;
        opts.threads = threads;
        const auto merged =
            TileSeek(toySpace(), feasible, cost, opts).search();
        ASSERT_TRUE(merged.found);
        EXPECT_LE(merged.best_cost, serial.best_cost)
            << "threads=" << threads;
    }
}

TEST(Mcts, RejectsNonPositiveThreads)
{
    MctsOptions opts;
    opts.threads = 0;
    EXPECT_THROW(TileSeek(toySpace(),
                          [](const Assignment &) { return true; },
                          [](const Assignment &) { return 1.0; },
                          opts),
                 FatalError);
}

TEST(Mcts, SingleLeafSpace)
{
    SearchSpace s;
    s.level_names = { "only" };
    s.choices = { { 42 } };
    MctsOptions opts;
    opts.iterations = 8;
    const auto r = TileSeek(
        s, [](const Assignment &) { return true; },
        [](const Assignment &) { return 5.0; }, opts).search();
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.best, (Assignment{ 42 }));
    EXPECT_DOUBLE_EQ(r.best_cost, 5.0);
}

TEST(Mcts, RejectsBadConfiguration)
{
    SearchSpace s = toySpace();
    MctsOptions opts;
    opts.iterations = 0;
    EXPECT_THROW(TileSeek(s, [](const Assignment &) { return true; },
                          [](const Assignment &) { return 1.0; },
                          opts),
                 FatalError);
    SearchSpace bad;
    EXPECT_THROW(TileSeek(bad,
                          [](const Assignment &) { return true; },
                          [](const Assignment &) { return 1.0; }),
                 FatalError);
}

TEST(SearchSpace, LeafCountAndValidation)
{
    const SearchSpace s = toySpace();
    EXPECT_DOUBLE_EQ(s.leafCount(), 125.0);
    SearchSpace bad;
    bad.level_names = { "x" };
    bad.choices = { {} };
    EXPECT_THROW(bad.validate(), FatalError);
    bad.choices = { { 0 } };
    EXPECT_THROW(bad.validate(), FatalError);
}

} // namespace
} // namespace transfusion::tileseek
