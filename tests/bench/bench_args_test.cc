/**
 * @file
 * Unit tests for the shared bench flag parser, focused on the
 * multi-chip flags: --chips/--tp/--pp must accept positive
 * integers (attached or detached form), default to 1, and exit
 * with status 2 -- never crash or silently truncate -- on zero,
 * negative, or trailing-garbage values.
 *
 * parseBenchArgs exits the process on bad input by design (it IS
 * the bench CLI surface), so the rejection paths are death tests.
 */

#include <gtest/gtest.h>

#include "bench_util.hh"

namespace transfusion::bench
{
namespace
{

/** argv helper: parse a null-terminated list of string literals. */
template <std::size_t N>
BenchArgs
parse(const char *(&&argv)[N])
{
    return parseBenchArgs(static_cast<int>(N),
                          const_cast<char **>(argv));
}

TEST(BenchArgs, MultiChipFlagsDefaultToOneChip)
{
    const auto args = parse({ "bench" });
    EXPECT_EQ(args.chips, 1);
    EXPECT_EQ(args.tp, 1);
    EXPECT_EQ(args.pp, 1);
}

TEST(BenchArgs, MultiChipFlagsParseDetachedAndAttachedForms)
{
    const auto detached =
        parse({ "bench", "--chips", "8", "--tp", "4", "--pp", "2" });
    EXPECT_EQ(detached.chips, 8);
    EXPECT_EQ(detached.tp, 4);
    EXPECT_EQ(detached.pp, 2);

    const auto attached =
        parse({ "bench", "--chips=4", "--tp=2", "--pp=2" });
    EXPECT_EQ(attached.chips, 4);
    EXPECT_EQ(attached.tp, 2);
    EXPECT_EQ(attached.pp, 2);
}

TEST(BenchArgsDeathTest, ZeroChipsExitsWithUsageError)
{
    EXPECT_EXIT(parse({ "bench", "--chips", "0" }),
                testing::ExitedWithCode(2),
                "--chips needs a positive integer");
}

TEST(BenchArgsDeathTest, NegativeWidthExitsWithUsageError)
{
    EXPECT_EXIT(parse({ "bench", "--tp", "-2" }),
                testing::ExitedWithCode(2),
                "--tp needs a positive integer");
}

TEST(BenchArgsDeathTest, TrailingGarbageExitsWithUsageError)
{
    // "4x" must not strtol-truncate to 4.
    EXPECT_EXIT(parse({ "bench", "--chips", "4x" }),
                testing::ExitedWithCode(2),
                "--chips needs a positive integer, got '4x'");
    EXPECT_EXIT(parse({ "bench", "--pp=2.5" }),
                testing::ExitedWithCode(2),
                "--pp needs a positive integer");
}

TEST(BenchArgsDeathTest, EmptyAndMissingValuesExit)
{
    EXPECT_EXIT(parse({ "bench", "--chips=" }),
                testing::ExitedWithCode(2),
                "--chips needs a positive integer");
    EXPECT_EXIT(parse({ "bench", "--chips" }),
                testing::ExitedWithCode(2), "--chips needs a value");
}

TEST(BenchArgsDeathTest, AbsurdWidthsAreRejected)
{
    // The parser caps counts at 2^20 -- nobody sweeps a
    // million-chip cluster, but a typo'd "40000000000" would
    // otherwise overflow int.
    EXPECT_EXIT(parse({ "bench", "--chips", "40000000000" }),
                testing::ExitedWithCode(2),
                "--chips needs a positive integer");
}

TEST(BenchArgsDeathTest, Int64OverflowIsRejectedNotWrapped)
{
    // Past INT64_MAX strtoll saturates and sets ERANGE; the parser
    // must report the original text, not a wrapped/saturated value.
    EXPECT_EXIT(
        parse({ "bench", "--chips", "99999999999999999999" }),
        testing::ExitedWithCode(2),
        "--chips needs a positive integer, got "
        "'99999999999999999999'");
    EXPECT_EXIT(parse({ "bench", "--tp=-99999999999999999999" }),
                testing::ExitedWithCode(2),
                "--tp needs a positive integer");
}

TEST(BenchArgs, FaultsFlagAcceptsZero)
{
    // --faults is a count of incidents, and zero (fault-free) is a
    // meaningful baseline -- the only bench flag with min 0.
    EXPECT_EQ(parse({ "bench" }).faults, 1);
    EXPECT_EQ(parse({ "bench", "--faults", "0" }).faults, 0);
    EXPECT_EQ(parse({ "bench", "--faults=3" }).faults, 3);
}

TEST(BenchArgsDeathTest, NegativeFaultsExitsWithUsageError)
{
    EXPECT_EXIT(parse({ "bench", "--faults", "-1" }),
                testing::ExitedWithCode(2),
                "--faults needs a non-negative integer");
}

TEST(BenchArgsDeathTest, UnknownFlagsStillExit)
{
    EXPECT_EXIT(parse({ "bench", "--chipz", "4" }),
                testing::ExitedWithCode(2), "unknown argument");
}

TEST(BenchArgs, ThreadsAndSeedParseBothForms)
{
    const auto defaults = parse({ "bench" });
    EXPECT_EQ(defaults.threads, 0);
    EXPECT_EQ(defaults.seed, 1u);

    const auto detached =
        parse({ "bench", "--threads", "4", "--seed", "42" });
    EXPECT_EQ(detached.threads, 4);
    EXPECT_EQ(detached.seed, 42u);

    // --threads 0 is "all hardware"; the seed spans all of uint64.
    const auto attached = parse(
        { "bench", "--threads=0", "--seed=18446744073709551615" });
    EXPECT_EQ(attached.threads, 0);
    EXPECT_EQ(attached.seed, 18446744073709551615u);
}

TEST(BenchArgsDeathTest, ThreadsRejectsGarbageAndNegatives)
{
    // "4x" must not atoi-truncate to 4, nor "foo" to 0 (= all
    // hardware).
    EXPECT_EXIT(parse({ "bench", "--threads", "4x" }),
                testing::ExitedWithCode(2),
                "--threads needs a non-negative integer, got '4x'");
    EXPECT_EXIT(parse({ "bench", "--threads=foo" }),
                testing::ExitedWithCode(2),
                "--threads needs a non-negative integer, got 'foo'");
    EXPECT_EXIT(parse({ "bench", "--threads", "-2" }),
                testing::ExitedWithCode(2),
                "--threads needs a non-negative integer");
    EXPECT_EXIT(parse({ "bench", "--threads" }),
                testing::ExitedWithCode(2),
                "--threads needs a value");
}

TEST(BenchArgsDeathTest, SeedRejectsSignsGarbageAndOverflow)
{
    // strtoull would wrap "-1" to 2^64-1 and read "1e3" as 1.
    EXPECT_EXIT(parse({ "bench", "--seed", "-1" }),
                testing::ExitedWithCode(2),
                "--seed needs an unsigned integer, got '-1'");
    EXPECT_EXIT(parse({ "bench", "--seed=1e3" }),
                testing::ExitedWithCode(2),
                "--seed needs an unsigned integer, got '1e3'");
    EXPECT_EXIT(parse({ "bench", "--seed", "+7" }),
                testing::ExitedWithCode(2),
                "--seed needs an unsigned integer");
    EXPECT_EXIT(parse({ "bench", "--seed=" }),
                testing::ExitedWithCode(2),
                "--seed needs an unsigned integer");
    // 2^64 is one past the largest seed.
    EXPECT_EXIT(parse({ "bench", "--seed", "18446744073709551616" }),
                testing::ExitedWithCode(2),
                "--seed needs an unsigned integer, got "
                "'18446744073709551616'");
}

TEST(BenchArgs, FleetFlagsDefaultToASingleReplicaRoundRobin)
{
    const auto args = parse({ "bench" });
    EXPECT_EQ(args.replicas, 1);
    EXPECT_EQ(args.policy, fleet::PolicyKind::RoundRobin);
}

TEST(BenchArgs, FleetFlagsParseDetachedAndAttachedForms)
{
    const auto detached =
        parse({ "bench", "--replicas", "8", "--policy",
                "least-outstanding" });
    EXPECT_EQ(detached.replicas, 8);
    EXPECT_EQ(detached.policy, fleet::PolicyKind::LeastOutstanding);

    const auto attached =
        parse({ "bench", "--replicas=4", "--policy=p2c" });
    EXPECT_EQ(attached.replicas, 4);
    EXPECT_EQ(attached.policy, fleet::PolicyKind::PowerOfTwo);
}

TEST(BenchArgsDeathTest, ZeroReplicasExitsWithUsageError)
{
    // A fleet of zero replicas is meaningless: min is 1, like
    // --chips, not 0 like --faults.
    EXPECT_EXIT(parse({ "bench", "--replicas", "0" }),
                testing::ExitedWithCode(2),
                "--replicas needs a positive integer");
    EXPECT_EXIT(parse({ "bench", "--replicas=8x" }),
                testing::ExitedWithCode(2),
                "--replicas needs a positive integer, got '8x'");
}

TEST(BenchArgsDeathTest, UnknownPolicyExitsWithTheSpellingList)
{
    // The error must name the offender and list every accepted
    // spelling — the CLI is the only discovery surface.
    EXPECT_EXIT(parse({ "bench", "--policy", "random" }),
                testing::ExitedWithCode(2),
                "unknown policy 'random' \\(expected one of: "
                ".*round-robin.*\\)");
    EXPECT_EXIT(parse({ "bench", "--policy=" }),
                testing::ExitedWithCode(2), "unknown policy ''");
    EXPECT_EXIT(parse({ "bench", "--policy" }),
                testing::ExitedWithCode(2),
                "--policy needs a value");
}

TEST(BenchArgs, PlannerFlagsDefaultAndParseBothForms)
{
    const auto args = parse({ "bench" });
    EXPECT_DOUBLE_EQ(args.slo_p99_ms, 2000.0);
    EXPECT_EQ(args.budget_chips, 0);

    const auto detached = parse(
        { "bench", "--slo-p99-ms", "350.5", "--budget-chips",
          "16" });
    EXPECT_DOUBLE_EQ(detached.slo_p99_ms, 350.5);
    EXPECT_EQ(detached.budget_chips, 16);

    const auto attached =
        parse({ "bench", "--slo-p99-ms=1e3", "--budget-chips=0" });
    EXPECT_DOUBLE_EQ(attached.slo_p99_ms, 1000.0);
    EXPECT_EQ(attached.budget_chips, 0);
}

TEST(BenchArgsDeathTest, SloBoundRejectsNonPositiveValues)
{
    // An SLO of zero (or negative) milliseconds bounds nothing.
    EXPECT_EXIT(parse({ "bench", "--slo-p99-ms", "0" }),
                testing::ExitedWithCode(2),
                "--slo-p99-ms needs a finite positive number");
    EXPECT_EXIT(parse({ "bench", "--slo-p99-ms=-5" }),
                testing::ExitedWithCode(2),
                "--slo-p99-ms needs a finite positive number, "
                "got '-5'");
}

TEST(BenchArgsDeathTest, SloBoundRejectsGarbageAndNonFinite)
{
    // "2000x" must not strtod-truncate to 2000, and inf/nan are
    // parseable doubles but meaningless latency bounds.
    EXPECT_EXIT(parse({ "bench", "--slo-p99-ms", "2000x" }),
                testing::ExitedWithCode(2),
                "--slo-p99-ms needs a finite positive number, "
                "got '2000x'");
    EXPECT_EXIT(parse({ "bench", "--slo-p99-ms=inf" }),
                testing::ExitedWithCode(2),
                "--slo-p99-ms needs a finite positive number");
    EXPECT_EXIT(parse({ "bench", "--slo-p99-ms=nan" }),
                testing::ExitedWithCode(2),
                "--slo-p99-ms needs a finite positive number");
    EXPECT_EXIT(parse({ "bench", "--slo-p99-ms=" }),
                testing::ExitedWithCode(2),
                "--slo-p99-ms needs a finite positive number");
    EXPECT_EXIT(parse({ "bench", "--slo-p99-ms" }),
                testing::ExitedWithCode(2),
                "--slo-p99-ms needs a value");
}

TEST(BenchArgsDeathTest, ChipBudgetAcceptsZeroButNotGarbage)
{
    // Zero means "unlimited" (like --faults, min 0); anything
    // non-numeric or negative is a usage error.
    EXPECT_EQ(parse({ "bench", "--budget-chips=0" }).budget_chips,
              0);
    EXPECT_EXIT(parse({ "bench", "--budget-chips", "-4" }),
                testing::ExitedWithCode(2),
                "--budget-chips needs a non-negative integer");
    EXPECT_EXIT(parse({ "bench", "--budget-chips", "4x" }),
                testing::ExitedWithCode(2),
                "--budget-chips needs a non-negative integer, "
                "got '4x'");
}

} // namespace
} // namespace transfusion::bench
