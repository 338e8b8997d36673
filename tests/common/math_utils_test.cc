/**
 * @file
 * Unit tests for the shared numeric helpers.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/math_utils.hh"

namespace transfusion
{
namespace
{

TEST(CeilDiv, ExactAndInexact)
{
    EXPECT_EQ(ceilDiv(10, 5), 2);
    EXPECT_EQ(ceilDiv(11, 5), 3);
    EXPECT_EQ(ceilDiv(1, 5), 1);
    EXPECT_EQ(ceilDiv(0, 5), 0);
}

TEST(RoundUp, Basics)
{
    EXPECT_EQ(roundUp(10, 4), 12);
    EXPECT_EQ(roundUp(12, 4), 12);
    EXPECT_EQ(roundUp(0, 4), 0);
}

TEST(Divisors, OfTwelve)
{
    EXPECT_EQ(divisorsOf(12),
              (std::vector<std::int64_t>{1, 2, 3, 4, 6, 12}));
}

TEST(Divisors, OfOne)
{
    EXPECT_EQ(divisorsOf(1), (std::vector<std::int64_t>{1}));
}

TEST(LargestDivisorUpTo, IsTheLastDivisorUpTo)
{
    for (const std::int64_t cap : { 0, 1, 2, 7, 16, 64, 100, 256,
                                     4096, 10000 }) {
        for (std::int64_t n = 1; n <= 5000; ++n) {
            ASSERT_EQ(largestDivisorUpTo(n, cap),
                      divisorsUpTo(n, cap).back())
                << "n=" << n << " cap=" << cap;
        }
    }
}

TEST(Divisors, PerfectSquare)
{
    EXPECT_EQ(divisorsOf(36),
              (std::vector<std::int64_t>{1, 2, 3, 4, 6, 9, 12, 18,
                                         36}));
}

TEST(Divisors, SortedAscending)
{
    const auto d = divisorsOf(1 << 20);
    for (std::size_t i = 1; i < d.size(); ++i)
        EXPECT_LT(d[i - 1], d[i]);
    EXPECT_EQ(d.size(), 21u); // 2^0 .. 2^20
}

TEST(Divisors, RejectsNonPositive)
{
    EXPECT_THROW(divisorsOf(0), PanicError);
    EXPECT_THROW(divisorsOf(-4), PanicError);
}

TEST(DivisorsUpTo, CapApplies)
{
    EXPECT_EQ(divisorsUpTo(12, 4),
              (std::vector<std::int64_t>{1, 2, 3, 4}));
}

TEST(DivisorsUpTo, NeverEmpty)
{
    // Even a cap below every divisor yields {1}.
    EXPECT_EQ(divisorsUpTo(7, 0), (std::vector<std::int64_t>{1}));
}

TEST(GeometricMean, KnownValues)
{
    EXPECT_DOUBLE_EQ(geometricMean({4.0, 9.0}), 6.0);
    EXPECT_DOUBLE_EQ(geometricMean({5.0}), 5.0);
    EXPECT_NEAR(geometricMean({1.0, 2.0, 4.0}), 2.0, 1e-12);
}

TEST(GeometricMean, RejectsBadInput)
{
    EXPECT_THROW(geometricMean({}), FatalError);
    EXPECT_THROW(geometricMean({1.0, -1.0}), FatalError);
    EXPECT_THROW(geometricMean({0.0}), FatalError);
}

TEST(FormatQuantity, Suffixes)
{
    EXPECT_EQ(formatQuantity(1024), "1K");
    EXPECT_EQ(formatQuantity(64 << 10), "64K");
    EXPECT_EQ(formatQuantity(1 << 20), "1M");
    EXPECT_EQ(formatQuantity(1 << 30), "1G");
    EXPECT_EQ(formatQuantity(1000), "1000");
    EXPECT_EQ(formatQuantity(1536), "1536"); // not a whole K
}

TEST(FormatSeconds, Ranges)
{
    EXPECT_EQ(formatSeconds(0.0), "0 s");
    EXPECT_EQ(formatSeconds(1.5e-9), "1.5 ns");
    EXPECT_EQ(formatSeconds(2.5e-3), "2.5 ms");
    EXPECT_EQ(formatSeconds(3.0), "3 s");
}

TEST(FormatJoules, Ranges)
{
    EXPECT_EQ(formatJoules(0.0), "0 J");
    EXPECT_EQ(formatJoules(5e-12), "5 pJ");
    EXPECT_EQ(formatJoules(2.0), "2 J");
}

} // namespace
} // namespace transfusion
