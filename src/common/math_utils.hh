/**
 * @file
 * Small numeric helpers shared across modules: ceiling division,
 * integer divisor enumeration, geometric means, and human-readable
 * quantity formatting.
 */

#ifndef TRANSFUSION_COMMON_MATH_UTILS_HH
#define TRANSFUSION_COMMON_MATH_UTILS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace transfusion
{

/** Ceiling division for non-negative integers; b must be positive. */
constexpr std::int64_t
ceilDiv(std::int64_t a, std::int64_t b)
{
    return (a + b - 1) / b;
}

/** Round a up to the next multiple of b (b positive). */
constexpr std::int64_t
roundUp(std::int64_t a, std::int64_t b)
{
    return ceilDiv(a, b) * b;
}

/** All positive divisors of n, ascending.  n must be positive. */
std::vector<std::int64_t> divisorsOf(std::int64_t n);

/**
 * Divisors of n no larger than cap, ascending.  Used to enumerate
 * legal tile sizes for a dimension under a hardware bound.
 */
std::vector<std::int64_t> divisorsUpTo(std::int64_t n,
                                       std::int64_t cap);

/**
 * The largest divisor of n no larger than cap (1 when none is):
 * divisorsUpTo(n, cap).back() without building the list.
 */
std::int64_t largestDivisorUpTo(std::int64_t n, std::int64_t cap);

/** Geometric mean of positive values; fatal on empty/non-positive. */
double geometricMean(const std::vector<double> &values);

/**
 * Format a count with binary-ish magnitude suffixes used in the
 * paper's axes (1K, 64K, 1M ...).  Exact powers of 1024 render
 * without a fraction.
 */
std::string formatQuantity(std::int64_t value);

/** Format seconds as an engineering string (ns/us/ms/s). */
std::string formatSeconds(double seconds);

/** Format joules as an engineering string (pJ/nJ/uJ/mJ/J). */
std::string formatJoules(double joules);

} // namespace transfusion

#endif // TRANSFUSION_COMMON_MATH_UTILS_HH
