/**
 * @file
 * Implementation of shared numeric helpers.
 */

#include "math_utils.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "logging.hh"

namespace transfusion
{

std::vector<std::int64_t>
divisorsOf(std::int64_t n)
{
    tf_assert(n > 0, "divisorsOf requires positive n, got ", n);
    std::vector<std::int64_t> low, high;
    for (std::int64_t d = 1; d * d <= n; ++d) {
        if (n % d == 0) {
            low.push_back(d);
            if (d != n / d)
                high.push_back(n / d);
        }
    }
    low.insert(low.end(), high.rbegin(), high.rend());
    return low;
}

std::vector<std::int64_t>
divisorsUpTo(std::int64_t n, std::int64_t cap)
{
    std::vector<std::int64_t> out;
    for (std::int64_t d : divisorsOf(n)) {
        if (d <= cap)
            out.push_back(d);
    }
    if (out.empty())
        out.push_back(1);
    return out;
}

std::int64_t
largestDivisorUpTo(std::int64_t n, std::int64_t cap)
{
    tf_assert(n > 0, "largestDivisorUpTo requires positive n, got ", n);
    std::int64_t best = 1;
    for (std::int64_t d = 1; d * d <= n; ++d) {
        if (n % d != 0)
            continue;
        if (d <= cap)
            best = std::max(best, d);
        if (n / d <= cap)
            best = std::max(best, n / d);
    }
    return best;
}

double
geometricMean(const std::vector<double> &values)
{
    if (values.empty())
        tf_fatal("geometricMean of an empty set");
    double log_sum = 0.0;
    for (double v : values) {
        if (v <= 0.0)
            tf_fatal("geometricMean requires positive values, got ", v);
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

std::string
formatQuantity(std::int64_t value)
{
    static const struct { std::int64_t unit; const char *suffix; }
    scales[] = {
        { std::int64_t{1} << 30, "G" },
        { std::int64_t{1} << 20, "M" },
        { std::int64_t{1} << 10, "K" },
    };
    for (const auto &s : scales) {
        if (value >= s.unit && value % s.unit == 0) {
            std::ostringstream os;
            os << (value / s.unit) << s.suffix;
            return os.str();
        }
    }
    return std::to_string(value);
}

namespace
{

std::string
formatEngineering(double value, const char *const *units, int n_units,
                  double base_scale)
{
    double v = value * base_scale;
    int idx = 0;
    while (idx + 1 < n_units && v >= 1000.0) {
        v /= 1000.0;
        ++idx;
    }
    std::ostringstream os;
    os.precision(v < 10 ? 3 : (v < 100 ? 4 : 5));
    os << v << " " << units[idx];
    return os.str();
}

} // namespace

std::string
formatSeconds(double seconds)
{
    static const char *units[] = { "ns", "us", "ms", "s" };
    if (seconds <= 0)
        return "0 s";
    return formatEngineering(seconds, units, 4, 1e9);
}

std::string
formatJoules(double joules)
{
    static const char *units[] = { "pJ", "nJ", "uJ", "mJ", "J" };
    if (joules <= 0)
        return "0 J";
    return formatEngineering(joules, units, 5, 1e12);
}

} // namespace transfusion
