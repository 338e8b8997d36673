/**
 * @file
 * Implementation of the request-trace generator.
 */

#include "workload.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.hh"
#include "common/rng.hh"

namespace transfusion::serve
{

namespace
{

/** Log-uniform integer in [r.lo, r.hi] (inclusive). */
std::int64_t
logUniform(Rng &rng, const LengthRange &r)
{
    if (r.lo == r.hi)
        return r.lo;
    const double lo = std::log(static_cast<double>(r.lo));
    const double hi = std::log(static_cast<double>(r.hi) + 1.0);
    const auto v = static_cast<std::int64_t>(
        std::exp(rng.nextDouble(lo, hi)));
    return std::clamp(v, r.lo, r.hi);
}

void
validateRange(const char *what, const LengthRange &r)
{
    if (r.lo <= 0 || r.hi < r.lo)
        tf_fatal(what, " length range [", r.lo, ", ", r.hi,
                 "] must satisfy 0 < lo <= hi");
}

} // namespace

std::string
Request::toString() const
{
    std::ostringstream os;
    os << "req#" << id << " @" << arrival_s << "s prompt="
       << prompt_len << " output=" << output_len;
    if (priority != 0)
        os << " prio=" << priority;
    return os.str();
}

void
validateTrace(std::span<const Request> requests, const char *what)
{
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const Request &r = requests[i];
        // A NaN arrival would fail every ordering test below and
        // stall the idle jump; +inf would never be pulled.
        if (r.prompt_len <= 0 || r.output_len <= 0
            || !std::isfinite(r.arrival_s))
            tf_fatal("bad ", what, ": ", r.toString());
        if (i > 0 && r.arrival_s < requests[i - 1].arrival_s)
            tf_fatal(what, "s must be sorted by arrival time");
    }
}

void
WorkloadOptions::validate() const
{
    if (arrival_per_s <= 0)
        tf_fatal("arrival rate must be positive, got ",
                 arrival_per_s);
    if (requests <= 0)
        tf_fatal("request count must be positive, got ", requests);
    validateRange("prompt", prompt);
    validateRange("output", output);
}

std::vector<Request>
generateWorkload(const WorkloadOptions &options, std::uint64_t seed)
{
    options.validate();
    Rng rng(seed);
    std::vector<Request> out;
    out.reserve(static_cast<std::size_t>(options.requests));
    double t = 0;
    for (std::int64_t i = 0; i < options.requests; ++i) {
        // Exponential inter-arrival gap; nextDouble() < 1 keeps the
        // log argument strictly positive.
        const double u = rng.nextDouble();
        t += -std::log(1.0 - u) / options.arrival_per_s;
        Request r;
        r.id = i;
        r.arrival_s = t;
        r.prompt_len = logUniform(rng, options.prompt);
        r.output_len = logUniform(rng, options.output);
        out.push_back(r);
    }
    return out;
}

} // namespace transfusion::serve
