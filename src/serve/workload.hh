/**
 * @file
 * Request-level workload generation for the serving simulator:
 * Poisson arrivals with log-uniform prompt/output lengths, drawn
 * from common/rng.hh so a (options, seed) pair reproduces the same
 * request trace bit-for-bit on any machine and thread count.
 *
 * The shapes mirror the serving traces the generation-inference
 * literature studies: arrival times from a memoryless process, and
 * lengths spanning orders of magnitude (short chat turns to long
 * documents), hence log-uniform rather than uniform.
 */

#ifndef TRANSFUSION_SERVE_WORKLOAD_HH
#define TRANSFUSION_SERVE_WORKLOAD_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace transfusion::serve
{

/** One generation request offered to the serving system. */
struct Request
{
    std::int64_t id = 0;         ///< dense index in arrival order
    double arrival_s = 0;        ///< arrival time (virtual seconds)
    std::int64_t prompt_len = 0; ///< prefill tokens
    std::int64_t output_len = 0; ///< tokens to generate (>= 1)
    /**
     * Scheduling class for degraded-mode triage: higher keeps
     * serving longer.  The serving simulator itself ignores it
     * (admission stays FIFO); the fleet's BrownoutController sheds
     * the lowest classes first under sustained pressure.  The
     * workload generator leaves it 0 — callers classify — so
     * existing (options, seed) traces are unchanged.
     */
    int priority = 0;

    /** Peak KV-cache positions this request ever holds. */
    std::int64_t peakContext() const
    {
        return prompt_len + output_len;
    }

    std::string toString() const;
};

/**
 * The one (arrival, id) order of requests: ties on the arrival
 * clock break by the stable request id, so every re-offer and
 * routing batch sorts the same way on any machine.
 */
inline bool
arrivesBefore(const Request &a, const Request &b)
{
    return a.arrival_s != b.arrival_s ? a.arrival_s < b.arrival_s
                                      : a.id < b.id;
}

/**
 * Fatal unless every request has positive prompt and output
 * lengths and a finite arrival time, and the trace is sorted by
 * arrival time.  `what` names
 * the requests in the message ("bad <what>: ...", "<what>s must be
 * sorted by arrival time").
 */
void validateTrace(std::span<const Request> requests,
                   const char *what);

/** Inclusive log-uniform range for a token-length draw. */
struct LengthRange
{
    std::int64_t lo = 1;
    std::int64_t hi = 1;
};

/** Knobs of one generated request trace. */
struct WorkloadOptions
{
    double arrival_per_s = 4.0;   ///< Poisson arrival rate
    std::int64_t requests = 256;  ///< trace length
    LengthRange prompt{256, 4096};
    LengthRange output{32, 512};

    /** Largest context any request of this trace can reach. */
    std::int64_t maxContext() const
    {
        return prompt.hi + output.hi;
    }

    /** Fatal unless rates/counts/ranges are well-formed. */
    void validate() const;
};

/**
 * Generate `options.requests` requests sorted by arrival time.
 *
 * Determinism: exactly three Rng draws per request (arrival gap,
 * prompt length, output length) in request order, so the trace is
 * a pure function of (options, seed).  Scaling `arrival_per_s`
 * while keeping the seed rescales every arrival gap and leaves all
 * lengths unchanged — the property the load-monotonicity tests and
 * offered-load sweeps rely on.
 */
std::vector<Request> generateWorkload(const WorkloadOptions &options,
                                      std::uint64_t seed);

} // namespace transfusion::serve

#endif // TRANSFUSION_SERVE_WORKLOAD_HH
