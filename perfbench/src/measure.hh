/**
 * @file
 * The benchmark's two clocks, and the percentile it summarizes with.
 *
 * Jobs are timed in CPU time of the whole process (every thread),
 * which excludes the time the hypervisor steals from a virtual
 * machine's vCPUs: on a shared host, steal comes and goes in phases
 * of minutes and moves wall time by up to half, while it leaves CPU
 * time alone.  For a job that fans out onto several threads, CPU
 * time is the work of all of them: it does not count a thread
 * blocked on a lock, so it hides both a loss from contention and a
 * gain from running in parallel (README.md, "Clock").  Wall time
 * bounds how long a run lasts and times the program's own spans.
 */

#ifndef PERFBENCH_MEASURE_HH
#define PERFBENCH_MEASURE_HH

#include <time.h>

#include <chrono>
#include <vector>

#include "common/histogram.hh"

namespace perfbench
{

/** Monotonic wall clock, in seconds. */
inline double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** CPU time consumed so far by all threads of the process. */
inline double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec)
        + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/** The p-th percentile of `v` (the repository's Histogram rule);
 *  0 when `v` is empty. */
inline double
percentile(const std::vector<double> &v, double p)
{
    transfusion::Histogram h;
    for (const double x : v)
        h.add(x);
    return h.percentileOr(p, 0);
}

} // namespace perfbench

#endif // PERFBENCH_MEASURE_HH
