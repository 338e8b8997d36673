/**
 * @file
 * perfbench: the repository's end-to-end benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * Sets the workload up, then runs its jobs back to back, one at a
 * time, for S seconds (and at least kMinJobs jobs), checking every
 * job's outputs against the reference computed in set-up.  The
 * set-up is redone at evenly spaced points of the run; setup_s is
 * the median.  With --trace 0 the result carries
 * the end-to-end metrics; with --trace 1 every other job is traced,
 * a per-layer table is printed and the result carries the per-layer
 * metrics.  The last line of standard output is the result, one
 * JSON object.  README.md describes the workloads and metrics.
 */

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "measure.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "workloads.hh"

namespace
{

using namespace perfbench;
namespace obs = transfusion::obs;

/** Set-ups per run, spread over it; setup_s is their median. */
constexpr std::size_t kSetups = 7;
/** Fewest jobs per run, so job_p90_ms has ten jobs beyond it. */
constexpr std::size_t kMinJobs = 100;
/** Fewest jobs in a traced run (half of them traced). */
constexpr std::size_t kMinTracedJobs = 20;
/** Length of a short owner run that measures another layer: long
 *  enough for the sweep owner to cover its whole grid a few times. */
constexpr double kOwnerSeconds = 2.0;
constexpr std::size_t kOwnerJobs = 6;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    int seconds = 10;
    bool trace = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1\n  workloads:";
    for (const std::string &w : workloadNames())
        std::cerr << " " << w;
    std::cerr << "\n";
    std::exit(2);
}

long long
parseInt(const std::string &flag, const std::string &value,
         long long lo, long long hi)
{
    char *end = nullptr;
    errno = 0;
    const long long v = std::strtoll(value.c_str(), &end, 10);
    if (value.empty() || *end != '\0' || errno == ERANGE || v < lo
        || v > hi)
        usage(flag + " needs an integer in [" + std::to_string(lo)
              + ", " + std::to_string(hi) + "], got '" + value + "'");
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        const std::string value = argv[++i];
        if (flag == "--workload") {
            a.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            a.seed = static_cast<std::uint64_t>(
                parseInt(flag, value, 0, (1LL << 62)));
        } else if (flag == "--seconds") {
            a.seconds = static_cast<int>(parseInt(flag, value, 1, 3600));
        } else if (flag == "--trace") {
            a.trace = parseInt(flag, value, 0, 1) == 1;
        } else {
            usage("unknown flag '" + flag + "'");
        }
    }
    if (!have_workload)
        usage("--workload is required");
    return a;
}

/**
 * Peak resident memory of this process image, from VmHWM.  (The
 * getrusage maximum would carry over the peak of the process that
 * exec'd this one, e.g. run.py.)
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

/** Jobs attempted and failed, with the first few failures kept. */
struct Outcome
{
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::int64_t items = 0;
    std::vector<std::string> errors;

    void
    fail(const std::string &what)
    {
        failed += 1;
        if (errors.size() < 5)
            errors.push_back(what);
    }
};

/** The result of one job: its times and, when traced, its spans. */
struct JobRun
{
    double wall_s = 0;
    double cpu_s = 0;
    JobLayers layers;
    obs::RegistrySnapshot counters;
};

/**
 * Run job `i` of `w`: untimed prepare, the timed run (under a fresh
 * registry, and traced when asked), then the output check.
 */
JobRun
runJob(Workload &w, std::size_t i, bool traced, Outcome &outcome)
{
    JobRun job;
    outcome.attempted += 1;
    try {
        w.prepare(i);
        obs::Registry registry;
        if (traced)
            obs::TraceSession::global().start();
        {
            obs::ScopedRegistry scope(registry);
            std::optional<obs::SpanGuard> root;
            if (traced)
                root.emplace(kJobSpan);
            const double c0 = cpuSeconds();
            const double t0 = wallSeconds();
            w.run(i);
            job.wall_s = wallSeconds() - t0;
            job.cpu_s = cpuSeconds() - c0;
        }
        if (traced) {
            obs::TraceSession::global().stop();
            job.layers =
                attributeJob(obs::TraceSession::global().events());
        }
        job.counters = registry.snapshot();
        outcome.items += w.check(i);
    } catch (const std::exception &e) {
        obs::TraceSession::global().stop();
        outcome.fail("job " + std::to_string(i) + ": " + e.what());
    }
    return job;
}

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    return buf;
}

/** Metric name -> (value, unit), in print order. */
using MetricList =
    std::vector<std::pair<std::string, std::pair<double, std::string>>>;

void
printResult(const Outcome &o, const MetricList &metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (o.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << std::max<std::int64_t>(o.attempted, 1)
       << ", \"failed\": " << o.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        os << (i ? ", " : "") << "\"" << metrics[i].first
           << "\": {\"value\": " << number(metrics[i].second.first)
           << ", \"unit\": \"" << metrics[i].second.second << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

/**
 * Set `w` up, timed in CPU time (every set-up runs on one thread).
 * Throws CheckFailure when the reference outputs differ from those
 * of the run's first set-up.
 */
double
timedSetup(Workload &w, std::uint64_t seed,
           std::optional<std::uint64_t> &first_digest)
{
    const double t0 = cpuSeconds();
    w.setup(seed);
    const double dt = cpuSeconds() - t0;
    if (!first_digest)
        first_digest = w.digest();
    else if (w.digest() != *first_digest)
        throw CheckFailure("a repeated set-up computed other reference "
                           "outputs than the first");
    return dt;
}

/** Untraced run: the end-to-end metrics. */
MetricList
measure(Workload &w, const Args &args, Outcome &outcome)
{
    std::optional<std::uint64_t> digest;
    std::vector<double> setups{ timedSetup(w, args.seed, digest) };

    std::vector<double> jobs, walls;
    double busy = 0;
    const double start = wallSeconds();
    for (std::size_t i = 0; i < kMinJobs || setups.size() < kSetups
         || wallSeconds() - start < args.seconds;
         ++i) {
        // Redo the set-up at evenly spaced points of the run, so that
        // setup_s, like the job times, is a median over the whole run
        // and not the host's speed of one moment.
        if (setups.size() < kSetups
            && wallSeconds() - start
                >= args.seconds * static_cast<double>(setups.size())
                    / static_cast<double>(kSetups))
            setups.push_back(timedSetup(w, args.seed, digest));
        const JobRun job = runJob(w, i, false, outcome);
        jobs.push_back(job.cpu_s);
        walls.push_back(job.wall_s);
        busy += job.cpu_s;
    }
    const double elapsed = wallSeconds() - start;

    std::cout << "setup_s samples:";
    for (const double s : setups)
        std::cout << " " << number(s);
    std::cout << "\njobs: " << jobs.size() << " in " << number(elapsed)
              << " s wall, " << number(busy)
              << " s CPU in jobs; job_p90_ms has "
              << jobs.size() - static_cast<std::size_t>(
                     0.9 * static_cast<double>(jobs.size()))
              << " jobs above it; median job wall time "
              << number(percentile(walls, 50) * 1e3) << " ms\n"
              // Printed, not reported: the host's speed phases make
              // the median swing more than a bound allows (README.md).
              << "job_p50_ms " << number(percentile(jobs, 50) * 1e3)
              << " ms\n";
    return {
        { "setup_s", { percentile(setups, 50), "s" } },
        { "job_p90_ms", { percentile(jobs, 90) * 1e3, "ms" } },
        { "items_per_s",
          { static_cast<double>(outcome.items) / busy, "1/s" } },
        { "peak_rss_mb", { peakRssMb(), "MB" } },
    };
}

/**
 * Jobs of a traced run: even jobs traced, odd jobs not, so the
 * tracing overhead is measured on interleaved jobs.
 */
void
tracedJobs(Workload &w, std::size_t min_jobs, double seconds,
           Outcome &outcome, Samples &samples, LayerTable *table,
           std::vector<double> *traced_s, std::vector<double> *plain_s)
{
    const double start = wallSeconds();
    for (std::size_t i = 0;
         i < min_jobs || wallSeconds() - start < seconds; ++i) {
        const bool traced = i % 2 == 0;
        const std::int64_t failed = outcome.failed;
        const JobRun job = runJob(w, i, traced, outcome);
        if (outcome.failed != failed)
            continue;
        if (traced && table != nullptr)
            table->add(job.layers);
        (traced ? traced_s : plain_s)->push_back(job.cpu_s);
        TracedJob tj;
        tj.index = i;
        tj.wall_s = job.wall_s;
        tj.cpu_s = job.cpu_s;
        tj.traced = traced;
        tj.layers = &job.layers;
        tj.counters = &job.counters;
        w.sampleJob(tj, samples);
    }
}

double
summarize(const std::vector<double> &v, Summary s)
{
    if (s == Summary::Median)
        return percentile(v, 50);
    double sum = 0;
    for (const double x : v)
        sum += x;
    return sum / static_cast<double>(v.size());
}

/** Traced run: the per-layer table and metrics. */
MetricList
traceLayers(Workload &w, const Args &args, Outcome &outcome)
{
    w.setup(args.seed);
    Samples samples;
    LayerTable table;
    std::vector<double> traced_s, plain_s;
    tracedJobs(w, kMinTracedJobs, args.seconds, outcome, samples, &table,
               &traced_s, &plain_s);
    w.probe(samples);
    samples["trace.overhead_ms"].push_back(
        (percentile(traced_s, 50) - percentile(plain_s, 50)) * 1e3);
    samples["layers.attributed_frac"].push_back(table.attributedFrac());

    std::cout << "per-layer table (" << traced_s.size()
              << " traced jobs; self = wall time attributed)\n";
    table.print(std::cout);

    // Layers this workload does not own are measured by a short
    // traced run of the workload that does.
    std::set<std::string> owners;
    for (const LayerMetric &m : layerMetrics()) {
        if (m.owner != nullptr && m.owner != args.workload)
            owners.insert(m.owner);
    }
    for (const std::string &owner : owners) {
        const auto o = makeWorkload(owner);
        o->setup(args.seed);
        Samples owned;
        std::vector<double> unused_traced, unused_plain;
        tracedJobs(*o, kOwnerJobs, kOwnerSeconds, outcome, owned, nullptr,
                   &unused_traced, &unused_plain);
        o->probe(owned);
        for (const LayerMetric &m : layerMetrics()) {
            if (m.owner != nullptr && m.owner == owner)
                samples[m.name] = owned[m.name];
        }
    }

    MetricList out;
    for (const LayerMetric &m : layerMetrics()) {
        const std::vector<double> &v = samples[m.name];
        if (v.empty())
            throw std::runtime_error(std::string("no samples for ")
                                     + m.name);
        out.push_back({ m.name, { summarize(v, m.summary), m.unit } });
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const auto workload = makeWorkload(args.workload);
    if (!workload)
        usage("unknown workload '" + args.workload + "'");

    std::cout << "perfbench workload=" << args.workload
              << " seed=" << args.seed << " seconds=" << args.seconds
              << " trace=" << (args.trace ? 1 : 0) << "\n"
              << "threads: " << workload->threadSettings() << "\n";

    Outcome outcome;
    MetricList metrics;
    try {
        metrics = args.trace ? traceLayers(*workload, args, outcome)
                             : measure(*workload, args, outcome);
        std::cout << "digest " << args.workload << " " << std::hex
                  << workload->digest() << std::dec << "\n";
        workload->report(std::cout);
    } catch (const std::exception &e) {
        outcome.attempted += 1;
        outcome.fail(std::string("set-up: ") + e.what());
    }
    for (const std::string &e : outcome.errors)
        std::cout << "FAILED " << e << "\n";
    printResult(outcome, metrics);
    return 0;
}
