/**
 * @file
 * The benchmark's workloads.  Each one owns its inputs (generated
 * from the run's seed), its reference outputs and its output check;
 * main.cc owns timing, tracing and reporting.  README.md says why
 * each workload exists and which per-layer metric should move which
 * end-to-end metric.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "layers.hh"
#include "obs/registry.hh"

namespace perfbench
{

/** Per-layer samples of a traced run, keyed by metric name. */
using Samples = std::map<std::string, std::vector<double>>;

/** A job whose outputs disagree with the reference. */
struct CheckFailure : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** What main.cc knows about one finished job of a traced run. */
struct TracedJob
{
    std::size_t index = 0;
    double wall_s = 0;
    double cpu_s = 0;
    bool traced = false;                    ///< spans were recorded
    const JobLayers *layers = nullptr;      ///< traced jobs only
    const transfusion::obs::RegistrySnapshot *counters = nullptr;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Thread counts the workload sets, for the printed record. */
    virtual std::string threadSettings() const = 0;

    /**
     * Build inputs from `seed`, calibrate, and compute (and check)
     * the reference outputs.  Starts from a cleared CostTableCache,
     * as a fresh process would, and may be called again to redo
     * the whole set-up.  Throws CheckFailure when a reference check
     * fails.
     */
    virtual void setup(std::uint64_t seed) = 0;

    /** The timed work of job `i`; keeps its outputs for check(). */
    virtual void run(std::size_t i) = 0;

    /** Untimed work before job `i` (e.g. clearing a cache). */
    virtual void prepare(std::size_t /*i*/) {}

    /**
     * Check the outputs of the last run(i) against the reference;
     * throws CheckFailure on a mismatch.  Returns the job's items.
     */
    virtual std::int64_t check(std::size_t i) = 0;

    /** Digest of the reference outputs, printed for cross-commit
     *  comparison. */
    virtual std::uint64_t digest() const = 0;

    /** Per-layer samples from one job of a traced run. */
    virtual void sampleJob(const TracedJob &job, Samples &out) = 0;

    /** Per-layer samples from direct calls, after the traced jobs. */
    virtual void probe(Samples & /*out*/) {}

    /** Extra lines for the printed record, after the run. */
    virtual void report(std::ostream & /*os*/) const {}
};

std::unique_ptr<Workload> makeWorkload(const std::string &name);

/** Workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** How a per-layer metric summarizes its samples. */
enum class Summary
{
    Median, ///< times: the median sample
    Mean,   ///< counts and fractions: the mean per sample
};

struct LayerMetric
{
    const char *name;
    const char *unit;
    const char *owner; ///< the workload that measures it
    Summary summary;
};

/**
 * Every per-layer metric.  Each is measured on the configuration of
 * its owner workload, so it means the same thing in every traced
 * run; a traced run of another workload measures it with a short
 * traced run of the owner (see README.md).
 */
const std::vector<LayerMetric> &layerMetrics();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
