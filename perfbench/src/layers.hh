/**
 * @file
 * Per-layer attribution of traced jobs.
 *
 * The program already records spans (obs::TraceSession) at a few
 * layer boundaries; the benchmark adds one root span per job
 * ("perfbench.job").  LayerTable turns the spans of each traced job
 * into a {count, total, self} row per layer, plus "other" for job
 * time no layer span covers.
 *
 * Self time is wall time, so that the rows of one job add up to its
 * wall time even when the job fans out onto pool threads: every
 * instant of the job goes to the innermost open span of each thread
 * that has one, split equally between those threads.  A span that
 * only hands work to a pool and waits (the job root,
 * plan.capacity_search, multichip.plan_shards) yields the instant
 * to the other threads' spans whenever any is open.  Time only the
 * job root covers is "other": the benchmark opens no span but the
 * root, so the attributed share is what the program's own spans
 * cover.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "obs/trace.hh"

namespace perfbench
{

/** Name of the root span the benchmark opens around every job. */
inline constexpr const char *kJobSpan = "perfbench.job";

/** The layer a program span belongs to ("other" for the root). */
std::string layerOf(const std::string &span);

struct LayerRow
{
    std::int64_t count = 0; ///< spans
    double total_s = 0;     ///< summed span durations (thread time)
    double self_s = 0;      ///< wall time attributed to the layer
};

/** Layer rows of one job, keyed by layer name. */
using JobLayers = std::map<std::string, LayerRow>;

/**
 * Attribute one traced job.  `events` are the session's spans; the
 * one named kJobSpan is the job.  Returns the job's rows, including
 * "other": its total is the job's wall time and its self time the
 * part no layer covers.
 */
JobLayers
attributeJob(const std::vector<transfusion::obs::TraceEvent> &events);

/** Rows summed over the traced jobs of a run. */
class LayerTable
{
  public:
    void add(const JobLayers &job);

    /** Share of traced job wall time attributed to named layers. */
    double attributedFrac() const;

    /** Per-job averages: count, total, self and self share. */
    void print(std::ostream &os) const;

  private:
    JobLayers rows_;
    double wall_s_ = 0;
    std::int64_t jobs_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
