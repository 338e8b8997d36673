/**
 * @file
 * Thread-safe metrics registry: named counters (integer, exact),
 * gauges (double, accumulated or maximum) and timer histograms
 * (reusing common/Histogram).  This is the substrate behind the
 * TF_COUNT, TF_GAUGE_ADD/MAX and TF_TIMER macros in obs/obs.hh.
 *
 * Determinism contract: counters and gauges written from a single
 * thread are deterministic; floating-point gauge *sums* across
 * threads are only deterministic when each task writes to its own
 * Registry and the per-task registries merge in a fixed (input)
 * order -- the rule obs::parallelMapRecorded (obs/parallel.hh)
 * implements.  Wall-clock timer durations are inherently
 * nondeterministic; RunReport therefore exports only their counts.
 */

#ifndef TRANSFUSION_OBS_REGISTRY_HH
#define TRANSFUSION_OBS_REGISTRY_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/histogram.hh"

namespace transfusion::obs
{

/** Point-in-time copy of a registry's contents (all maps sorted). */
struct RegistrySnapshot
{
    std::map<std::string, std::int64_t> counters;
    std::map<std::string, double> gauges; ///< accumulated sums
    std::map<std::string, double> peaks;  ///< running maxima
    std::map<std::string, Histogram> timers;

    bool empty() const
    {
        return counters.empty() && gauges.empty() && peaks.empty()
            && timers.empty();
    }
};

/**
 * Mutex-protected metric store.  Writes from any number of threads
 * are safe; integer counter sums are exact regardless of
 * interleaving.  Movable (for returning per-task registries from
 * thread-pool lambdas) but not copyable.
 */
class Registry
{
  public:
    Registry();
    ~Registry();
    Registry(Registry &&) noexcept;
    Registry &operator=(Registry &&) noexcept;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** Add `delta` to the named counter (creating it at zero). */
    void counterAdd(const std::string &name, std::int64_t delta);
    /** Accumulate `delta` into the named gauge sum. */
    void gaugeAdd(const std::string &name, double delta);
    /** Raise the named peak gauge to at least `value`. */
    void gaugeMax(const std::string &name, double value);
    /** Record one duration sample into the named timer. */
    void timerRecord(const std::string &name, double seconds);

    /**
     * Fold `other` into this registry: counters and gauge sums add,
     * peaks take the maximum, timers merge losslessly.  Merging a
     * fixed sequence of registries in a fixed order is
     * deterministic bit-for-bit (the determinism-merge rule).
     */
    void merge(const Registry &other);
    void merge(const RegistrySnapshot &other);

    /**
     * merge() with every incoming key prepended with `prefix`
     * verbatim ("fleet/replica.3." + "serve/offered").  Multi-
     * instance drivers (the fleet simulator's per-replica
     * registries) fold each instance under its own namespace so
     * same-named metrics from different instances never collide;
     * merging a fixed sequence of (snapshot, prefix) pairs in a
     * fixed order stays deterministic bit-for-bit.
     */
    void mergePrefixed(const RegistrySnapshot &other,
                       const std::string &prefix);

    /** Copy out the current contents.  Idempotent: snapshotting is
     *  a read and never perturbs the registry. */
    RegistrySnapshot snapshot() const;

    /** Drop every metric. */
    void clear();

    /** The process-wide default registry. */
    static Registry &global();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * The registry the TF_* macros write to on this thread: the one
 * installed by the innermost live ScopedRegistry, or global().
 */
Registry &currentRegistry();

/**
 * "prefix.index.suffix" metric key for per-instance series (e.g.
 * "fault/window.3.tokens").  One spelling everywhere so RunReport
 * diffs line up across producers and goldens.
 */
std::string metricKey(const std::string &prefix, std::int64_t index,
                      const std::string &suffix);

/**
 * RAII redirection of this thread's currentRegistry().  Thread-pool
 * drivers wrap each task in a scope over a task-local registry so
 * per-task metrics can merge deterministically in input order.
 */
class ScopedRegistry
{
  public:
    explicit ScopedRegistry(Registry &target);
    ~ScopedRegistry();
    ScopedRegistry(const ScopedRegistry &) = delete;
    ScopedRegistry &operator=(const ScopedRegistry &) = delete;

  private:
    Registry *previous_;
};

/** RAII wall-clock timer feeding currentRegistry() on destruction. */
class TimerGuard
{
  public:
    explicit TimerGuard(std::string name)
        : name_(std::move(name)),
          start_(std::chrono::steady_clock::now())
    {}

    ~TimerGuard()
    {
        const auto dt = std::chrono::steady_clock::now() - start_;
        currentRegistry().timerRecord(
            name_,
            std::chrono::duration<double>(dt).count());
    }

    TimerGuard(const TimerGuard &) = delete;
    TimerGuard &operator=(const TimerGuard &) = delete;

  private:
    std::string name_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace transfusion::obs

#endif // TRANSFUSION_OBS_REGISTRY_HH
