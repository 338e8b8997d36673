/**
 * @file
 * Thread-safe metrics registry: named counters (integer, exact),
 * gauges (double, accumulated or maximum) and timers (sample count
 * and total).  This is the substrate behind the TF_COUNT,
 * TF_GAUGE_ADD/MAX and TF_TIMER macros in obs/obs.hh.
 *
 * Names are resolved once.  Every metric name lives in one
 * process-wide, append-only name table that hands out a dense
 * MetricId per distinct name; a Registry is a set of flat per-kind
 * arrays indexed by that id.  A literal-named macro call site
 * interns its name the first time it runs and keeps the id in a
 * function-local static, so recording costs an array update under
 * the registry's mutex, not a string build and a map search.
 * Dynamic names (metricKey) intern explicitly.  Prefixed folds
 * (the fleet's per-replica and the planner's per-candidate
 * namespaces) map ids through a cached per-prefix remap table.  The
 * table grows with the set of distinct names a process uses, not
 * with the work it does: it saturates.
 *
 * Determinism contract: counters and gauges written from a single
 * thread are deterministic; floating-point gauge *sums* across
 * threads are only deterministic when each task writes to its own
 * Registry and the per-task registries merge in a fixed (input)
 * order -- the rule obs::parallelMapRecorded (obs/parallel.hh)
 * implements.  Ids depend on the order names were first interned,
 * which threads may race on, so nothing observable depends on an id:
 * snapshot() sorts by name.  Wall-clock timer durations are
 * inherently nondeterministic; RunReport therefore exports only
 * their counts.
 */

#ifndef TRANSFUSION_OBS_REGISTRY_HH
#define TRANSFUSION_OBS_REGISTRY_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

namespace transfusion::obs
{

/** Dense index of a metric name in the process-wide name table. */
enum class MetricId : std::uint32_t
{
};

/** The id of `name`, adding it to the name table on first use.
 *  Thread-safe; one id per distinct name for the process's life. */
MetricId internMetric(std::string_view name);

/** The name `id` was interned under. */
std::string metricName(MetricId id);

/** How many distinct names the process has interned so far. */
std::size_t metricNameCount();

/**
 * The id of "prefix.index.suffix" (e.g. "fault/window.3.tokens"),
 * the one spelling of per-instance series everywhere, so RunReport
 * diffs line up across producers and goldens.  Interns on every
 * call: hoist it out of hot loops.
 */
MetricId metricKey(std::string_view prefix, std::int64_t index,
                   std::string_view suffix);

/** A name prefix interned for Registry::mergePrefixed. */
enum class MetricPrefix : std::uint32_t
{
};

/** The id of prefix `text` (prepended verbatim to every name). */
MetricPrefix internPrefix(std::string_view text);

/** A timer's samples folded to what reports read: how many, and
 *  their total. */
class TimerStat
{
  public:
    void add(double seconds)
    {
        ++count_;
        sum_ += seconds;
    }
    void merge(const TimerStat &other)
    {
        count_ += other.count_;
        sum_ += other.sum_;
    }
    std::size_t count() const { return count_; }
    double sum() const { return sum_; }

  private:
    std::size_t count_ = 0;
    double sum_ = 0;
};

/** Point-in-time copy of a registry's contents, sorted by name. */
struct RegistrySnapshot
{
    std::map<std::string, std::int64_t> counters;
    std::map<std::string, double> gauges; ///< accumulated sums
    std::map<std::string, double> peaks;  ///< running maxima
    std::map<std::string, TimerStat> timers;

    bool empty() const
    {
        return counters.empty() && gauges.empty() && peaks.empty()
            && timers.empty();
    }
};

/**
 * Mutex-protected metric store.  Writes from any number of threads
 * are safe; integer counter sums are exact regardless of
 * interleaving.  A metric exists once written, even with a zero
 * delta.  Movable (for returning per-task registries from worker
 * lambdas) but not copyable.
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

    /** Add `delta` to counter `id` (creating it at zero). */
    void counterAdd(MetricId id, std::int64_t delta);
    /** Accumulate `delta` into gauge sum `id`. */
    void gaugeAdd(MetricId id, double delta);
    /** Raise peak gauge `id` to at least `value`. */
    void gaugeMax(MetricId id, double value);
    /** Record one duration sample into timer `id`. */
    void timerRecord(MetricId id, double seconds);

    /** The same, interning `name` first (tests, and cold paths
     *  with dynamic names such as the sharded evaluator's). */
    void counterAdd(std::string_view name, std::int64_t delta)
    {
        counterAdd(internMetric(name), delta);
    }
    void gaugeAdd(std::string_view name, double delta)
    {
        gaugeAdd(internMetric(name), delta);
    }
    void gaugeMax(std::string_view name, double value)
    {
        gaugeMax(internMetric(name), value);
    }
    void timerRecord(std::string_view name, double seconds)
    {
        timerRecord(internMetric(name), seconds);
    }

    /**
     * Fold `other` into this registry: counters and gauge sums add,
     * peaks take the maximum, timer counts and totals add.  Merging
     * a fixed sequence of registries in a fixed order is
     * deterministic bit-for-bit (the determinism-merge rule).
     */
    void merge(const Registry &other);

    /**
     * merge() with every incoming name prepended with `prefix`
     * verbatim ("fleet/replica.3." + "serve/offered").  Multi-
     * instance drivers (the fleet's per-replica registries, the
     * planner's per-candidate ones) fold each instance under its
     * own namespace so same-named metrics from different instances
     * never collide; ids map through the prefix's cached remap
     * table, so a fold builds no string once the prefixed names
     * exist.
     */
    void mergePrefixed(const Registry &other, MetricPrefix prefix);

    /** Copy out the current contents, sorted by name.  Idempotent:
     *  snapshotting is a read and never perturbs the registry. */
    RegistrySnapshot snapshot() const;

    /** Drop every metric (keeps the arrays' capacity for reuse). */
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
    explicit TimerGuard(MetricId id)
        : id_(id), start_(std::chrono::steady_clock::now())
    {}

    ~TimerGuard()
    {
        const auto dt = std::chrono::steady_clock::now() - start_;
        currentRegistry().timerRecord(
            id_, std::chrono::duration<double>(dt).count());
    }

    TimerGuard(const TimerGuard &) = delete;
    TimerGuard &operator=(const TimerGuard &) = delete;

  private:
    MetricId id_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace transfusion::obs

#endif // TRANSFUSION_OBS_REGISTRY_HH
