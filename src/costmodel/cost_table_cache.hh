/**
 * @file
 * Process-wide memoization of expensive, deterministic cost-table
 * construction (calibrated ServeCostModel grids, shard-plan
 * sweeps).
 *
 * Serving-layer construction recomputes identical Evaluator tables
 * over and over: every fleet replica slot calibrates the same
 * (arch, model, tp, pp) grids, every fault re-carve of the same
 * surviving cluster replans the same shard sweep, and benches
 * construct the same simulator per load point.  All of those
 * builders are *pure* — bit-identical output for equal inputs — so
 * a keyed cache returns the first build's result verbatim.
 *
 * Observability contract: a cached build must be indistinguishable
 * from a fresh one, or RunReports stop being reproducible within a
 * process (the golden `FleetReportIsReproducibleWithinProcess`
 * pins exactly that).  getOrBuild therefore runs the builder under
 * a task-local obs::Registry, stores the resulting snapshot next to
 * the value, and *replays* that snapshot into the caller's current
 * registry on every hit — counters, gauges, peaks and timer
 * histograms land exactly as the original build recorded them.
 * (Wall-clock timer *values* are replayed from the first build;
 * deterministic consumers only read timer counts, which match.)
 *
 * Keys are typed: each call site declares a plain struct holding
 * the builder's arguments, with a defaulted `operator==` and a
 * `using Value = ...;` naming what it builds.  The config structs a
 * key holds compare themselves with defaulted `operator==` too, so
 * every member — including one added later — takes part in the
 * lookup and no code lists fields by hand.  An entry stores its key
 * by value; a lookup compares only entries whose key has the same
 * type, so one key type can never fetch another's value.  The cache
 * holds a few dozen entries at most, so a flat vector scanned under
 * the lock is all the index it needs.
 *
 * Doubles compare with `==`: a NaN field never equals itself, so
 * its lookup simply misses (safe), and +0.0 equals -0.0.  That
 * cannot return a wrong table for these configs: every double in
 * them is either required positive before any build uses it
 * (ArchConfig and multi-chip LinkConfig fields are validated; the
 * efficiency-scaled PE count a LatencyParams field feeds is
 * asserted > 0), so a zero of either sign never builds, or it only
 * scales or offsets other terms (MCTS `ucb_c`, the evaluator's
 * traffic factors, the link of a one-chip cluster, which moves no
 * bytes), where the two zeros give equal results.
 */

#ifndef TRANSFUSION_COSTMODEL_COST_TABLE_CACHE_HH
#define TRANSFUSION_COSTMODEL_COST_TABLE_CACHE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/registry.hh"

namespace transfusion::costmodel
{

/** Keyed store of memoized cost tables (see file comment). */
class CostTableCache
{
  public:
    /** Hit/miss accounting (for tests and bench banners). */
    struct Stats
    {
        std::int64_t hits = 0;
        std::int64_t misses = 0;
        std::int64_t entries = 0;
    };

    /** The process-wide cache every call site shares. */
    static CostTableCache &instance();

    /**
     * Return the value cached under `key`, building it with
     * `build` on the first request.  The builder runs under a
     * task-local registry whose snapshot is merged into the
     * caller's current registry on the miss *and* replayed on
     * every later hit, so cached and uncached construction leave
     * the registry bit-identically.  Holds the cache lock across
     * the build: builders must not call back into the cache.
     */
    template <class Key>
    std::shared_ptr<const typename Key::Value>
    getOrBuild(const Key &key,
               const std::function<typename Key::Value()> &build)
    {
        using Value = typename Key::Value;
        if (!enabled()) {
            // Bypass entirely: build straight into the caller's
            // registry, exactly as uncached code did.
            return std::make_shared<const Value>(build());
        }
        std::lock_guard<std::mutex> lock(mu_);
        for (const auto &entry : entries_) {
            const auto *typed =
                dynamic_cast<const TypedEntry<Key> *>(entry.get());
            if (typed != nullptr && typed->key == key) {
                stats_.hits += 1;
                obs::currentRegistry().merge(typed->recorded);
                return typed->value;
            }
        }
        stats_.misses += 1;
        obs::Registry local;
        auto entry = std::make_unique<TypedEntry<Key>>(key);
        {
            obs::ScopedRegistry scope(local);
            entry->value = std::make_shared<const Value>(build());
        }
        entry->recorded = local.snapshot();
        obs::currentRegistry().merge(entry->recorded);
        const auto value = entry->value;
        entries_.push_back(std::move(entry));
        stats_.entries = static_cast<std::int64_t>(entries_.size());
        return value;
    }

    /** Drop every entry (tests; never needed in production). */
    void clear();

    Stats stats() const;

    /**
     * Toggle memoization (default on).  The differential replay
     * harness disables it to prove cached == uncached; returns the
     * previous state.
     */
    bool setEnabled(bool enabled);
    bool enabled() const;

  private:
    struct Entry
    {
        virtual ~Entry() = default;
        /** Registry deltas the original build recorded. */
        obs::RegistrySnapshot recorded;
    };

    template <class Key>
    struct TypedEntry final : Entry
    {
        explicit TypedEntry(const Key &k) : key(k) {}
        Key key;
        std::shared_ptr<const typename Key::Value> value;
    };

    mutable std::mutex mu_;
    std::vector<std::unique_ptr<Entry>> entries_;
    Stats stats_;
    bool enabled_ = true;
};

/** RAII disable scope (restores the previous state). */
class CostTableCacheDisabled
{
  public:
    CostTableCacheDisabled()
        : previous_(CostTableCache::instance().setEnabled(false))
    {}
    ~CostTableCacheDisabled()
    {
        CostTableCache::instance().setEnabled(previous_);
    }
    CostTableCacheDisabled(const CostTableCacheDisabled &) = delete;
    CostTableCacheDisabled &
    operator=(const CostTableCacheDisabled &) = delete;

  private:
    bool previous_;
};

} // namespace transfusion::costmodel

#endif // TRANSFUSION_COSTMODEL_COST_TABLE_CACHE_HH
