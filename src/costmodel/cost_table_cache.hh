/**
 * @file
 * Process-wide memoization of expensive, deterministic cost-table
 * construction (calibrated ServeCostModel grids, shard-plan
 * sweeps) and, inside those builds, of DPipe plan pricing.
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
 * a task-local obs::Registry, keeps that registry (id-indexed
 * deltas, no names) next to the value, and *replays* it into the
 * caller's current registry on every hit — counters, gauges, peaks
 * and timers land exactly as the original build recorded them.
 * (Wall-clock timer *totals* are replayed from the first build;
 * deterministic consumers only read timer counts, which match.)
 *
 * Single flight: a lookup finds or inserts its key's slot under the
 * lock, then builds outside it.  A duplicate lookup of a key that
 * is still building waits on the slot's shared future; distinct
 * keys build at the same time.  A builder that throws removes its
 * slot and rethrows its exception; every waiter throws its own copy
 * of it (see copyOfCurrent), so no exception object is shared
 * across threads.  A failed build leaves no entry and the next
 * lookup builds again.
 *
 * Nesting: because builds run outside the lock, a builder may look
 * up a *different* key (a calibration build prices DPipe plans
 * through the cache; see dpipe/pipeline.hh).  Key types must nest
 * acyclically (calibration → plan).  A thread that looks up a key
 * it is itself building panics instead of waiting forever; a cycle
 * that crosses threads is not detected.  insideBuild() tells a
 * caller whether its thread is running a builder.  A builder that
 * fans out with parallelMap keeps one-worker tasks inside its build
 * (they run inline on its thread); multi-worker tasks run on fresh
 * threads and look up as top-level callers.
 *
 * Stats: hits, misses and entries count top-level lookups (the cost
 * tables themselves); nested_hits and nested_misses count lookups
 * made inside a build, so plan entries never blur the table counts.
 *
 * Keys are typed: each call site declares a plain struct holding
 * the builder's arguments, with a defaulted `operator==` and a
 * `using Value = ...;` naming what it builds.  The config structs a
 * key holds compare themselves with defaulted `operator==` too, so
 * every member — including one added later — takes part in the
 * lookup and no code lists fields by hand.  An entry stores its key
 * by value in a bucket of its key type, and a lookup scans only its
 * own type's bucket, so one key type can never fetch another's
 * value.  Put a key's cheap members first: the defaulted `==`
 * compares in declaration order and rejects at the first mismatch.
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
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <typeindex>
#include <unordered_map>
#include <vector>

#include "common/logging.hh"
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
        std::int64_t hits = 0;    ///< top-level lookups served
        std::int64_t misses = 0;  ///< top-level lookups that built
        std::int64_t entries = 0; ///< entries top-level misses stored
        std::int64_t nested_hits = 0;   ///< in-build lookups served
        std::int64_t nested_misses = 0; ///< in-build lookups that built
    };

    /** The process-wide cache every call site shares. */
    static CostTableCache &instance();

    /** True while this thread runs a getOrBuild builder. */
    static bool insideBuild();

    /**
     * Return the value cached under `key`, building it with
     * `build` on the first request.  The builder runs outside the
     * lock under a task-local registry that is merged into the
     * caller's current registry on the miss *and* replayed
     * on every later hit, so cached and uncached construction leave
     * the registry bit-identically.  A lookup of a key another
     * thread is building waits for that build (and throws a copy
     * of its exception); a lookup of a key this thread is building
     * panics.
     */
    template <class Key>
    std::shared_ptr<const typename Key::Value>
    getOrBuild(const Key &key,
               const std::function<typename Key::Value()> &build)
    {
        using Value = typename Key::Value;
        const bool nested = insideBuild();
        std::unique_lock<std::mutex> lock(mu_);
        if (!enabled_) {
            // Bypass entirely: build straight into the caller's
            // registry, exactly as uncached code did.
            lock.unlock();
            return std::make_shared<const Value>(build());
        }
        Bucket &bucket = buckets_[std::type_index(typeid(Key))];
        for (const auto &entry : bucket) {
            auto &typed = static_cast<TypedEntry<Key> &>(*entry);
            if (typed.key == key) {
                if (typed.builder == std::this_thread::get_id())
                    tf_panic("CostTableCache: a builder looked up "
                             "the key of its own build; key types "
                             "must nest acyclically");
                (nested ? stats_.nested_hits : stats_.hits) += 1;
                const auto built = typed.built;
                lock.unlock();
                const Built<Value> &done = awaitBuild(built);
                obs::currentRegistry().merge(done.recorded);
                return done.value;
            }
        }
        auto entry = std::make_shared<TypedEntry<Key>>(key);
        entry->builder = std::this_thread::get_id();
        std::promise<Built<Value>> promise;
        const auto built = promise.get_future().share();
        entry->built = built;
        bucket.push_back(entry);
        (nested ? stats_.nested_misses : stats_.misses) += 1;
        if (!nested)
            stats_.entries += 1;
        lock.unlock();

        Built<Value> fresh;
        try {
            obs::ScopedRegistry scope(fresh.recorded);
            const BuildDepth depth;
            fresh.value = std::make_shared<const Value>(build());
        } catch (...) {
            forget(std::type_index(typeid(Key)), entry, nested);
            promise.set_exception(copyOfCurrent());
            throw;
        }
        {
            std::lock_guard<std::mutex> relock(mu_);
            entry->builder = std::thread::id();
        }
        promise.set_value(std::move(fresh));
        const Built<Value> &done = built.get();
        obs::currentRegistry().merge(done.recorded);
        return done.value;
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
    /** A finished build: the value and the deltas it recorded. */
    template <class Value>
    struct Built
    {
        std::shared_ptr<const Value> value;
        obs::Registry recorded;
    };

    struct Entry
    {
        virtual ~Entry() = default;
        /** The thread running the build; empty once it finished. */
        std::thread::id builder;
    };

    template <class Key>
    struct TypedEntry final : Entry
    {
        explicit TypedEntry(const Key &k) : key(k) {}
        Key key;
        std::shared_future<Built<typename Key::Value>> built;
    };

    using Bucket = std::vector<std::shared_ptr<Entry>>;

    /** Marks this thread as inside a builder for its lifetime. */
    struct BuildDepth
    {
        BuildDepth();
        ~BuildDepth();
        BuildDepth(const BuildDepth &) = delete;
        BuildDepth &operator=(const BuildDepth &) = delete;
    };

    /**
     * A new exception object equal to the one being handled: a
     * FatalError or PanicError of that type, any other
     * std::exception as a std::runtime_error, each with the same
     * what().  An exception of another type carries no message
     * and is handed on as is.
     */
    static std::exception_ptr copyOfCurrent();

    /** The finished build, or — when it failed — a throw of this
     *  waiter's own copy of its exception. */
    template <class Value>
    static const Built<Value> &
    awaitBuild(const std::shared_future<Built<Value>> &built)
    {
        try {
            return built.get();
        } catch (...) {
            std::rethrow_exception(copyOfCurrent());
        }
    }

    /** Remove a failed build's slot (if clear() left it). */
    void forget(std::type_index type,
                const std::shared_ptr<Entry> &entry, bool nested);

    mutable std::mutex mu_;
    /// One bucket per key type: lookups never cross types.
    std::unordered_map<std::type_index, Bucket> buckets_;
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
