/**
 * @file
 * Implementation of the metric name table and the registry.
 */

#include "registry.hh"

#include <algorithm>
#include <charconv>
#include <deque>
#include <limits>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace transfusion::obs
{

namespace
{

std::size_t
index(MetricId id)
{
    return static_cast<std::size_t>(id);
}

/** A remap slot whose prefixed name is not interned yet. */
constexpr MetricId kUnmapped{ std::numeric_limits<std::uint32_t>::max() };

/**
 * One kind's values: the metrics written, in first-write order,
 * and per id the position of its entry.  The position array is the
 * flat id-indexed part (4 bytes per id, 0 = never written, so a
 * zero-delta write still makes the metric present); the values sit
 * densely in `entries`, so folds and snapshots visit only what was
 * written and a registry that writes a few late-interned names
 * stays small.
 */
template <class T>
struct Column
{
    std::vector<std::uint32_t> pos; ///< by id: 1 + entry index, or 0
    std::vector<std::pair<MetricId, T>> entries;

    /**
     * Fold `v` into metric `id` with apply(value, fresh, v); a fresh
     * metric starts at T{}, as a default-inserted map entry did.
     */
    template <class Apply>
    void write(MetricId id, const T &v, Apply apply)
    {
        const std::size_t i = index(id);
        if (i >= pos.size())
            pos.resize(i + 1, 0);
        std::uint32_t &p = pos[i];
        const bool fresh = p == 0;
        if (fresh) {
            entries.emplace_back(id, T{});
            p = static_cast<std::uint32_t>(entries.size());
        }
        apply(entries[p - 1].second, fresh, v);
    }

    /** Fold every metric of `other`, entry k landing on to[k] (or
     *  on its own id when `to` is null); returns `to` advanced past
     *  the ids it used. */
    template <class Apply>
    const MetricId *fold(const Column &other, const MetricId *to,
                         Apply apply)
    {
        for (const auto &[from, v] : other.entries)
            write(to ? *to++ : from, v, apply);
        return to;
    }

    /** Append the ids written, in entry order, to `out`. */
    void ids(std::vector<MetricId> &out) const
    {
        for (const auto &e : entries)
            out.push_back(e.first);
    }

    void clear()
    {
        for (const auto &e : entries)
            pos[index(e.first)] = 0;
        entries.clear();
    }
};

/**
 * The process-wide name table: names by id, ids by name, and per
 * prefix the cached source-id → prefixed-id remap.  Lookups that
 * find what they need (every one once the names a process uses are
 * interned) share its lock, so concurrent folds and snapshots do
 * not serialise; only adding a name takes it exclusively.  It is
 * the innermost lock in obs (taken under a registry's, never the
 * other way round).
 */
class NameTable
{
  public:
    MetricId intern(std::string_view name)
    {
        {
            std::shared_lock<std::shared_mutex> lock(mu_);
            const auto it = ids_.find(name);
            if (it != ids_.end())
                return it->second;
        }
        std::lock_guard<std::shared_mutex> lock(mu_);
        return internLocked(name);
    }

    std::string name(MetricId id)
    {
        std::shared_lock<std::shared_mutex> lock(mu_);
        return names_.at(index(id));
    }

    std::size_t size()
    {
        std::shared_lock<std::shared_mutex> lock(mu_);
        return names_.size();
    }

    MetricPrefix internPrefix(std::string_view text)
    {
        {
            std::shared_lock<std::shared_mutex> lock(mu_);
            const auto it = prefix_ids_.find(text);
            if (it != prefix_ids_.end())
                return it->second;
        }
        std::lock_guard<std::shared_mutex> lock(mu_);
        const auto it = prefix_ids_.find(text);
        if (it != prefix_ids_.end())
            return it->second;
        const MetricPrefix id{ static_cast<std::uint32_t>(
            prefixes_.size()) };
        prefixes_.push_back(Prefix{ std::string(text), {} });
        prefix_ids_.emplace(prefixes_.back().text, id);
        return id;
    }

    /** Map every id in `ids` to the id of prefix + its name, in
     *  one shared lookup once the prefixed names exist; the first
     *  fold of a new name interns it under the exclusive lock. */
    void prefixAll(MetricPrefix prefix, std::vector<MetricId> &ids)
    {
        {
            std::shared_lock<std::shared_mutex> lock(mu_);
            if (remapCached(prefix, ids))
                return;
        }
        std::lock_guard<std::shared_mutex> lock(mu_);
        Prefix &p = prefixes_.at(static_cast<std::size_t>(prefix));
        for (MetricId &id : ids) {
            const std::size_t source = index(id);
            if (source >= p.remap.size())
                p.remap.resize(source + 1, kUnmapped);
            MetricId &target = p.remap[source];
            if (target == kUnmapped)
                target = internLocked(p.text + names_[source]);
            id = target;
        }
    }

    /** out[k] = the name of ids[k].  The names never move or
     *  change, so the references outlive the lock. */
    void namesOf(const std::vector<MetricId> &ids,
                 std::vector<const std::string *> &out)
    {
        out.clear();
        std::shared_lock<std::shared_mutex> lock(mu_);
        for (const MetricId id : ids)
            out.push_back(&names_[index(id)]);
    }

  private:
    /** prefixAll's shared path: remap `ids` in place if every
     *  prefixed id is cached, else leave them untouched. */
    bool remapCached(MetricPrefix prefix, std::vector<MetricId> &ids)
    {
        const Prefix &p =
            prefixes_.at(static_cast<std::size_t>(prefix));
        for (const MetricId id : ids) {
            const std::size_t source = index(id);
            if (source >= p.remap.size() || p.remap[source] == kUnmapped)
                return false;
        }
        for (MetricId &id : ids)
            id = p.remap[index(id)];
        return true;
    }

    MetricId internLocked(std::string_view name)
    {
        const auto it = ids_.find(name);
        if (it != ids_.end())
            return it->second;
        tf_assert(names_.size() < index(kUnmapped),
                  "metric name table full");
        const MetricId id{ static_cast<std::uint32_t>(names_.size()) };
        // A deque never moves its elements, so the map's views stay
        // valid as the table grows.
        names_.emplace_back(name);
        ids_.emplace(names_.back(), id);
        return id;
    }

    struct Prefix
    {
        std::string text;
        std::vector<MetricId> remap; ///< by source id; kUnmapped = not yet
    };

    std::shared_mutex mu_;
    std::deque<std::string> names_;
    std::unordered_map<std::string_view, MetricId> ids_;
    std::deque<Prefix> prefixes_;
    std::unordered_map<std::string_view, MetricPrefix> prefix_ids_;
};

/** Never destroyed: exit-time report hooks snapshot registries after
 *  function-local statics constructed later were torn down. */
NameTable &
names()
{
    static NameTable *table = new NameTable;
    return *table;
}

const auto kAdd = [](auto &to, bool, const auto &v) { to += v; };
const auto kMax = [](double &to, bool fresh, double v) {
    to = fresh ? v : std::max(to, v);
};
const auto kTimer = [](TimerStat &to, bool, const TimerStat &v) {
    to.merge(v);
};

} // namespace

MetricId
internMetric(std::string_view name)
{
    return names().intern(name);
}

std::string
metricName(MetricId id)
{
    return names().name(id);
}

std::size_t
metricNameCount()
{
    return names().size();
}

MetricId
metricKey(std::string_view prefix, std::int64_t index,
          std::string_view suffix)
{
    char digits[24];
    const auto end =
        std::to_chars(digits, digits + sizeof(digits), index).ptr;
    thread_local std::string key;
    key.assign(prefix);
    key += '.';
    key.append(digits, end);
    key += '.';
    key += suffix;
    return internMetric(key);
}

MetricPrefix
internPrefix(std::string_view text)
{
    return names().internPrefix(text);
}

struct Registry::Impl
{
    mutable std::mutex mutex;
    Column<std::int64_t> counters;
    Column<double> gauges;
    Column<double> peaks;
    Column<TimerStat> timers;

    /** Every written id, column by column in entry order. */
    void ids(std::vector<MetricId> &out) const
    {
        out.clear();
        counters.ids(out);
        gauges.ids(out);
        peaks.ids(out);
        timers.ids(out);
    }

    /** Fold `src` in, each name under `prefix` when one is given.
     *  Both mutexes are held by the caller. */
    void fold(const Impl &src, const MetricPrefix *prefix)
    {
        // Reused across folds, so a fold allocates nothing once warm.
        thread_local std::vector<MetricId> to;
        const MetricId *next = nullptr;
        if (prefix) {
            src.ids(to);
            names().prefixAll(*prefix, to);
            next = to.data();
        }
        next = counters.fold(src.counters, next, kAdd);
        next = gauges.fold(src.gauges, next, kAdd);
        next = peaks.fold(src.peaks, next, kMax);
        timers.fold(src.timers, next, kTimer);
    }
};

Registry::Registry() : impl_(std::make_unique<Impl>()) {}
Registry::~Registry() = default;
Registry::Registry(Registry &&) noexcept = default;
Registry &Registry::operator=(Registry &&) noexcept = default;

void
Registry::counterAdd(MetricId id, std::int64_t delta)
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->counters.write(id, delta, kAdd);
}

void
Registry::gaugeAdd(MetricId id, double delta)
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->gauges.write(id, delta, kAdd);
}

void
Registry::gaugeMax(MetricId id, double value)
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->peaks.write(id, value, kMax);
}

void
Registry::timerRecord(MetricId id, double seconds)
{
    TimerStat sample;
    sample.add(seconds);
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->timers.write(id, sample, kTimer);
}

void
Registry::merge(const Registry &other)
{
    tf_assert(&other != this, "a registry cannot merge into itself");
    std::scoped_lock lock(impl_->mutex, other.impl_->mutex);
    impl_->fold(*other.impl_, nullptr);
}

void
Registry::mergePrefixed(const Registry &other, MetricPrefix prefix)
{
    tf_assert(&other != this, "a registry cannot merge into itself");
    std::scoped_lock lock(impl_->mutex, other.impl_->mutex);
    impl_->fold(*other.impl_, &prefix);
}

RegistrySnapshot
Registry::snapshot() const
{
    thread_local std::vector<MetricId> ids;
    thread_local std::vector<const std::string *> refs;
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->ids(ids);
    names().namesOf(ids, refs);
    RegistrySnapshot snap;
    const std::string *const *name = refs.data();
    const auto copy = [&](const auto &column, auto &out) {
        for (const auto &e : column.entries)
            out.emplace(**name++, e.second);
    };
    copy(impl_->counters, snap.counters);
    copy(impl_->gauges, snap.gauges);
    copy(impl_->peaks, snap.peaks);
    copy(impl_->timers, snap.timers);
    return snap;
}

void
Registry::clear()
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->counters.clear();
    impl_->gauges.clear();
    impl_->peaks.clear();
    impl_->timers.clear();
}

Registry &
Registry::global()
{
    static Registry instance;
    return instance;
}

namespace
{

thread_local Registry *t_current = nullptr;

} // namespace

Registry &
currentRegistry()
{
    return t_current != nullptr ? *t_current : Registry::global();
}

ScopedRegistry::ScopedRegistry(Registry &target)
    : previous_(t_current)
{
    t_current = &target;
}

ScopedRegistry::~ScopedRegistry()
{
    t_current = previous_;
}

} // namespace transfusion::obs
