/**
 * @file
 * Implementation of the index-name table and the dimension
 * environment.
 */

#include "dims.hh"

#include <algorithm>
#include <deque>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <unordered_map>

#include "common/logging.hh"

namespace transfusion::einsum
{

namespace
{

/** The id at table position `i`. */
DimId
idAt(std::size_t i)
{
    return DimId{ static_cast<std::uint32_t>(i) };
}

/**
 * The process-wide index-name table: names by id, ids by name.
 * Lookups that find their name share the lock; only adding a name
 * takes it exclusively.
 */
class DimTable
{
  public:
    DimId intern(std::string_view name)
    {
        if (const auto id = find(name))
            return *id;
        std::lock_guard<std::shared_mutex> lock(mu_);
        const auto it = ids_.find(name);
        if (it != ids_.end())
            return it->second;
        const DimId id = idAt(names_.size());
        // A deque never moves its elements, so the map's views (and
        // the references dimName hands out) stay valid as it grows.
        names_.emplace_back(name);
        ids_.emplace(names_.back(), id);
        return id;
    }

    std::optional<DimId> find(std::string_view name)
    {
        std::shared_lock<std::shared_mutex> lock(mu_);
        const auto it = ids_.find(name);
        if (it == ids_.end())
            return std::nullopt;
        return it->second;
    }

    const std::string &name(DimId id)
    {
        std::shared_lock<std::shared_mutex> lock(mu_);
        return names_.at(static_cast<std::size_t>(id));
    }

  private:
    std::shared_mutex mu_;
    std::deque<std::string> names_;
    std::unordered_map<std::string_view, DimId> ids_;
};

/** Never destroyed, like obs's metric name table. */
DimTable &
table()
{
    static DimTable *t = new DimTable;
    return *t;
}

} // namespace

DimId
internDim(std::string_view name)
{
    return table().intern(name);
}

std::vector<DimId>
internDims(const std::vector<std::string> &names)
{
    std::vector<DimId> ids;
    ids.reserve(names.size());
    for (const auto &n : names)
        ids.push_back(internDim(n));
    return ids;
}

const std::string &
dimName(DimId id)
{
    return table().name(id);
}

DimEnv::DimEnv(std::initializer_list<std::pair<const std::string,
                                               std::int64_t>> init)
{
    for (const auto &kv : init)
        set(kv.first, kv.second);
}

DimEnv::DimEnv(std::initializer_list<std::pair<DimId, std::int64_t>> init)
{
    std::size_t size = 0;
    for (const auto &kv : init)
        size = std::max(size, static_cast<std::size_t>(kv.first) + 1);
    extents_.resize(size);
    for (const auto &kv : init)
        set(kv.first, kv.second);
}

void
DimEnv::set(const std::string &name, std::int64_t extent)
{
    set(internDim(name), extent);
}

void
DimEnv::set(DimId id, std::int64_t extent)
{
    if (extent <= 0)
        tf_fatal("extent of index '", dimName(id),
                 "' must be positive, got ", extent);
    const auto i = static_cast<std::size_t>(id);
    if (i >= extents_.size())
        extents_.resize(i + 1);
    extents_[i] = extent;
}

void
DimEnv::unbound(DimId id)
{
    tf_fatal("unbound index '", dimName(id), "'");
}

std::int64_t
DimEnv::extent(const std::string &name) const
{
    const auto id = table().find(name);
    if (!id)
        tf_fatal("unbound index '", name, "'");
    return extent(*id);
}

bool
DimEnv::has(const std::string &name) const
{
    const auto id = table().find(name);
    if (!id)
        return false;
    const auto i = static_cast<std::size_t>(*id);
    return i < extents_.size() && extents_[i] != 0;
}

double
DimEnv::product(const std::vector<std::string> &names) const
{
    double p = 1.0;
    for (const auto &n : names)
        p *= static_cast<double>(extent(n));
    return p;
}

std::vector<std::string>
DimEnv::names() const
{
    std::vector<std::string> out;
    for (std::size_t i = 0; i < extents_.size(); ++i) {
        if (extents_[i] != 0)
            out.push_back(dimName(idAt(i)));
    }
    std::ranges::sort(out);
    return out;
}

DimEnv
DimEnv::withOverrides(const DimEnv &overrides) const
{
    DimEnv copy = *this;
    for (std::size_t i = 0; i < overrides.extents_.size(); ++i) {
        if (overrides.extents_[i] != 0)
            copy.set(idAt(i), overrides.extents_[i]);
    }
    return copy;
}

} // namespace transfusion::einsum
