/**
 * @file
 * CostTableCache implementation (the template lives in the header;
 * only the singleton and bookkeeping live here).
 */

#include "cost_table_cache.hh"

namespace transfusion::costmodel
{

CostTableCache &
CostTableCache::instance()
{
    static CostTableCache cache;
    return cache;
}

void
CostTableCache::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
    stats_ = Stats{};
}

CostTableCache::Stats
CostTableCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

bool
CostTableCache::setEnabled(bool enabled)
{
    std::lock_guard<std::mutex> lock(mu_);
    const bool previous = enabled_;
    enabled_ = enabled;
    return previous;
}

bool
CostTableCache::enabled() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return enabled_;
}

} // namespace transfusion::costmodel
