/**
 * @file
 * CostTableCache implementation (the template lives in the header;
 * only the singleton, the build depth and bookkeeping live here).
 */

#include "cost_table_cache.hh"

#include <algorithm>
#include <stdexcept>

namespace transfusion::costmodel
{

namespace
{

/// Builders this thread is running (getOrBuild frames, innermost
/// last); nonzero exactly while a builder is on the stack.
thread_local int t_build_depth = 0;

} // namespace

CostTableCache &
CostTableCache::instance()
{
    static CostTableCache cache;
    return cache;
}

bool
CostTableCache::insideBuild()
{
    return t_build_depth > 0;
}

CostTableCache::BuildDepth::BuildDepth()
{
    ++t_build_depth;
}

CostTableCache::BuildDepth::~BuildDepth()
{
    --t_build_depth;
}

std::exception_ptr
CostTableCache::copyOfCurrent()
{
    try {
        throw;
    } catch (const FatalError &e) {
        return std::make_exception_ptr(FatalError(e.what()));
    } catch (const PanicError &e) {
        return std::make_exception_ptr(PanicError(e.what()));
    } catch (const std::exception &e) {
        return std::make_exception_ptr(std::runtime_error(e.what()));
    } catch (...) {
        return std::current_exception();
    }
}

void
CostTableCache::forget(std::type_index type,
                       const std::shared_ptr<Entry> &entry, bool nested)
{
    std::lock_guard<std::mutex> lock(mu_);
    Bucket &bucket = buckets_[type];
    const auto it = std::find(bucket.begin(), bucket.end(), entry);
    if (it == bucket.end())
        return;
    bucket.erase(it);
    if (!nested)
        stats_.entries -= 1;
}

void
CostTableCache::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    buckets_.clear();
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
