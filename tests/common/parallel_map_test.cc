/**
 * @file
 * Unit tests for the fan-out primitive: results in input order,
 * one worker runs inline on the caller's thread (its thread-locals
 * included), more workers use at most min(threads, n) threads and
 * never the caller's, `threads <= 0` means hardwareThreads(), empty
 * input starts nothing, and a failure re-throws only after every
 * task ran.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel_map.hh"
#include "costmodel/cost_table_cache.hh"
#include "obs/registry.hh"

namespace transfusion
{
namespace
{

/** A test-private cost-table key: no call site shares it. */
struct InlineProbeKey
{
    using Value = int;

    std::string name;

    bool operator==(const InlineProbeKey &) const = default;
};

/** Distinct thread ids that ran `n` tasks on `threads` workers. */
std::set<std::thread::id>
threadsUsed(int threads, int n)
{
    std::mutex mu;
    std::set<std::thread::id> ids;
    const std::vector<int> items(static_cast<std::size_t>(n), 0);
    parallelMap(threads, items, [&](const int &) {
        // Linger so that one fast worker cannot claim every index
        // before the others start.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        std::lock_guard<std::mutex> lock(mu);
        ids.insert(std::this_thread::get_id());
        return 0;
    });
    return ids;
}

TEST(ParallelMap, ReportsPositiveHardwareThreads)
{
    EXPECT_GE(hardwareThreads(), 1);
}

TEST(ParallelMap, PreservesInputOrder)
{
    std::vector<int> items(50);
    std::iota(items.begin(), items.end(), 0);
    const auto out =
        parallelMap(4, items, [](const int &v) { return v * 2; });
    ASSERT_EQ(out.size(), items.size());
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<int>(i) * 2);
}

TEST(ParallelMap, RunsMoreTasksThanWorkers)
{
    std::atomic<int> ran{ 0 };
    const std::vector<int> items(64, 0);
    parallelMap(2, items, [&ran](const int &) { return ++ran; });
    EXPECT_EQ(ran.load(), 64);
}

TEST(ParallelMap, OneWorkerRunsInlineInIndexOrder)
{
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<int> order;
    const std::vector<int> items{ 0, 1, 2, 3, 4 };
    parallelMap(1, items, [&](const int &v) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(v); // unsynchronized: only the caller runs
        return v;
    });
    EXPECT_EQ(order, items);
    // Many threads asked for, one item: still one worker, inline.
    EXPECT_EQ(threadsUsed(8, 1),
              std::set<std::thread::id>{ caller });
}

TEST(ParallelMap, OneWorkerSeesTheCallersThreadLocals)
{
    // Inline tasks run under whatever the caller installed: its
    // current registry, and its place inside a cost-table build.
    obs::Registry local;
    {
        obs::ScopedRegistry scope(local);
        parallelMap(1, std::vector<int>{ 0 }, [](const int &) {
            obs::currentRegistry().counterAdd("inline/task", 1);
            return 0;
        });
    }
    EXPECT_EQ(local.snapshot().counters.at("inline/task"), 1);

    auto &cache = costmodel::CostTableCache::instance();
    const auto seen = cache.getOrBuild(
        InlineProbeKey{ "parallel-map-inline" }, [] {
            const auto inside = parallelMap(
                1, std::vector<int>{ 0, 1 }, [](const int &) {
                    return costmodel::CostTableCache::insideBuild();
                });
            return static_cast<int>(inside[0] && inside[1]);
        });
    EXPECT_EQ(*seen, 1);
}

TEST(ParallelMap, ManyWorkersNeverUseTheCaller)
{
    const std::thread::id caller = std::this_thread::get_id();
    const auto ids = threadsUsed(3, 12);
    EXPECT_GE(ids.size(), 1u);
    EXPECT_LE(ids.size(), 3u);
    EXPECT_EQ(ids.count(caller), 0u);
    // Fewer items than threads: at most one worker per item.
    const auto few = threadsUsed(8, 2);
    EXPECT_LE(few.size(), 2u);
    EXPECT_EQ(few.count(caller), 0u);

    // Multi-worker tasks started inside a cost-table build look up
    // as top-level callers.
    auto &cache = costmodel::CostTableCache::instance();
    const auto seen = cache.getOrBuild(
        InlineProbeKey{ "parallel-map-workers" }, [] {
            const auto inside = parallelMap(
                2, std::vector<int>{ 0, 1 }, [](const int &) {
                    return costmodel::CostTableCache::insideBuild();
                });
            return static_cast<int>(inside[0] || inside[1]);
        });
    EXPECT_EQ(*seen, 0);
}

TEST(ParallelMap, NonPositiveThreadsMeansHardwareThreads)
{
    const int hw = hardwareThreads();
    const int n = 4 * hw;
    for (const int threads : { 0, -3 }) {
        const auto ids = threadsUsed(threads, n);
        EXPECT_LE(static_cast<int>(ids.size()), hw);
        // One hardware thread runs inline; more never use the
        // caller.
        EXPECT_EQ(ids.count(std::this_thread::get_id()),
                  hw == 1 ? 1u : 0u);
    }
}

TEST(ParallelMap, EmptyInputStartsNothing)
{
    int calls = 0;
    const auto out = parallelMap(
        8, std::vector<int>{}, [&calls](const int &) {
            return ++calls;
        });
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(calls, 0);
}

TEST(ParallelMap, RethrowsLowestIndexFailureAfterEveryTaskRan)
{
    for (const int threads : { 1, 3 }) {
        std::atomic<int> ran{ 0 };
        const std::vector<int> items{ 0, 1, 2, 3, 4, 5, 6, 7 };
        try {
            parallelMap(threads, items, [&ran](const int &v) {
                ran += 1;
                if (v == 2 || v == 5)
                    throw std::runtime_error("v" + std::to_string(v));
                return v;
            });
            FAIL() << "expected a task's exception";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "v2") << threads << " threads";
        }
        EXPECT_EQ(ran.load(), 8) << threads << " threads";
    }
}

} // namespace
} // namespace transfusion
