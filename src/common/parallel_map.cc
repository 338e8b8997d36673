/**
 * @file
 * Implementation of the fan-out primitive.
 */

#include "parallel_map.hh"

#include <algorithm>
#include <atomic>
#include <thread>

namespace transfusion
{

int
hardwareThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
}

namespace detail
{

std::size_t
workerCount(int threads, std::size_t n)
{
    return std::min(
        static_cast<std::size_t>(threads > 0 ? threads
                                             : hardwareThreads()),
        n);
}

void
runIndexed(std::size_t workers, std::size_t n,
           const std::function<void(std::size_t)> &task)
{
    std::atomic<std::size_t> next{ 0 };
    const auto drain = [&]() {
        for (std::size_t i = next++; i < n; i = next++)
            task(i);
    };
    std::vector<std::thread> crew;
    crew.reserve(workers);
    try {
        for (std::size_t w = 0; w < workers; ++w)
            crew.emplace_back(drain);
    } catch (...) {
        // A thread failed to start: the ones that did still drain
        // every index, and must be joined before unwinding.
        for (std::thread &t : crew)
            t.join();
        throw;
    }
    for (std::thread &t : crew)
        t.join();
}

} // namespace detail

} // namespace transfusion
