/**
 * @file
 * The one fan-out primitive of the parallel layers: map a function
 * over a vector on a fixed number of workers, results in input
 * order.
 *
 * Every parallel layer of TransFusion (schedule::Sweep,
 * root-parallel TileSeek, the shard-plan search, the capacity
 * planner, serve scenarios, fleet session advance) gets its
 * determinism by making every task independent and collecting
 * results in input order, so the fan-out needs no queue, no
 * priorities and no futures: workers claim the next index from one
 * atomic counter, and the caller waits for them.
 */

#ifndef TRANSFUSION_COMMON_PARALLEL_MAP_HH
#define TRANSFUSION_COMMON_PARALLEL_MAP_HH

#include <cstddef>
#include <exception>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

namespace transfusion
{

/** Best guess at the machine's concurrency (always >= 1). */
int hardwareThreads();

namespace detail
{

/**
 * Run task(0) .. task(n - 1) on
 * `min(threads > 0 ? threads : hardwareThreads(), n)` workers and
 * return once every task has finished.  One worker runs the tasks
 * inline on the calling thread in index order; more start exactly
 * that many threads, which claim indices from an atomic counter
 * while the caller only waits.  `task` must not throw.
 */
void runIndexed(int threads, std::size_t n,
                const std::function<void(std::size_t)> &task);

} // namespace detail

/**
 * Map `fn` over `items` (see detail::runIndexed for the workers),
 * returning results in input order regardless of completion order.
 * A task that throws does not stop the others: once every task has
 * finished, the lowest-index exception re-throws here.
 */
template <typename T, typename Fn>
auto
parallelMap(int threads, const std::vector<T> &items, Fn fn)
    -> std::vector<std::invoke_result_t<Fn &, const T &>>
{
    using R = std::invoke_result_t<Fn &, const T &>;
    std::vector<std::optional<R>> results(items.size());
    std::vector<std::exception_ptr> errors(items.size());
    detail::runIndexed(threads, items.size(), [&](std::size_t i) {
        try {
            results[i].emplace(fn(items[i]));
        } catch (...) {
            errors[i] = std::current_exception();
        }
    });
    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);
    std::vector<R> out;
    out.reserve(items.size());
    for (std::optional<R> &r : results)
        out.push_back(std::move(*r));
    return out;
}

} // namespace transfusion

#endif // TRANSFUSION_COMMON_PARALLEL_MAP_HH
