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

/** How many workers run `n` tasks:
 *  `min(threads > 0 ? threads : hardwareThreads(), n)`. */
std::size_t workerCount(int threads, std::size_t n);

/**
 * Run task(0) .. task(n - 1) on `workers` (> 1) threads and return
 * once every task has finished.  The threads claim indices from an
 * atomic counter while the caller only waits.  `task` must not
 * throw.
 */
void runIndexed(std::size_t workers, std::size_t n,
                const std::function<void(std::size_t)> &task);

} // namespace detail

/**
 * Map `fn` over `items` on detail::workerCount(threads, n) workers,
 * returning results in input order regardless of completion order.
 * One worker runs `fn` inline on the calling thread in index order;
 * more fan out through detail::runIndexed.
 * A task that throws does not stop the others: once every task has
 * finished, the lowest-index exception re-throws here.
 */
template <typename T, typename Fn>
auto
parallelMap(int threads, const std::vector<T> &items, Fn fn)
    -> std::vector<std::invoke_result_t<Fn &, const T &>>
{
    using R = std::invoke_result_t<Fn &, const T &>;
    const std::size_t workers =
        detail::workerCount(threads, items.size());
    if (workers <= 1) {
        // Inline, in index order, straight into the result.
        std::vector<R> out;
        out.reserve(items.size());
        std::exception_ptr error;
        for (const T &item : items) {
            try {
                out.push_back(fn(item));
            } catch (...) {
                if (!error)
                    error = std::current_exception();
            }
        }
        if (error)
            std::rethrow_exception(error);
        return out;
    }
    std::vector<std::optional<R>> results(items.size());
    std::vector<std::exception_ptr> errors(items.size());
    detail::runIndexed(workers, items.size(), [&](std::size_t i) {
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
