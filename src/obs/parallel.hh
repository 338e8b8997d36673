/**
 * @file
 * The determinism-merge rule as one helper: fan tasks out with
 * parallelMap, record each task's metrics into its own Registry, and
 * merge those registries into the caller's in input order, so the
 * observed metrics are as bit-identical across thread counts as the
 * returned results.
 */

#ifndef TRANSFUSION_OBS_PARALLEL_HH
#define TRANSFUSION_OBS_PARALLEL_HH

#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/parallel_map.hh"
#include "obs/registry.hh"

namespace transfusion::obs
{

/**
 * parallelMap(threads, items, fn) with each fn(item) recording into a
 * task-local Registry that then merges into currentRegistry(), task
 * by task in input order.  With a non-empty `prefix`, task i's
 * metrics merge under "<prefix><i>." so same-named metrics of
 * different tasks stay apart.
 */
template <typename T, typename Fn>
auto
parallelMapRecorded(int threads, const std::vector<T> &items, Fn fn,
                    const std::string &prefix = {})
    -> std::vector<std::invoke_result_t<Fn &, const T &>>
{
    using R = std::invoke_result_t<Fn &, const T &>;
    auto tagged = parallelMap(threads, items, [&fn](const T &item) {
        Registry local;
        R result = [&] {
            ScopedRegistry scope(local);
            return fn(item);
        }();
        return std::make_pair(std::move(result), std::move(local));
    });
    Registry &sink = currentRegistry();
    std::vector<R> out;
    out.reserve(tagged.size());
    for (std::size_t i = 0; i < tagged.size(); ++i) {
        if (prefix.empty())
            sink.merge(tagged[i].second);
        else
            sink.mergePrefixed(
                tagged[i].second,
                internPrefix(prefix + std::to_string(i) + "."));
        out.push_back(std::move(tagged[i].first));
    }
    return out;
}

} // namespace transfusion::obs

#endif // TRANSFUSION_OBS_PARALLEL_HH
