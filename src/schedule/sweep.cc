/**
 * @file
 * Implementation of the parallel sweep driver.
 */

#include "sweep.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "obs/parallel.hh"

namespace transfusion::schedule
{

std::string
SweepPoint::label() const
{
    return arch.name + "/" + cfg.name + "/" + std::to_string(seq);
}

const EvalResult &
StrategyMetrics::at(StrategyKind kind) const
{
    const auto it = results.find(kind);
    if (it == results.end())
        tf_fatal("strategy ", toString(kind),
                 " was not evaluated at ", point.label());
    return it->second;
}

Sweep::Sweep(SweepOptions options_) : options(std::move(options_))
{
    if (options.strategies.empty())
        options.strategies = allStrategies();
    thread_count = options.threads > 0
        ? options.threads
        : ThreadPool::hardwareThreads();
}

std::vector<StrategyMetrics>
Sweep::run(const std::vector<SweepPoint> &points) const
{
    if (points.empty())
        return {};
    // No point parking idle workers on a short grid.
    const int workers = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(thread_count), points.size()));
    ThreadPool pool(workers);
    // Observability reports stay bit-identical to the serial sweep
    // for any thread count, like the StrategyMetrics vector itself.
    return obs::parallelMapRecorded(
        pool, points, [this](const SweepPoint &p) {
            StrategyMetrics m;
            m.point = p;
            const Evaluator eval(p.arch, p.cfg, p.seq,
                                 options.evaluator);
            for (const StrategyKind kind : options.strategies)
                m.results.emplace(kind, eval.evaluate(kind));
            return m;
        });
}

std::vector<SweepPoint>
Sweep::grid(const std::vector<arch::ArchConfig> &archs,
            const std::vector<model::TransformerConfig> &models,
            const std::vector<std::int64_t> &seqs)
{
    std::vector<SweepPoint> points;
    points.reserve(archs.size() * models.size() * seqs.size());
    for (const auto &arch : archs)
        for (const auto &cfg : models)
            for (const std::int64_t seq : seqs)
                points.push_back({ arch, cfg, seq });
    return points;
}

} // namespace transfusion::schedule
