/**
 * @file
 * Implementation of the DPipe pipeline construction.
 */

#include "pipeline.hh"

#include <algorithm>

#include "common/logging.hh"
#include "costmodel/cost_table_cache.hh"
#include "dpipe/plan_skeleton.hh"
#include "obs/obs.hh"

namespace transfusion::dpipe
{

using costmodel::PeTarget;

namespace
{

/** Per-op costs DPipe prices, each op's load computed once. */
struct OpCosts
{
    /// [2D, 1D] seconds per epoch by op id, plus the steady-state
    /// DAG's virtual ROOT (op n), which takes no time.
    std::vector<OpLatencyPair> lat_epoch;
    std::vector<double> full_load; ///< whole-op compute load by op id

    bool operator==(const OpCosts &) const = default;
};

/**
 * One pricing's plan and the search tallies it records.  The tallies
 * are recorded from here, after the lookup, on a memo hit and a
 * miss alike, so a memo entry holds no string-keyed registry
 * snapshot: that keeps each entry about half as large.
 */
struct PricedPlan
{
    PipelineResult plan;
    DpSearchStats dp;
    std::int64_t bipartitions_tried = 0;
    std::int64_t bipartitions_kept = 0;

    /** Record the dpipe/ counters and gauges of this pricing. */
    void record() const
    {
        dp.record();
        TF_COUNT("dpipe/pipeline/plans", 1);
        if (plan.epochs < 2)
            return; // no bipartition was searched
        TF_COUNT("dpipe/pipeline/bipartitions_tried",
                 bipartitions_tried);
        TF_COUNT("dpipe/pipeline/bipartitions_improved",
                 bipartitions_kept);
        TF_COUNT("dpipe/pipeline/pipelined_chosen",
                 plan.pipelined ? 1 : 0);
        TF_GAUGE_ADD("dpipe/pipeline/fill_s", plan.fill_seconds);
        TF_GAUGE_ADD("dpipe/pipeline/drain_s", plan.drain_seconds);
        TF_GAUGE_ADD("dpipe/pipeline/steady_epoch_s",
                     plan.steady_epoch_seconds);
    }
};

/**
 * CostTableCache key of one schedulePipeline pricing: every input
 * the search reads once the op costs are known.  The skeleton
 * pointer is one of the four constant layer skeletons, so it names
 * the sub-layer; the cheap members come first so the defaulted ==
 * rejects early.  The key sits below the Evaluator's DimEnv on
 * purpose: LayerNorm and FFN never read the context tiling that
 * changes with cache length, so their op costs (and plans) repeat
 * across it.
 */
struct PlanKey
{
    using Value = PricedPlan;

    const PlanSkeleton *skeleton;
    std::int64_t epochs;
    OpCosts costs;

    bool operator==(const PlanKey &) const = default;
};

/**
 * Price every op of `cascade` once: its load, and from that load
 * opLatencySeconds's exact arithmetic (Eq. 41-42) on each array,
 * divided into `epochs`.
 */
OpCosts
opCosts(const einsum::Cascade &cascade, const einsum::DimEnv &dims,
        const arch::ArchConfig &arch,
        const costmodel::LatencyParams &params, double epochs)
{
    OpCosts c;
    c.lat_epoch.reserve(cascade.size() + 1);
    c.full_load.reserve(cascade.size());
    for (const auto &op : cascade.ops()) {
        const double load = op.computeLoad(dims);
        const auto seconds = [&](PeTarget target) {
            return costmodel::computeCycles(
                       load, costmodel::effectivePes(op, arch, target,
                                                     params))
                / arch.clock_hz / epochs;
        };
        c.lat_epoch.push_back({ seconds(PeTarget::Array2d),
                                seconds(PeTarget::Array1d) });
        c.full_load.push_back(load);
    }
    c.lat_epoch.push_back({ 0.0, 0.0 });
    return c;
}

/** Accumulate a schedule's per-array work from full-op loads. */
void
addWork(WorkSplit &work, const Schedule &sched,
        const std::vector<double> &full_load, int epochs_counted)
{
    for (const auto &pl : sched.placements) {
        if (pl.op >= static_cast<int>(full_load.size()))
            continue; // virtual root
        const double ops = full_load[static_cast<std::size_t>(pl.op)]
            * static_cast<double>(epochs_counted);
        if (pl.pe == PeTarget::Array2d)
            work.ops_2d += ops;
        else
            work.ops_1d += ops;
    }
}

} // namespace

PipelineResult
scheduleSequential(const einsum::Cascade &cascade,
                   const einsum::DimEnv &dims,
                   const arch::ArchConfig &arch,
                   const PipelineOptions &opts)
{
    PipelineResult r;
    r.epochs = 1;
    r.pipelined = false;
    double t = 0;
    for (const auto &op : cascade.ops()) {
        const bool matrix = op.peClass() == einsum::PeClass::Matrix;
        const PeTarget target = matrix ? PeTarget::Array2d
                                       : PeTarget::Array1d;
        const double lat = costmodel::opLatencySeconds(
            op, dims, arch, target, opts.latency);
        t += lat;
        const double load = op.computeLoad(dims);
        if (matrix) {
            r.work.ops_2d += load;
            r.work.busy_2d_s += lat;
        } else {
            r.work.ops_1d += load;
            r.work.busy_1d_s += lat;
        }
    }
    r.total_seconds = t;
    r.steady_epoch_seconds = t;
    return r;
}

PipelineResult
scheduleStaticPipeline(const einsum::Cascade &cascade,
                       const einsum::DimEnv &dims,
                       const arch::ArchConfig &arch,
                       const PipelineOptions &opts)
{
    PipelineResult r;
    r.epochs = 1;
    r.pipelined = true;
    for (const auto &op : cascade.ops()) {
        const bool matrix = op.peClass() == einsum::PeClass::Matrix;
        const bool on_2d = matrix
            || (opts.static_exp_on_2d
                && op.unaryOp() == einsum::UnaryOp::Exp);
        const PeTarget target = on_2d ? PeTarget::Array2d
                                      : PeTarget::Array1d;
        const double lat = costmodel::opLatencySeconds(
            op, dims, arch, target, opts.latency);
        const double load = op.computeLoad(dims);
        if (on_2d) {
            r.work.ops_2d += load;
            r.work.busy_2d_s += lat;
        } else {
            r.work.ops_1d += load;
            r.work.busy_1d_s += lat;
        }
    }
    r.total_seconds = std::max(r.work.busy_2d_s, r.work.busy_1d_s);
    r.steady_epoch_seconds = r.total_seconds;
    return r;
}

PipelineResult
scheduleCooperative(const einsum::Cascade &cascade,
                    const einsum::DimEnv &dims,
                    const arch::ArchConfig &arch,
                    const PipelineOptions &opts)
{
    PipelineResult r;
    r.epochs = 1;
    r.pipelined = true;
    double t = 0;
    for (const auto &op : cascade.ops()) {
        const double load = op.computeLoad(dims);
        const double rate_2d =
            costmodel::effectivePes(op, arch, PeTarget::Array2d,
                                    opts.latency)
            * arch.clock_hz;
        const double rate_1d =
            costmodel::effectivePes(op, arch, PeTarget::Array1d,
                                    opts.latency)
            * arch.clock_hz;
        const double rate = rate_2d + rate_1d;
        const double lat = load / rate;
        t += lat;
        // Work and occupancy split in proportion to the rates.
        r.work.ops_2d += load * rate_2d / rate;
        r.work.ops_1d += load * rate_1d / rate;
        r.work.busy_2d_s += lat;
        r.work.busy_1d_s += lat;
    }
    r.total_seconds = t;
    r.steady_epoch_seconds = t;
    return r;
}

namespace
{

/**
 * Search `key.skeleton` for the best plan under `key.costs`.
 * Records nothing: the caller records the returned tallies.
 */
PricedPlan
pricePlan(const PlanKey &key)
{
    const PlanSkeleton &skeleton = *key.skeleton;
    const std::int64_t epochs = key.epochs;
    const auto &[lat_epoch, full_load] = key.costs;
    std::vector<double> scratch;
    PricedPlan priced;
    DpSearchStats &dp_stats = priced.dp;

    // Baseline plan: DP-schedule one epoch, repeat it back-to-back.
    const Schedule epoch_sched = dpSchedule(
        skeleton.epoch,
        bestOrder(skeleton.epoch, lat_epoch, scratch, dp_stats).index,
        lat_epoch);

    PipelineResult &best = priced.plan;
    best.epochs = epochs;
    best.pipelined = false;
    best.steady_epoch_seconds = epoch_sched.makespan;
    best.total_seconds = epoch_sched.makespan
        * static_cast<double>(epochs);
    best.steady_schedule = epoch_sched;
    best.work.busy_2d_s = epoch_sched.busy_2d
        * static_cast<double>(epochs);
    best.work.busy_1d_s = epoch_sched.busy_1d
        * static_cast<double>(epochs);
    addWork(best.work, epoch_sched, full_load, 1);

    if (epochs < 2)
        return priced;

    for (const auto &bp : skeleton.bipartitions) {
        ++priced.bipartitions_tried;
        // Steady state, fill (A alone) and drain (B alone).
        const BestOrder steady =
            bestOrder(bp.steady, lat_epoch, scratch, dp_stats);
        const BestOrder fill =
            bestOrder(bp.fill, lat_epoch, scratch, dp_stats);
        const BestOrder drain =
            bestOrder(bp.drain, lat_epoch, scratch, dp_stats);

        const double total = fill.makespan
            + static_cast<double>(epochs - 1) * steady.makespan
            + drain.makespan;
        if (total < best.total_seconds) {
            ++priced.bipartitions_kept;
            Schedule steady_sched =
                dpSchedule(bp.steady, steady.index, lat_epoch);
            const Schedule fill_sched =
                dpSchedule(bp.fill, fill.index, lat_epoch);
            const Schedule drain_sched =
                dpSchedule(bp.drain, drain.index, lat_epoch);
            PipelineResult r;
            r.epochs = epochs;
            r.pipelined = true;
            r.partition = bp.partition;
            r.steady_epoch_seconds = steady.makespan;
            r.fill_seconds = fill.makespan;
            r.drain_seconds = drain.makespan;
            r.total_seconds = total;
            r.work.busy_2d_s = fill_sched.busy_2d + drain_sched.busy_2d
                + steady_sched.busy_2d
                    * static_cast<double>(epochs - 1);
            r.work.busy_1d_s = fill_sched.busy_1d + drain_sched.busy_1d
                + steady_sched.busy_1d
                    * static_cast<double>(epochs - 1);
            addWork(r.work, steady_sched, full_load, 1);
            r.steady_schedule = std::move(steady_sched);
            best = std::move(r);
        }
    }
    return priced;
}

/** schedulePipeline over `skeleton`, the skeleton of `cascade`. */
PipelineResult
priceSkeleton(const PlanSkeleton &skeleton,
              const einsum::Cascade &cascade,
              const einsum::DimEnv &dims, const arch::ArchConfig &arch,
              const model::DimMapping &mapping,
              const PipelineOptions &opts)
{
    TF_SPAN("dpipe.schedule_pipeline");
    const std::int64_t epochs = std::max<std::int64_t>(
        1, model::epochCount(mapping, dims, arch.pe2d.rows,
                             arch.pe2d.cols));
    const PlanKey key{ &skeleton, epochs,
                       opCosts(cascade, dims, arch, opts.latency,
                               static_cast<double>(epochs)) };
    // Memoized only inside cost-table builds, where calibration
    // grids repeat plans; elsewhere (sweeps) calls rarely repeat
    // and an entry would only cost memory.
    if (!costmodel::CostTableCache::insideBuild()) {
        PricedPlan priced = pricePlan(key);
        priced.record();
        return std::move(priced.plan);
    }
    const auto priced = costmodel::CostTableCache::instance().getOrBuild(
        key, [&] { return pricePlan(key); });
    priced->record();
    return priced->plan;
}

} // namespace

PipelineResult
schedulePipeline(model::LayerKind kind, const einsum::Cascade &cascade,
                 const einsum::DimEnv &dims,
                 const arch::ArchConfig &arch,
                 const PipelineOptions &opts)
{
    return priceSkeleton(layerSkeleton(kind), cascade, dims, arch,
                         model::peMapping(kind), opts);
}

PipelineResult
schedulePipeline(const einsum::Cascade &cascade,
                 const einsum::DimEnv &dims,
                 const arch::ArchConfig &arch,
                 const model::DimMapping &mapping,
                 const PipelineOptions &opts)
{
    const einsum::Dag dag = cascade.buildDag();
    for (const model::LayerKind kind : model::allLayerKinds()) {
        const PlanSkeleton &skeleton = layerSkeleton(kind);
        if (skeleton.dag == dag)
            return priceSkeleton(skeleton, cascade, dims, arch,
                                 mapping, opts);
    }
    tf_fatal("cascade '", cascade.name(),
             "' is not one of the four sub-layer cascades");
}

} // namespace transfusion::dpipe
