/**
 * @file
 * DPipe top level (Sec. 4): pipeline a cascade's inner-tile epochs
 * across the 1D/2D PE arrays.
 *
 * Fig. 7(d) construction: pick a valid bipartition (A, B), overlap
 * epoch t+1's A-subgraph with epoch t's B-subgraph, join them under
 * a virtual ROOT, and let the Eq. 43-46 DP schedule the interleaved
 * ops.  Steady-state throughput is one epoch per combined makespan;
 * the pipeline fills with A alone and drains with B alone.  DPipe
 * keeps the best plan over all valid bipartitions and candidate
 * topological orders, and falls back to per-epoch DP scheduling
 * when no valid bipartition exists (e.g. the QKV cascade, whose
 * nodes are simultaneously sources and sinks).  The bipartitions,
 * sub-DAGs and candidate orders come from the sub-layer's constant
 * PlanSkeleton (dpipe/plan_skeleton.hh); a call only prices them.
 */

#ifndef TRANSFUSION_DPIPE_PIPELINE_HH
#define TRANSFUSION_DPIPE_PIPELINE_HH

#include <cstdint>

#include "arch/arch.hh"
#include "costmodel/latency.hh"
#include "dpipe/dp_scheduler.hh"
#include "dpipe/partition.hh"
#include "einsum/cascade.hh"
#include "model/pe_mapping.hh"

namespace transfusion::dpipe
{

/** Tuning knobs for the pipeline search. */
struct PipelineOptions
{
    costmodel::LatencyParams latency;

    /**
     * For scheduleStaticPipeline only: place exponentiation maps on
     * the 2D array (FuseMax "pipelines partial softmax over 2D PE
     * arrays"); reductions and the remaining vector work stay on
     * the 1D array.
     */
    bool static_exp_on_2d = false;

    bool operator==(const PipelineOptions &) const = default;
};

/** Work/occupancy split of one execution plan. */
struct WorkSplit
{
    double ops_2d = 0;    ///< scalar ops executed on the 2D array
    double ops_1d = 0;    ///< scalar ops executed on the 1D array
    double busy_2d_s = 0; ///< seconds the 2D array was occupied
    double busy_1d_s = 0; ///< seconds the 1D array was occupied
};

/** DPipe execution plan for one cascade. */
struct PipelineResult
{
    double total_seconds = 0;
    double steady_epoch_seconds = 0;
    double fill_seconds = 0;
    double drain_seconds = 0;
    std::int64_t epochs = 1;
    bool pipelined = false;   ///< a bipartition pipeline was chosen
    Bipartition partition;    ///< meaningful when pipelined
    WorkSplit work;
    Schedule steady_schedule; ///< one steady-state epoch
};

/**
 * Compute-side DPipe plan for sub-layer `kind`, whose cascade (from
 * model::buildCascade) is `cascade`.  Inner tiles follow the Table 1
 * mapping model::peMapping(kind); per-epoch op latency is the
 * full-op Eq. 42 latency divided by the epoch count.  The search
 * prices layerSkeleton(kind): the bipartitions and candidate orders
 * are never rebuilt.
 *
 * Inside a cost-table build (CostTableCache::insideBuild()), the
 * search is memoized through the CostTableCache, keyed on the
 * skeleton, the epoch count and the exact per-op latencies and
 * loads -- everything the search reads -- so the calibration grid's
 * repeats (QKV, LayerNorm and FFN do not depend on cache length)
 * are priced once per cache lifetime.  An entry stores the plan and
 * the search's tallies, and every call records the dpipe/ counters
 * and gauges from those tallies, so a hit and a miss leave the
 * registry identically.  Outside a build (figure sweeps), and on
 * the fresh threads of a multi-worker parallelMap a build starts,
 * every call prices directly.
 */
PipelineResult schedulePipeline(model::LayerKind kind,
                                const einsum::Cascade &cascade,
                                const einsum::DimEnv &dims,
                                const arch::ArchConfig &arch,
                                const PipelineOptions &opts = {});

/**
 * The same search for a cascade given without its kind, under an
 * explicit `mapping`: the sub-layer is found by comparing
 * `cascade.buildDag()` with the four layer skeletons' DAGs.  Fatal
 * for a cascade that is none of the four sub-layers (e.g. the
 * Unfused MHA cascade).
 */
PipelineResult schedulePipeline(const einsum::Cascade &cascade,
                                const einsum::DimEnv &dims,
                                const arch::ArchConfig &arch,
                                const model::DimMapping &mapping,
                                const PipelineOptions &opts = {});

/**
 * Non-pipelined reference: every op runs on its native array, one
 * after another (the Unfused/FLAT execution style).  Returns the
 * same bookkeeping so strategies can compare uniformly.
 */
PipelineResult scheduleSequential(const einsum::Cascade &cascade,
                                  const einsum::DimEnv &dims,
                                  const arch::ArchConfig &arch,
                                  const PipelineOptions &opts = {});

/**
 * FuseMax-style static pipeline: matrix ops on the 2D array and
 * vector ops on the 1D array run concurrently (perfectly
 * overlapped), but no DP placement and no cross-array offloading.
 */
PipelineResult scheduleStaticPipeline(const einsum::Cascade &cascade,
                                      const einsum::DimEnv &dims,
                                      const arch::ArchConfig &arch,
                                      const PipelineOptions &opts = {});

/**
 * Cooperative tile-split plan: because an Einsum's inner tiles are
 * mutually independent (the recurrence is carried across epochs,
 * not within one), DPipe may spread a single op's tiles over BOTH
 * arrays simultaneously.  Each op then runs at the sum of its
 * per-array effective rates; ops execute in topological order.
 * This is the plan that wins when the two arrays have comparable
 * size and one op class dominates (e.g. the 32x32/64x64 edge
 * variants of Fig. 9).
 */
PipelineResult scheduleCooperative(const einsum::Cascade &cascade,
                                   const einsum::DimEnv &dims,
                                   const arch::ArchConfig &arch,
                                   const PipelineOptions &opts = {});

} // namespace transfusion::dpipe

#endif // TRANSFUSION_DPIPE_PIPELINE_HH
