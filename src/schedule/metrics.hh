/**
 * @file
 * Result records produced by the evaluator: per-sub-layer and
 * end-to-end latency, energy breakdown, DRAM traffic and per-array
 * work, plus the derived figures the paper plots (speedup,
 * utilization, energy ratios).
 */

#ifndef TRANSFUSION_SCHEDULE_METRICS_HH
#define TRANSFUSION_SCHEDULE_METRICS_HH

#include <array>
#include <string>

#include "arch/arch.hh"
#include "costmodel/energy.hh"
#include "model/cascades.hh"
#include "tileseek/buffer_model.hh"

namespace transfusion::schedule
{

/** Metrics of one Transformer sub-layer under one strategy. */
struct LayerMetrics
{
    double latency_s = 0;
    double compute_s = 0; ///< compute-side time before roofline
    double dram_s = 0;    ///< streaming-side time before roofline
    double dram_bytes = 0;
    double ops_2d = 0;    ///< scalar ops executed on the 2D array
    double ops_1d = 0;
    costmodel::EnergyBreakdown energy;

    LayerMetrics &operator+=(const LayerMetrics &o);
    /** Every field times `factor` (energy via EnergyBreakdown). */
    LayerMetrics scaled(double factor) const;
};

/** Evaluation of one (strategy, model, arch, sequence) point. */
struct EvalResult
{
    /** Indexed by model::LayerKind order: QKV, MHA, LN, FFN. */
    std::array<LayerMetrics, 4> layers;

    /** Sub-layer metrics accessor. */
    LayerMetrics &layer(model::LayerKind kind);
    const LayerMetrics &layer(model::LayerKind kind) const;

    /** Whole-stack totals (all sub-layers, all L layers). */
    LayerMetrics total;

    /** Outer tile used (meaningful for fused strategies). */
    tileseek::TileShape tile;

    /** 2D-array utilization: useful ops over peak for the run. */
    double utilization2d(const arch::ArchConfig &arch) const;

    /** 1D-array utilization. */
    double utilization1d(const arch::ArchConfig &arch) const;
};

/** Index of a LayerKind inside EvalResult::layers. */
std::size_t layerIndex(model::LayerKind kind);

} // namespace transfusion::schedule

#endif // TRANSFUSION_SCHEDULE_METRICS_HH
