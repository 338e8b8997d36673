/**
 * @file
 * Implementation of the metric records.
 */

#include "metrics.hh"

#include "common/logging.hh"

namespace transfusion::schedule
{

LayerMetrics &
LayerMetrics::operator+=(const LayerMetrics &o)
{
    latency_s += o.latency_s;
    compute_s += o.compute_s;
    dram_s += o.dram_s;
    dram_bytes += o.dram_bytes;
    ops_2d += o.ops_2d;
    ops_1d += o.ops_1d;
    energy += o.energy;
    return *this;
}

LayerMetrics
LayerMetrics::scaled(double factor) const
{
    LayerMetrics m;
    m.latency_s = latency_s * factor;
    m.compute_s = compute_s * factor;
    m.dram_s = dram_s * factor;
    m.dram_bytes = dram_bytes * factor;
    m.ops_2d = ops_2d * factor;
    m.ops_1d = ops_1d * factor;
    m.energy = energy.scaled(factor);
    return m;
}

std::size_t
layerIndex(model::LayerKind kind)
{
    switch (kind) {
      case model::LayerKind::Qkv:       return 0;
      case model::LayerKind::Mha:       return 1;
      case model::LayerKind::LayerNorm: return 2;
      case model::LayerKind::Ffn:       return 3;
    }
    tf_panic("unknown LayerKind");
}

LayerMetrics &
EvalResult::layer(model::LayerKind kind)
{
    return layers[layerIndex(kind)];
}

const LayerMetrics &
EvalResult::layer(model::LayerKind kind) const
{
    return layers[layerIndex(kind)];
}

double
EvalResult::utilization2d(const arch::ArchConfig &arch) const
{
    if (total.latency_s <= 0)
        return 0;
    return total.ops_2d / (arch.peak2dOpsPerSec() * total.latency_s);
}

double
EvalResult::utilization1d(const arch::ArchConfig &arch) const
{
    if (total.latency_s <= 0)
        return 0;
    return total.ops_1d / (arch.peak1dOpsPerSec() * total.latency_s);
}

} // namespace transfusion::schedule
