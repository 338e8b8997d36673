/**
 * @file
 * The five execution systems compared in Sec. 6: the Unfused
 * baseline, FLAT, FuseMax, the FuseMax+LayerFuse ablation, and
 * TransFusion itself.
 */

#ifndef TRANSFUSION_SCHEDULE_STRATEGY_HH
#define TRANSFUSION_SCHEDULE_STRATEGY_HH

#include <string>
#include <vector>

namespace transfusion::schedule
{

/** Evaluated system. */
enum class StrategyKind
{
    Unfused,          ///< phase-by-phase, DRAM between phases
    Flat,             ///< FLAT: fused attention, rest unfused
    FuseMax,          ///< FuseMax: pipelined fused attention
    FuseMaxLayerFuse, ///< ablation: FuseMax + inter-layer fusion
    TransFusion,      ///< full system: LayerFuse + DPipe + TileSeek
};

/** Display name matching the paper's legends. */
std::string toString(StrategyKind kind);

/**
 * `prefix + toString(kind)` for every strategy, indexed by the enum
 * value.  Kept in a function-local static, it names per-strategy
 * spans without building a string per call.
 */
std::vector<std::string> strategyNames(const std::string &prefix);

/** All strategies, baseline first. */
std::vector<StrategyKind> allStrategies();

/** Whether the strategy fuses the whole layer stack (Sec. 3.2). */
bool usesLayerFusion(StrategyKind kind);

} // namespace transfusion::schedule

#endif // TRANSFUSION_SCHEDULE_STRATEGY_HH
