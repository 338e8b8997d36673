/**
 * @file
 * Strategy names and properties.
 */

#include "strategy.hh"

#include "common/logging.hh"

namespace transfusion::schedule
{

std::string
toString(StrategyKind kind)
{
    switch (kind) {
      case StrategyKind::Unfused:          return "Unfused";
      case StrategyKind::Flat:             return "FLAT";
      case StrategyKind::FuseMax:          return "FuseMax";
      case StrategyKind::FuseMaxLayerFuse: return "FuseMax+LayerFuse";
      case StrategyKind::TransFusion:      return "TransFusion";
    }
    tf_panic("unknown StrategyKind");
}

std::vector<StrategyKind>
allStrategies()
{
    return { StrategyKind::Unfused, StrategyKind::Flat,
             StrategyKind::FuseMax, StrategyKind::FuseMaxLayerFuse,
             StrategyKind::TransFusion };
}

std::vector<std::string>
strategyNames(const std::string &prefix)
{
    std::vector<std::string> names;
    for (const StrategyKind kind : allStrategies()) {
        tf_assert(static_cast<std::size_t>(kind) == names.size(),
                  "allStrategies() must list the enum in order");
        names.push_back(prefix + toString(kind));
    }
    return names;
}

bool
usesLayerFusion(StrategyKind kind)
{
    return kind == StrategyKind::FuseMaxLayerFuse
        || kind == StrategyKind::TransFusion;
}

} // namespace transfusion::schedule
