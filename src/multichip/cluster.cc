/**
 * @file
 * Cluster presets and validation.
 */

#include "cluster.hh"

#include <sstream>

#include "common/logging.hh"

namespace transfusion::multichip
{

std::string
toString(Topology t)
{
    switch (t) {
    case Topology::Ring:
        return "ring";
    case Topology::FullyConnected:
        return "fully-connected";
    }
    tf_panic("unhandled Topology");
}

void
LinkConfig::validate() const
{
    const auto positive = [](double v, const char *field) {
        if (!(v > 0))
            tf_fatal("link: ", field, " must be positive, got ", v);
    };
    positive(bandwidth_bytes_per_sec, "bandwidth_bytes_per_sec");
    positive(latency_s, "latency_s");
    positive(pj_per_byte, "pj_per_byte");
}

bool
ClusterConfig::homogeneous() const
{
    for (const auto &chip : chips)
        if (!(chip == chips.front()))
            return false;
    return true;
}

void
ClusterConfig::validate() const
{
    if (chips.empty())
        tf_fatal("cluster '", name, "': must have at least one chip");
    for (const auto &chip : chips)
        chip.validate();
    if (size() > 1)
        link.validate();
}

std::string
ClusterConfig::toString() const
{
    std::ostringstream os;
    os << name << ": " << size() << "x " << chips.front().name;
    if (size() > 1) {
        os << ", " << multichip::toString(link.topology) << " @ "
           << (link.bandwidth_bytes_per_sec / 1e9) << "GB/s, "
           << (link.latency_s * 1e6) << "us, " << link.pj_per_byte
           << "pJ/B";
    }
    return os.str();
}

ClusterConfig
homogeneousCluster(arch::ArchConfig chip, int n, LinkConfig link,
                   const std::string &name)
{
    if (n < 1)
        tf_fatal("cluster size must be >= 1, got ", n);
    ClusterConfig c;
    c.name = name.empty()
                 ? chip.name + "-x" + std::to_string(n)
                 : name;
    c.chips.assign(static_cast<std::size_t>(n), std::move(chip));
    c.link = link;
    c.validate();
    return c;
}

LinkConfig
cloudLink()
{
    LinkConfig l;
    l.bandwidth_bytes_per_sec = 100e9; // ICI/NVLink-class
    l.latency_s = 1e-6;
    l.pj_per_byte = 20.0;
    l.topology = Topology::Ring;
    return l;
}

LinkConfig
edgeLink()
{
    LinkConfig l;
    l.bandwidth_bytes_per_sec = 5e9; // board-level serdes
    l.latency_s = 5e-6;
    l.pj_per_byte = 80.0;
    l.topology = Topology::Ring;
    return l;
}

ClusterConfig
cloudCluster(int n)
{
    return homogeneousCluster(arch::cloudArch(), n, cloudLink(),
                              "cloud-x" + std::to_string(n));
}

ClusterConfig
edgeCluster(int n)
{
    return homogeneousCluster(arch::edgeArch64(), n, edgeLink(),
                              "edge-x" + std::to_string(n));
}

ClusterConfig
clusterByName(const std::string &name, int n)
{
    if (name == "cloud")
        return cloudCluster(n);
    if (name == "edge")
        return edgeCluster(n);
    tf_fatal("unknown cluster preset '", name,
             "' (expected cloud|edge)");
}

} // namespace transfusion::multichip
