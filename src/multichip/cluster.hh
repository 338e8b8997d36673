/**
 * @file
 * Multi-chip cluster description: N accelerator chips joined by an
 * inter-chip link model (bandwidth, latency, per-byte energy,
 * ring / fully-connected topology).  The single-chip ArchConfig
 * stays untouched; a cluster is a vector of them plus the fabric.
 *
 * Presets mirror the paper's Table 3 split: `cloudCluster` models a
 * TPU-pod-slice-style ICI fabric, `edgeCluster` a board-level link
 * between mobile NPUs.
 */

#ifndef TRANSFUSION_MULTICHIP_CLUSTER_HH
#define TRANSFUSION_MULTICHIP_CLUSTER_HH

#include <string>
#include <vector>

#include "arch/arch.hh"

namespace transfusion::multichip
{

/** How the chips are wired. */
enum class Topology
{
    Ring,           ///< each chip talks to two neighbours
    FullyConnected, ///< every pair has a direct link
};

/** Printable name ("ring" / "fully-connected"). */
std::string toString(Topology t);

/**
 * Per-chip link model.  `bandwidth_bytes_per_sec` is what one chip
 * can inject per direction; collectives are bandwidth-bound by it
 * regardless of topology (every byte leaves through some chip's
 * serdes).  Topology decides the latency-term step count and
 * point-to-point hop distance.
 */
struct LinkConfig
{
    double bandwidth_bytes_per_sec = 0;
    double latency_s = 0;      ///< per-hop/step startup latency
    double pj_per_byte = 0;    ///< link energy per byte moved
    Topology topology = Topology::Ring;

    /** Fatal (naming the field) on non-positive values. */
    void validate() const;

    bool operator==(const LinkConfig &) const = default;
};

/** N chips plus the fabric between them. */
struct ClusterConfig
{
    std::string name;
    std::vector<arch::ArchConfig> chips;
    LinkConfig link;

    int size() const { return static_cast<int>(chips.size()); }

    /** Whether every chip is field-wise identical to chip 0. */
    bool homogeneous() const;

    /**
     * Validate every chip (ArchConfig::validate) and, for size > 1,
     * the link; fatal otherwise.  A 1-chip cluster needs no link,
     * so a default LinkConfig is legal there.
     */
    void validate() const;

    /** One-line summary for banners and reports. */
    std::string toString() const;

    bool operator==(const ClusterConfig &) const = default;
};

/** `n` copies of `chip` on `link`. */
ClusterConfig homogeneousCluster(arch::ArchConfig chip, int n,
                                 LinkConfig link,
                                 const std::string &name = "");

/** ICI/NVLink-class fabric: 100 GB/s, 1 us, 20 pJ/B, ring. */
LinkConfig cloudLink();

/** Board/PCB-class fabric: 5 GB/s, 5 us, 80 pJ/B, ring. */
LinkConfig edgeLink();

/** `n` cloud chips (Table 3 row 1) on cloudLink(). */
ClusterConfig cloudCluster(int n);

/** `n` edge NPUs (Table 3 row 2) on edgeLink(). */
ClusterConfig edgeCluster(int n);

/** Preset lookup by name ("cloud", "edge"); fatal on unknown. */
ClusterConfig clusterByName(const std::string &name, int n);

} // namespace transfusion::multichip

#endif // TRANSFUSION_MULTICHIP_CLUSTER_HH
