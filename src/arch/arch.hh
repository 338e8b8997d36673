/**
 * @file
 * Architecture description (Fig. 1 / Table 3): off-chip DRAM, a
 * shared on-chip buffer, a 2D PE array for matrix-dense work and a
 * 1D PE array for streaming/vector work.  Includes the Accelergy
 * substitute: per-access energy constants at a 45 nm-class node.
 */

#ifndef TRANSFUSION_ARCH_ARCH_HH
#define TRANSFUSION_ARCH_ARCH_HH

#include <cstdint>
#include <string>

namespace transfusion::arch
{

/** Rectangular 2D processing-element array. */
struct PeArray2d
{
    std::int64_t rows = 0;
    std::int64_t cols = 0;

    std::int64_t count() const { return rows * cols; }

    bool operator==(const PeArray2d &) const = default;
};

/**
 * Per-access energy constants (Accelergy substitute).
 *
 * Values are 45 nm-class estimates in the ranges published by
 * Horowitz (ISSCC'14) and used by Accelergy's example tables:
 * a 16-bit MAC costs ~1 pJ, a small register file access a fraction
 * of a pJ, a multi-megabyte SRAM buffer several pJ per word, and
 * DRAM tens-to-hundreds of pJ per byte (HBM-class low, LPDDR-class
 * high).  Figure 12/13 reproduce component *ratios*, which are
 * robust to the exact choices; a property test sweeps these +-2x.
 */
struct EnergyTable
{
    double mac_pj = 1.0;        ///< per scalar map-reduce op on a PE
    double reg_pj = 0.3;        ///< per register-file word access
    double buffer_pj = 6.0;     ///< per on-chip buffer word access
    double dram_pj_per_byte = 31.2; ///< per DRAM byte moved

    bool operator==(const EnergyTable &) const = default;
};

/** Complete architecture instance consumed by the cost model. */
struct ArchConfig
{
    std::string name;
    PeArray2d pe2d;            ///< matrix array (Table 3 "2D PE size")
    std::int64_t pe1d = 0;     ///< vector array element count
    std::int64_t buffer_bytes = 0;  ///< shared on-chip buffer
    double dram_bytes_per_sec = 0;  ///< DRAM bandwidth
    double clock_hz = 0;       ///< PE clock f_clk (Eq. 42)
    int element_bytes = 2;     ///< fp16 datapath, as in FuseMax
    EnergyTable energy;

    /** Peak MACs per second of the 2D array. */
    double peak2dOpsPerSec() const
    {
        return static_cast<double>(pe2d.count()) * clock_hz;
    }

    /** Peak ops per second of the 1D array. */
    double peak1dOpsPerSec() const
    {
        return static_cast<double>(pe1d) * clock_hz;
    }

    /** One-line summary for reports. */
    std::string toString() const;

    /**
     * Reject configurations the cost model divides by: fatal (with
     * the offending field named) on non-positive PE dims, buffer,
     * DRAM bandwidth, clock or element size.  Every evaluator and
     * bench/example entry point calls this, so a zeroed config
     * fails with a message instead of a silent division by zero in
     * the roofline.
     */
    void validate() const;

    /** Member-wise equality (TP-group homogeneity, cache keys). */
    bool operator==(const ArchConfig &) const = default;
};

/** Cloud preset: TPU v2/v3-like (Table 3 row 1). */
ArchConfig cloudArch();

/** Edge preset: TileFlow-style edge NPU (Table 3 row 2). */
ArchConfig edgeArch();

/** Edge variant with a 32x32 2D array (Sec. 6.2, Fig. 9). */
ArchConfig edgeArch32();

/** Edge variant with a 64x64 2D array and 8 MB buffer (Fig. 9). */
ArchConfig edgeArch64();

/** Look up a preset by name ("cloud", "edge", "edge32", "edge64"). */
ArchConfig archByName(const std::string &name);

} // namespace transfusion::arch

#endif // TRANSFUSION_ARCH_ARCH_HH
