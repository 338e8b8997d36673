/**
 * @file
 * Per-Einsum latency estimation (Sec. 4.2, Eq. 40-42): compute load
 * is the product of output-dimension extents and reduction-dimension
 * extents; cycles divide the load by the PEs assigned; latency
 * divides cycles by the clock.
 *
 * The model adds one hardware reality the DP scheduler needs: an op
 * can execute on either array, but off-class execution pays an
 * efficiency penalty (a vector op on the 2D MAC array cannot use the
 * systolic datapath at full rate; a contraction on the 1D array is
 * limited to its element count).  The penalty is a documented,
 * ablatable constant.
 */

#ifndef TRANSFUSION_COSTMODEL_LATENCY_HH
#define TRANSFUSION_COSTMODEL_LATENCY_HH

#include "arch/arch.hh"
#include "einsum/einsum.hh"

namespace transfusion::costmodel
{

/** Which PE array an op is scheduled on. */
enum class PeTarget
{
    Array2d,
    Array1d,
};

/** Printable name ("2D"/"1D"). */
std::string toString(PeTarget t);

/** Tunable modelling constants for the latency estimator. */
struct LatencyParams
{
    /**
     * Cap on the PE lanes a vector-class op can drive when DPipe
     * offloads it onto the 2D MAC array.  Map-only work has no
     * systolic reuse, so it is operand-bandwidth limited: a huge
     * cloud array cannot be fed beyond this many lanes, while a
     * small edge array runs vector work at full width.
     */
    double vector_on_2d_max_lanes = 1024;

    /**
     * Fraction of 1D-array throughput a matrix-class contraction
     * achieves there (broadcast-fed output-stationary GEMV style;
     * slightly below peak for operand alignment).
     */
    double matrix_on_1d_efficiency = 0.9;

    /**
     * Fraction of nominal throughput any op achieves on its native
     * array (drain/fill and mapping losses).
     */
    double native_efficiency = 1.0;

    bool operator==(const LatencyParams &) const = default;
};

/**
 * Effective PEs an op commands on a target array (NumPEs_op in
 * Eq. 41), including the off-class efficiency derating.
 */
double effectivePes(const einsum::Einsum &op,
                    const arch::ArchConfig &arch, PeTarget target,
                    const LatencyParams &params = {});

/** ComputeCycles_op per Eq. 41 for a load already computed. */
double computeCycles(double load, double effective_pes);

/**
 * Latency_op in seconds per Eq. 42 for one execution of `op` under
 * `dims` on `target`.
 */
double opLatencySeconds(const einsum::Einsum &op,
                        const einsum::DimEnv &dims,
                        const arch::ArchConfig &arch, PeTarget target,
                        const LatencyParams &params = {});

} // namespace transfusion::costmodel

#endif // TRANSFUSION_COSTMODEL_LATENCY_HH
