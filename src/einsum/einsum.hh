/**
 * @file
 * TensorRef and Einsum: one node of an Einsum cascade.
 *
 * Mirrors the paper's notation, e.g. Eq. 12
 *
 *   BQK[h,m1,m0,p] = Q[h,e,p] x BK[h,e,m1,m0]
 *
 * becomes
 *
 *   Einsum("BQK", {"h","m1","m0","p"})
 *       .input("Q", {"h","e","p"})
 *       .input("BK", {"h","e","m1","m0"})
 *       .combine(CombineOp::Mul).reduce(ReduceOp::Sum);
 *
 * Recurrent state updates (RM, RD, RNV in Fig. 2) are expressed by
 * marking the Einsum `recurrentOver("m1")`: the op reads and writes
 * the same tensor across the m1 loop, which matters for DAG edges
 * (no self-dependency within one iteration) and buffer accounting.
 */

#ifndef TRANSFUSION_EINSUM_EINSUM_HH
#define TRANSFUSION_EINSUM_EINSUM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "einsum/dims.hh"
#include "einsum/ops.hh"

namespace transfusion::einsum
{

/**
 * A named tensor with its index signature.  Construction resolves
 * the indices' ids once, so a ref built anywhere counts its elements
 * by id.
 */
struct TensorRef
{
    TensorRef(std::string name, std::vector<std::string> indices,
              bool previous = false);

    std::string name;                 ///< tensor name (e.g. "BQK")
    std::vector<std::string> indices; ///< index labels, outer->inner
    /**
     * Loop-carried read: this operand is the *previous* loop
     * iteration's value of a recurrent tensor (e.g. RM[m1] inside
     * Eq. 18, as opposed to the just-updated RM[m1+1]).
     */
    bool previous = false;

    /** The ids of `indices`, in the same order. */
    const std::vector<DimId> &ids() const { return ids_; }

    /** Number of elements under an environment. */
    double elementCount(const DimEnv &env) const
    {
        return env.productOf(ids_);
    }

    /** "Name[i,j,k]" rendering ("Name'[...]" for previous reads). */
    std::string toString() const;

    bool operator==(const TensorRef &) const = default;

  private:
    std::vector<DimId> ids_;
};

/** One extended-Einsum operation. */
class Einsum
{
  public:
    /** Create an Einsum producing tensor `name` with `out_indices`. */
    Einsum(std::string name, std::vector<std::string> out_indices);

    /** @name Fluent construction */
    /// @{
    Einsum &input(std::string tensor,
                  std::vector<std::string> indices);
    /** A loop-carried read of recurrent state (see TensorRef). */
    Einsum &inputPrevious(std::string tensor,
                          std::vector<std::string> indices);
    Einsum &combine(CombineOp op);
    Einsum &unary(UnaryOp op);
    Einsum &reduce(ReduceOp op);
    /** Constant multiplicative factor (e.g. 1/(H*F) in Eq. 30). */
    Einsum &scale(double factor);
    /** Mark as a recurrence carried over loop index `idx`. */
    Einsum &recurrentOver(std::string idx);
    /** Override the derived PE-array class. */
    Einsum &forcePeClass(PeClass pc);
    /// @}

    /** @name Introspection */
    /// @{
    const std::string &name() const { return output_.name; }
    const TensorRef &output() const { return output_; }
    const std::vector<TensorRef> &inputs() const { return inputs_; }
    CombineOp combineOp() const { return combine_; }
    UnaryOp unaryOp() const { return unary_; }
    ReduceOp reduceOp() const { return reduce_; }
    double scaleFactor() const { return scale_; }
    bool isRecurrent() const { return !recurrent_index.empty(); }
    const std::string &recurrentIndex() const
    {
        return recurrent_index;
    }
    /// @}

    /**
     * Reduction indices per Eq. 40: labels appearing in at least one
     * input but not in the output, in first-appearance order.  Kept
     * up to date as inputs are added.
     */
    const std::vector<std::string> &reductionIndices() const
    {
        return reduction_;
    }

    /**
     * Compute load per Eq. 40: product of output extents times
     * product of reduction extents (scalar map-reduce operations),
     * read by id.
     */
    double
    computeLoad(const DimEnv &env) const
    {
        return env.productOf(output_.ids())
            * env.productOf(reduction_ids_);
    }

    /**
     * Native PE-array class: Matrix iff the op is a two-input
     * multiply-accumulate contraction; Vector otherwise.  A forced
     * override (forcePeClass) wins.
     */
    PeClass peClass() const;

    /** Human-readable one-line description. */
    std::string toString() const;

    bool operator==(const Einsum &) const = default;

  private:
    Einsum &addInput(TensorRef in);

    TensorRef output_;
    std::vector<TensorRef> inputs_;
    std::vector<std::string> reduction_;
    std::vector<DimId> reduction_ids_; ///< ids of reduction_
    CombineOp combine_ = CombineOp::None;
    UnaryOp unary_ = UnaryOp::None;
    ReduceOp reduce_ = ReduceOp::None;
    double scale_ = 1.0;
    std::string recurrent_index;
    bool pe_class_forced = false;
    PeClass forced_pe_class = PeClass::Vector;
};

} // namespace transfusion::einsum

#endif // TRANSFUSION_EINSUM_EINSUM_HH
