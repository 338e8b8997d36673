/**
 * @file
 * Cascade of Einsums (Sec. 2.4): an ordered list of extended Einsums
 * where intermediate tensors feed later operations, plus the
 * dependency DAG derived from producer/consumer tensor names.
 */

#ifndef TRANSFUSION_EINSUM_CASCADE_HH
#define TRANSFUSION_EINSUM_CASCADE_HH

#include <string>
#include <vector>

#include "einsum/dag.hh"
#include "einsum/einsum.hh"

namespace transfusion::einsum
{

/** Ordered cascade of Einsums forming one fused computation. */
class Cascade
{
  public:
    /** Create an empty cascade with a display name. */
    explicit Cascade(std::string name);

    /** Append an Einsum; its output name must be unique. */
    Cascade &add(Einsum op);

    const std::string &name() const { return name_; }
    const std::vector<Einsum> &ops() const { return ops_; }
    std::size_t size() const { return ops_.size(); }
    const Einsum &op(std::size_t i) const;

    /** Index of the op producing `tensor`, or -1 if external. */
    int producerOf(const std::string &tensor) const;

    /**
     * Tensor names consumed by the cascade but produced outside it
     * (workload inputs and weights), in first-use order.
     */
    std::vector<std::string> externalInputs() const;

    /**
     * Tensor names produced but never consumed inside the cascade
     * (the cascade outputs), in definition order.
     */
    std::vector<std::string> externalOutputs() const;

    /**
     * Dependency DAG: node i is ops()[i]; edge i->j iff op j consumes
     * the tensor op i produces.  A recurrent op's read of its own
     * carried state does not create a self edge.
     */
    Dag buildDag() const;

    /** Op names, aligned with DAG node ids (for dumps). */
    std::vector<std::string> opNames() const;

    /** Total compute load of all ops under an environment. */
    double totalComputeLoad(const DimEnv &env) const;

    /** Multi-line listing of all Einsums. */
    std::string toString() const;

    bool operator==(const Cascade &) const = default;

  private:
    std::string name_;
    std::vector<Einsum> ops_;
};

} // namespace transfusion::einsum

#endif // TRANSFUSION_EINSUM_CASCADE_HH
