/**
 * @file
 * Implementation of TensorRef and Einsum.
 */

#include "einsum.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"

namespace transfusion::einsum
{

TensorRef::TensorRef(std::string name, std::vector<std::string> indices,
                     bool previous)
    : name(std::move(name)), indices(std::move(indices)),
      previous(previous), ids_(internDims(this->indices))
{}

std::string
TensorRef::toString() const
{
    std::ostringstream os;
    os << name << (previous ? "'" : "") << "[";
    for (std::size_t i = 0; i < indices.size(); ++i)
        os << indices[i] << (i + 1 == indices.size() ? "" : ",");
    os << "]";
    return os.str();
}

Einsum::Einsum(std::string name, std::vector<std::string> out_indices)
    : output_(std::move(name), std::move(out_indices))
{
    tf_assert(!output_.name.empty(), "Einsum needs an output name");
}

Einsum &
Einsum::input(std::string tensor, std::vector<std::string> indices)
{
    return addInput(
        TensorRef{std::move(tensor), std::move(indices), false});
}

Einsum &
Einsum::inputPrevious(std::string tensor,
                      std::vector<std::string> indices)
{
    return addInput(
        TensorRef{std::move(tensor), std::move(indices), true});
}

Einsum &
Einsum::addInput(TensorRef in)
{
    tf_assert(inputs_.size() < 2,
              "extended Einsums take at most two inputs; op ",
              output_.name);
    // Eq. 40's reduction indices, in first-appearance order.
    for (std::size_t i = 0; i < in.indices.size(); ++i) {
        const std::string &idx = in.indices[i];
        if (std::ranges::find(output_.indices, idx)
                    == output_.indices.end()
                && std::ranges::find(reduction_, idx)
                    == reduction_.end()) {
            reduction_.push_back(idx);
            reduction_ids_.push_back(in.ids()[i]);
        }
    }
    inputs_.push_back(std::move(in));
    return *this;
}

Einsum &
Einsum::combine(CombineOp op)
{
    combine_ = op;
    return *this;
}

Einsum &
Einsum::unary(UnaryOp op)
{
    unary_ = op;
    return *this;
}

Einsum &
Einsum::reduce(ReduceOp op)
{
    reduce_ = op;
    return *this;
}

Einsum &
Einsum::scale(double factor)
{
    scale_ = factor;
    return *this;
}

Einsum &
Einsum::recurrentOver(std::string idx)
{
    recurrent_index = std::move(idx);
    return *this;
}

Einsum &
Einsum::forcePeClass(PeClass pc)
{
    pe_class_forced = true;
    forced_pe_class = pc;
    return *this;
}

PeClass
Einsum::peClass() const
{
    if (pe_class_forced)
        return forced_pe_class;
    const bool contraction = inputs_.size() == 2
        && combine_ == CombineOp::Mul && reduce_ == ReduceOp::Sum
        && !reduction_.empty();
    return contraction ? PeClass::Matrix : PeClass::Vector;
}

std::string
Einsum::toString() const
{
    std::ostringstream os;
    os << output_.toString() << " =";
    if (reduce_ != ReduceOp::None)
        os << " " << einsum::toString(reduce_) << "_red";
    if (unary_ != UnaryOp::None)
        os << " " << einsum::toString(unary_);
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
        os << " " << inputs_[i].toString();
        if (i + 1 < inputs_.size())
            os << " " << einsum::toString(combine_);
    }
    if (scale_ != 1.0)
        os << " * " << scale_;
    if (isRecurrent())
        os << " (recurrent over " << recurrent_index << ")";
    return os.str();
}

} // namespace transfusion::einsum
