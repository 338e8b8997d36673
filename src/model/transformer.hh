/**
 * @file
 * Transformer workload descriptions for the evaluation models
 * (Sec. 6.1): BERT-Base, TrXL-wt103, T5-small, XLM and Llama3-8B.
 * Only shapes matter for scheduling; weights never do.
 */

#ifndef TRANSFUSION_MODEL_TRANSFORMER_HH
#define TRANSFUSION_MODEL_TRANSFORMER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "einsum/ops.hh"

namespace transfusion::model
{

/** Shape description of one Transformer model. */
struct TransformerConfig
{
    std::string name;
    std::int64_t layers = 0;      ///< encoder/decoder layer count
    std::int64_t d_model = 0;     ///< D = H * E
    std::int64_t heads = 0;       ///< H
    std::int64_t head_dim = 0;    ///< E = F (paper assumes E == F)
    std::int64_t ffn_hidden = 0;  ///< S
    einsum::UnaryOp activation = einsum::UnaryOp::Gelu;
    std::int64_t batch = 64;      ///< B (paper fixes B = 64)

    /**
     * Contraction width of the QKV projections (the `d` index the
     * input activations carry); 0 means d_model.  Single-chip
     * models leave this alone.  Tensor-parallel sharding sets it:
     * a chip holding H/tp heads projects the FULL d_model-wide
     * input into its D/tp-wide slice (Megatron column-parallel
     * QKV), so its config has d_model = D/tp but d_input = D.
     */
    std::int64_t d_input = 0;

    /** The bound value of the `d` contraction index. */
    std::int64_t dInput() const
    {
        return d_input > 0 ? d_input : d_model;
    }

    /** Validate D == H*E and positivity; fatal otherwise. */
    void validate() const;

    bool operator==(const TransformerConfig &) const = default;
};

/** @name Model presets used by the paper's evaluation */
/// @{
TransformerConfig bertBase();  ///< BERT-Base [8]
TransformerConfig trxl();      ///< Transformer-XL wt103 [4]
TransformerConfig t5Small();   ///< T5-small [39]
TransformerConfig xlm();       ///< XLM [19]
TransformerConfig llama3_8b(); ///< Llama3-8B [11]
/// @}

/** All five evaluation models, paper order. */
std::vector<TransformerConfig> allModels();

/** Preset lookup by name; fatal on unknown. */
TransformerConfig modelByName(const std::string &name);

} // namespace transfusion::model

#endif // TRANSFUSION_MODEL_TRANSFORMER_HH
