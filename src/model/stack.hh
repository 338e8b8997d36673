/**
 * @file
 * Model-structure composition (Sec. 3.2): TransFusion's sub-layers
 * share the [B,H,F,P] interface, so encoders, decoders and hybrid
 * encoder-decoder stacks compose from the same fused blocks.  A
 * StackConfig describes such a composition; the StackEvaluator in
 * schedule/ prices it end-to-end.
 */

#ifndef TRANSFUSION_MODEL_STACK_HH
#define TRANSFUSION_MODEL_STACK_HH

#include <cstdint>
#include <string>

#include "model/transformer.hh"

namespace transfusion::model
{

/** Attention flavours a block can use. */
enum class AttentionKind
{
    BidirectionalSelf, ///< encoder self-attention
    CausalSelf,        ///< decoder (masked) self-attention
    Cross,             ///< decoder attention over encoder output
};

/** Printable name. */
std::string toString(AttentionKind kind);

/** An encoder/decoder composition of Transformer blocks. */
struct StackConfig
{
    std::string name;
    TransformerConfig block;      ///< shared block shapes
    std::int64_t encoder_layers = 0;
    std::int64_t decoder_layers = 0;
    /** Decoder blocks include cross-attention (seq2seq style). */
    bool decoder_cross_attention = true;

    /** Validate shapes and at least one layer; fatal otherwise. */
    void validate() const;

    bool operator==(const StackConfig &) const = default;
};

/** Encoder-only stack (BERT style). */
StackConfig encoderOnly(TransformerConfig block);

/** Decoder-only stack (GPT/Llama style: causal, no cross). */
StackConfig decoderOnly(TransformerConfig block);

/** Seq2seq stack (T5 style: encoder + cross-attending decoder). */
StackConfig encoderDecoder(TransformerConfig block,
                           std::int64_t encoder_layers,
                           std::int64_t decoder_layers);

} // namespace transfusion::model

#endif // TRANSFUSION_MODEL_STACK_HH
