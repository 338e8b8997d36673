/**
 * @file
 * Builders for the paper's four Einsum cascades:
 *
 *   Cascade 1 (Fig. 2): 1-pass multi-head attention
 *   Cascade 2 (Fig. 4): tiled QKV projections with shared input
 *   Cascade 3 (Fig. 5): Add & LayerNorm
 *   Cascade 4 (Fig. 6): feed-forward network
 *
 * plus the DimEnv factory that binds the paper's index variables
 * (d, p, h, e, f, s, m1, m0) for a given model / sequence / tiling.
 */

#ifndef TRANSFUSION_MODEL_CASCADES_HH
#define TRANSFUSION_MODEL_CASCADES_HH

#include <cstdint>

#include "einsum/cascade.hh"
#include "model/transformer.hh"

namespace transfusion::model
{

/** The four fused sub-layers of a Transformer layer. */
enum class LayerKind
{
    Qkv,
    Mha,
    LayerNorm,
    Ffn,
};

/** Paper-order list of the sub-layers. */
std::vector<LayerKind> allLayerKinds();

/** Display name ("QKV", "MHA", "LayerNorm", "FFN"). */
std::string toString(LayerKind kind);

/**
 * Bind index extents for one layer evaluation.
 *
 * @param cfg     model shapes (binds d, h, e, f, s)
 * @param seq_p   number of query positions processed (binds p)
 * @param m0      inner sequence tile (binds m0)
 * @param m1      number of outer sequence tiles (binds m1);
 *                m1 * m0 is the attended context length
 */
einsum::DimEnv makeDims(const TransformerConfig &cfg,
                        std::int64_t seq_p, std::int64_t m0,
                        std::int64_t m1);

/** Cascade 2: Q / BK / BV projections (Eq. 25-27). */
einsum::Cascade buildQkvCascade();

/** Cascade 1: the 12-Einsum 1-pass attention (Eq. 12-23). */
einsum::Cascade buildMhaCascade();

/** Cascade 3: Add & LayerNorm (Eq. 28-36). */
einsum::Cascade buildLayerNormCascade();

/**
 * The Unfused baseline's attention: QK^T, full 3-pass softmax
 * (global max, exponentiate+sum, divide) and the weighted sum with
 * V, with every intermediate materialized (Sec. 6.1 "Unfused").
 */
einsum::Cascade buildUnfusedMhaCascade();

/**
 * Cascade 4: FFN (Eq. 37-39), with the bias adds split into their
 * own vector Einsums so DPipe can pipeline them.
 */
einsum::Cascade buildFfnCascade(einsum::UnaryOp activation);

/**
 * Cascade for a sub-layer of a given model.  It reads only
 * `cfg.d_model` and `cfg.activation`; schedule::Evaluator shares
 * cascades across configs by those two fields.
 */
einsum::Cascade buildCascade(LayerKind kind,
                             const TransformerConfig &cfg);

} // namespace transfusion::model

#endif // TRANSFUSION_MODEL_CASCADES_HH
