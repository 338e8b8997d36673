/**
 * @file
 * Cascade builders transcribing Fig. 2 and Fig. 4-6 of the paper.
 */

#include "cascades.hh"

#include "common/logging.hh"

namespace transfusion::model
{

using einsum::Cascade;
using einsum::CombineOp;
using einsum::DimEnv;
using einsum::Einsum;
using einsum::ReduceOp;
using einsum::UnaryOp;

std::vector<LayerKind>
allLayerKinds()
{
    return { LayerKind::Qkv, LayerKind::Mha, LayerKind::LayerNorm,
             LayerKind::Ffn };
}

std::string
toString(LayerKind kind)
{
    switch (kind) {
      case LayerKind::Qkv:       return "QKV";
      case LayerKind::Mha:       return "MHA";
      case LayerKind::LayerNorm: return "LayerNorm";
      case LayerKind::Ffn:       return "FFN";
    }
    tf_panic("unknown LayerKind");
}

DimEnv
makeDims(const TransformerConfig &cfg, std::int64_t seq_p,
         std::int64_t m0, std::int64_t m1)
{
    cfg.validate();
    tf_assert(seq_p > 0 && m0 > 0 && m1 > 0,
              "sequence/tile extents must be positive");
    // The paper's index names, interned once.
    using einsum::internDim;
    static const struct
    {
        einsum::DimId d, h, e, f, s, p, m0, m1;
    } id{ internDim("d"), internDim("h"), internDim("e"),
          internDim("f"), internDim("s"), internDim("p"),
          internDim("m0"), internDim("m1") };
    // `d` is the QKV contraction width; it equals d_model except
    // for tensor-parallel shards, whose input stays full-width.
    return DimEnv{ { id.d, cfg.dInput() },
                   { id.h, cfg.heads },
                   { id.e, cfg.head_dim },
                   { id.f, cfg.head_dim }, // paper assumes E == F
                   { id.s, cfg.ffn_hidden },
                   { id.p, seq_p },
                   { id.m0, m0 },
                   { id.m1, m1 } };
}

Cascade
buildQkvCascade()
{
    Cascade c("QKV");
    // Eq. 25: Q[h,e,p] = INPUT[d,p] x WQ[d,h,e]
    c.add(Einsum("Q", {"h", "e", "p"})
              .input("INPUT", {"d", "p"})
              .input("WQ", {"d", "h", "e"})
              .combine(CombineOp::Mul)
              .reduce(ReduceOp::Sum));
    // Eq. 26: BK[h,e,m1,m0] = INPUT[d,m1,m0] x WK[d,h,e]
    c.add(Einsum("BK", {"h", "e", "m1", "m0"})
              .input("INPUT_KV", {"d", "m1", "m0"})
              .input("WK", {"d", "h", "e"})
              .combine(CombineOp::Mul)
              .reduce(ReduceOp::Sum));
    // Eq. 27: BV[h,f,m1,m0] = INPUT[d,m1,m0] x WV[d,h,f]
    c.add(Einsum("BV", {"h", "f", "m1", "m0"})
              .input("INPUT_KV", {"d", "m1", "m0"})
              .input("WV", {"d", "h", "f"})
              .combine(CombineOp::Mul)
              .reduce(ReduceOp::Sum));
    return c;
}

Cascade
buildMhaCascade()
{
    Cascade c("MHA");
    // Eq. 12: BQK[h,m1,m0,p] = Q[h,e,p] x BK[h,e,m1,m0]
    c.add(Einsum("BQK", {"h", "m1", "m0", "p"})
              .input("Q", {"h", "e", "p"})
              .input("BK", {"h", "e", "m1", "m0"})
              .combine(CombineOp::Mul)
              .reduce(ReduceOp::Sum));
    // Eq. 13: LM[h,m1,p] = max over m0 of BQK
    c.add(Einsum("LM", {"h", "m1", "p"})
              .input("BQK", {"h", "m1", "m0", "p"})
              .reduce(ReduceOp::Max));
    // Eq. 14: RM[m1+1] = max(RM[m1], LM[m1]) -- recurrent over m1
    c.add(Einsum("RM", {"h", "m1", "p"})
              .inputPrevious("RM", {"h", "m1", "p"})
              .input("LM", {"h", "m1", "p"})
              .combine(CombineOp::Max)
              .recurrentOver("m1"));
    // Eq. 15: SLN = exp(BQK - RM[m1+1])
    c.add(Einsum("SLN", {"h", "m1", "m0", "p"})
              .input("BQK", {"h", "m1", "m0", "p"})
              .input("RM", {"h", "m1", "p"})
              .combine(CombineOp::Sub)
              .unary(UnaryOp::Exp));
    // Eq. 16: SLD[h,m1,p] = sum over m0 of SLN
    c.add(Einsum("SLD", {"h", "m1", "p"})
              .input("SLN", {"h", "m1", "m0", "p"})
              .reduce(ReduceOp::Sum));
    // Eq. 17: SLNV[h,f,m1,p] = SLN x BV (contraction over m0)
    c.add(Einsum("SLNV", {"h", "f", "m1", "p"})
              .input("SLN", {"h", "m1", "m0", "p"})
              .input("BV", {"h", "f", "m1", "m0"})
              .combine(CombineOp::Mul)
              .reduce(ReduceOp::Sum));
    // Eq. 18: PRM = exp(RM[m1] - RM[m1+1]).  Both operands are the
    // RM state at adjacent m1 steps; the second (current) read is
    // the scheduling dependency.
    c.add(Einsum("PRM", {"h", "m1", "p"})
              .inputPrevious("RM", {"h", "m1", "p"})
              .input("RM", {"h", "m1", "p"})
              .combine(CombineOp::Sub)
              .unary(UnaryOp::Exp));
    // Eq. 19: SPD = RD[m1] x PRM (RD read is loop-carried)
    c.add(Einsum("SPD", {"h", "m1", "p"})
              .inputPrevious("RD", {"h", "m1", "p"})
              .input("PRM", {"h", "m1", "p"})
              .combine(CombineOp::Mul));
    // Eq. 20: RD[m1+1] = SLD + SPD -- recurrent over m1
    c.add(Einsum("RD", {"h", "m1", "p"})
              .input("SLD", {"h", "m1", "p"})
              .input("SPD", {"h", "m1", "p"})
              .combine(CombineOp::Add)
              .recurrentOver("m1"));
    // Eq. 21: SPNV = RNV[m1] x PRM (RNV read is loop-carried)
    c.add(Einsum("SPNV", {"h", "f", "m1", "p"})
              .inputPrevious("RNV", {"h", "f", "m1", "p"})
              .input("PRM", {"h", "m1", "p"})
              .combine(CombineOp::Mul));
    // Eq. 22: RNV[m1+1] = SLNV + SPNV -- recurrent over m1
    c.add(Einsum("RNV", {"h", "f", "m1", "p"})
              .input("SLNV", {"h", "f", "m1", "p"})
              .input("SPNV", {"h", "f", "m1", "p"})
              .combine(CombineOp::Add)
              .recurrentOver("m1"));
    // Eq. 23: AV[h,f,p] = RNV[M1] / RD[M1] (final normalization;
    // no m1 in the output -- one division per (h,f,p)).
    c.add(Einsum("AV", {"h", "f", "p"})
              .input("RNV", {"h", "f", "p"})
              .input("RD", {"h", "p"})
              .combine(CombineOp::Div));
    return c;
}

Cascade
buildUnfusedMhaCascade()
{
    Cascade c("MHA-unfused");
    // QK[h,m1,m0,p] = Q x BK
    c.add(Einsum("QK", {"h", "m1", "m0", "p"})
              .input("Q", {"h", "e", "p"})
              .input("BK", {"h", "e", "m1", "m0"})
              .combine(CombineOp::Mul)
              .reduce(ReduceOp::Sum));
    // Pass 1: global max over the whole context.
    c.add(Einsum("GM", {"h", "p"})
              .input("QK", {"h", "m1", "m0", "p"})
              .reduce(ReduceOp::Max));
    // Pass 2: exponentiate against the global max...
    c.add(Einsum("SN", {"h", "m1", "m0", "p"})
              .input("QK", {"h", "m1", "m0", "p"})
              .input("GM", {"h", "p"})
              .combine(CombineOp::Sub)
              .unary(UnaryOp::Exp));
    // ...and accumulate the denominator.
    c.add(Einsum("SD", {"h", "p"})
              .input("SN", {"h", "m1", "m0", "p"})
              .reduce(ReduceOp::Sum));
    // Pass 3: normalize every score.
    c.add(Einsum("A", {"h", "m1", "m0", "p"})
              .input("SN", {"h", "m1", "m0", "p"})
              .input("SD", {"h", "p"})
              .combine(CombineOp::Div));
    // Weighted sum with V.
    c.add(Einsum("AV", {"h", "f", "p"})
              .input("A", {"h", "m1", "m0", "p"})
              .input("BV", {"h", "f", "m1", "m0"})
              .combine(CombineOp::Mul)
              .reduce(ReduceOp::Sum));
    return c;
}

Cascade
buildLayerNormCascade()
{
    Cascade c("AddLayerNorm");
    // Eq. 28: IAV = INP + AV
    c.add(Einsum("IAV", {"h", "f", "p"})
              .input("INP", {"h", "f", "p"})
              .input("AV", {"h", "f", "p"})
              .combine(CombineOp::Add));
    // Eq. 29: SAV[p] = sum over (h,f) of IAV
    c.add(Einsum("SAV", {"p"})
              .input("IAV", {"h", "f", "p"})
              .reduce(ReduceOp::Sum));
    // Eq. 30: MAV = SAV / (H*F) -- the scale is bound at evaluation
    // time by the caller via Einsum::scale (buildCascade does this).
    c.add(Einsum("MAV", {"p"})
              .input("SAV", {"p"}));
    // Eq. 31: DAV = IAV - MAV (MAV broadcast over h,f)
    c.add(Einsum("DAV", {"h", "f", "p"})
              .input("IAV", {"h", "f", "p"})
              .input("MAV", {"p"})
              .combine(CombineOp::Sub));
    // Eq. 32: QAV = DAV * DAV
    c.add(Einsum("QAV", {"h", "f", "p"})
              .input("DAV", {"h", "f", "p"})
              .input("DAV", {"h", "f", "p"})
              .combine(CombineOp::Mul));
    // Eq. 33: SQAV[p] = sum over (h,f) of QAV
    c.add(Einsum("SQAV", {"p"})
              .input("QAV", {"h", "f", "p"})
              .reduce(ReduceOp::Sum));
    // Eq. 34: MQAV = SQAV / (H*F)
    c.add(Einsum("MQAV", {"p"})
              .input("SQAV", {"p"}));
    // Eq. 35: SR = 1/sqrt(MQAV)
    c.add(Einsum("SR", {"p"})
              .input("MQAV", {"p"})
              .unary(UnaryOp::Rsqrt));
    // Eq. 36: NR = DAV * SR (gamma/beta deferred per Li et al.)
    c.add(Einsum("NR", {"h", "f", "p"})
              .input("DAV", {"h", "f", "p"})
              .input("SR", {"p"})
              .combine(CombineOp::Mul));
    return c;
}

Cascade
buildFfnCascade(UnaryOp activation)
{
    Cascade c("FFN");
    // Eq. 37 (matmul part): FFN1[s,p] = NR[h,f,p] x WF1[h,f,s]
    c.add(Einsum("FFN1", {"s", "p"})
              .input("NR", {"h", "f", "p"})
              .input("WF1", {"h", "f", "s"})
              .combine(CombineOp::Mul)
              .reduce(ReduceOp::Sum));
    // Eq. 37 (bias part): FFN1B = FFN1 + BF1
    c.add(Einsum("FFN1B", {"s", "p"})
              .input("FFN1", {"s", "p"})
              .input("BF1", {"s"})
              .combine(CombineOp::Add));
    // Eq. 38: AR = activation(FFN1B)
    c.add(Einsum("AR", {"s", "p"})
              .input("FFN1B", {"s", "p"})
              .unary(activation));
    // Eq. 39 (matmul part; the paper's FFN1 operand is the
    // activated tile AR): FFN2[h,f,p] = AR[s,p] x WF2[h,f,s]
    c.add(Einsum("FFN2", {"h", "f", "p"})
              .input("AR", {"s", "p"})
              .input("WF2", {"h", "f", "s"})
              .combine(CombineOp::Mul)
              .reduce(ReduceOp::Sum));
    // Eq. 39 (bias part): FFN2B = FFN2 + BF2
    c.add(Einsum("FFN2B", {"h", "f", "p"})
              .input("FFN2", {"h", "f", "p"})
              .input("BF2", {"h", "f"})
              .combine(CombineOp::Add));
    return c;
}

Cascade
buildCascade(LayerKind kind, const TransformerConfig &cfg)
{
    cfg.validate();
    switch (kind) {
      case LayerKind::Qkv:
        return buildQkvCascade();
      case LayerKind::Mha:
        return buildMhaCascade();
      case LayerKind::LayerNorm: {
        Cascade c = buildLayerNormCascade();
        // Bind the 1/(H*F) means (Eq. 30 / Eq. 34) for this model.
        const double inv = 1.0
            / static_cast<double>(cfg.d_model);
        Cascade bound(c.name());
        for (const auto &op : c.ops()) {
            Einsum copy = op;
            if (op.name() == "MAV" || op.name() == "MQAV")
                copy.scale(inv);
            bound.add(std::move(copy));
        }
        return bound;
      }
      case LayerKind::Ffn:
        return buildFfnCascade(cfg.activation);
    }
    tf_panic("unknown LayerKind");
}

} // namespace transfusion::model
