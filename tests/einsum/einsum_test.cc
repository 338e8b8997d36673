/**
 * @file
 * Unit tests for DimEnv, TensorRef and Einsum (including the Eq. 40
 * compute-load formula and PE-class derivation).
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "einsum/cascade.hh"
#include "einsum/einsum.hh"
#include "model/cascades.hh"

namespace transfusion::einsum
{
namespace
{

TEST(DimEnv, SetAndGet)
{
    DimEnv env;
    env.set("p", 128);
    EXPECT_EQ(env.extent("p"), 128);
    EXPECT_TRUE(env.has("p"));
    EXPECT_FALSE(env.has("q"));
}

TEST(DimEnv, InitializerList)
{
    DimEnv env{ { "a", 2 }, { "b", 3 } };
    EXPECT_EQ(env.extent("a"), 2);
    EXPECT_EQ(env.extent("b"), 3);
}

TEST(DimEnv, UnboundIsFatal)
{
    DimEnv env;
    EXPECT_THROW(env.extent("missing"), FatalError);
}

TEST(DimEnv, NonPositiveExtentIsFatal)
{
    DimEnv env;
    EXPECT_THROW(env.set("p", 0), FatalError);
    EXPECT_THROW(env.set("p", -3), FatalError);
}

TEST(DimEnv, ProductOfNames)
{
    DimEnv env{ { "a", 2 }, { "b", 3 }, { "c", 5 } };
    EXPECT_DOUBLE_EQ(env.product({ "a", "c" }), 10.0);
    EXPECT_DOUBLE_EQ(env.product({}), 1.0);
}

TEST(DimEnv, WithOverrides)
{
    DimEnv base{ { "p", 1024 }, { "d", 768 } };
    DimEnv tile{ { "p", 128 } };
    const DimEnv merged = base.withOverrides(tile);
    EXPECT_EQ(merged.extent("p"), 128);
    EXPECT_EQ(merged.extent("d"), 768);
    EXPECT_EQ(base.extent("p"), 1024); // original untouched
}

TEST(TensorRef, ElementCountAndPrinting)
{
    DimEnv env{ { "h", 12 }, { "e", 64 }, { "p", 128 } };
    TensorRef q{ "Q", { "h", "e", "p" } };
    EXPECT_DOUBLE_EQ(q.elementCount(env), 12.0 * 64 * 128);
    EXPECT_EQ(q.toString(), "Q[h,e,p]");
}

TEST(Einsum, ReductionIndicesAreInputsMinusOutputs)
{
    // Z[m,n] = sum_k A[m,k] * B[k,n] (Eq. 5).
    Einsum z("Z", { "m", "n" });
    z.input("A", { "m", "k" }).input("B", { "k", "n" })
        .combine(CombineOp::Mul).reduce(ReduceOp::Sum);
    EXPECT_EQ(z.reductionIndices(),
              (std::vector<std::string>{ "k" }));
}

/** Eq. 40's definition: input labels minus output labels, by set
 *  difference, listed in first-appearance order. */
std::vector<std::string>
reductionByDefinition(const Einsum &op)
{
    const std::set<std::string> out(op.output().indices.begin(),
                                    op.output().indices.end());
    std::set<std::string> seen;
    std::vector<std::string> red;
    for (const auto &in : op.inputs()) {
        for (const auto &idx : in.indices) {
            if (!out.count(idx) && seen.insert(idx).second)
                red.push_back(idx);
        }
    }
    return red;
}

TEST(Einsum, ReductionIndicesFixedAtBuild)
{
    std::vector<Cascade> cascades = { model::buildUnfusedMhaCascade() };
    for (const UnaryOp act : { UnaryOp::Relu, UnaryOp::Gelu,
                               UnaryOp::Silu, UnaryOp::Sigmoid }) {
        model::TransformerConfig cfg = model::bertBase();
        cfg.activation = act;
        for (const model::LayerKind kind : model::allLayerKinds())
            cascades.push_back(model::buildCascade(kind, cfg));
    }
    std::size_t checked = 0;
    for (const Cascade &c : cascades) {
        for (const Einsum &op : c.ops()) {
            EXPECT_EQ(op.reductionIndices(), reductionByDefinition(op))
                << c.name() << "/" << op.name();
            ++checked;
        }
    }
    EXPECT_GT(checked, 0u);
}

TEST(Einsum, ComputeLoadMatchesEq40)
{
    // Eq. 40: load = prod(output dims) * prod(reduction dims).
    DimEnv env{ { "m", 32 }, { "n", 16 }, { "k", 8 } };
    Einsum z("Z", { "m", "n" });
    z.input("A", { "m", "k" }).input("B", { "k", "n" })
        .combine(CombineOp::Mul).reduce(ReduceOp::Sum);
    EXPECT_DOUBLE_EQ(z.computeLoad(env), 32.0 * 16 * 8);
}

TEST(Einsum, ComputeLoadPureMap)
{
    DimEnv env{ { "p", 100 } };
    Einsum e("E", { "p" });
    e.input("I", { "p" }).unary(UnaryOp::Exp);
    EXPECT_DOUBLE_EQ(e.computeLoad(env), 100.0);
    EXPECT_TRUE(e.reductionIndices().empty());
}

TEST(Einsum, PeClassContractionIsMatrix)
{
    Einsum z("Z", { "m", "n" });
    z.input("A", { "m", "k" }).input("B", { "k", "n" })
        .combine(CombineOp::Mul).reduce(ReduceOp::Sum);
    EXPECT_EQ(z.peClass(), PeClass::Matrix);
}

TEST(Einsum, PeClassElementwiseMulIsVector)
{
    // No reduction index: a Hadamard product is streaming work.
    Einsum z("Z", { "m" });
    z.input("A", { "m" }).input("B", { "m" })
        .combine(CombineOp::Mul);
    EXPECT_EQ(z.peClass(), PeClass::Vector);
}

TEST(Einsum, PeClassReductionWithoutMulIsVector)
{
    Einsum z("Z", { "m" });
    z.input("A", { "m", "k" }).reduce(ReduceOp::Max);
    EXPECT_EQ(z.peClass(), PeClass::Vector);
}

TEST(Einsum, ForcePeClassWins)
{
    Einsum z("Z", { "m" });
    z.input("A", { "m" }).forcePeClass(PeClass::Matrix);
    EXPECT_EQ(z.peClass(), PeClass::Matrix);
}

TEST(Einsum, AtMostTwoInputs)
{
    Einsum z("Z", { "m" });
    z.input("A", { "m" }).input("B", { "m" });
    EXPECT_THROW(z.input("C", { "m" }), PanicError);
}

TEST(Einsum, RecurrentFlag)
{
    Einsum rm("RM", { "h", "p" });
    rm.input("RM", { "h", "p" }).input("LM", { "h", "p" })
        .combine(CombineOp::Max).recurrentOver("m1");
    EXPECT_TRUE(rm.isRecurrent());
    EXPECT_EQ(rm.recurrentIndex(), "m1");
}

TEST(Einsum, ToStringMentionsPieces)
{
    Einsum z("Z", { "m", "n" });
    z.input("A", { "m", "k" }).input("B", { "k", "n" })
        .combine(CombineOp::Mul).reduce(ReduceOp::Sum);
    const std::string s = z.toString();
    EXPECT_NE(s.find("Z[m,n]"), std::string::npos);
    EXPECT_NE(s.find("A[m,k]"), std::string::npos);
    EXPECT_NE(s.find("mul"), std::string::npos);
}

TEST(OpNames, AllEnumeratorsPrintable)
{
    EXPECT_EQ(toString(CombineOp::Div), "div");
    EXPECT_EQ(toString(UnaryOp::Rsqrt), "rsqrt");
    EXPECT_EQ(toString(ReduceOp::Max), "max");
    EXPECT_EQ(toString(PeClass::Matrix), "2d");
    EXPECT_EQ(toString(PeClass::Vector), "1d");
}

} // namespace
} // namespace transfusion::einsum
