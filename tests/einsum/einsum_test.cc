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
#include "common/parallel_map.hh"
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

TEST(DimEnv, IdAndStringLookupsAgree)
{
    const DimEnv env{ { "a", 2 }, { "b", 3 }, { "c", 5 } };
    const std::vector<std::string> names{ "c", "a", "b" };
    const std::vector<DimId> ids = internDims(names);
    for (std::size_t i = 0; i < names.size(); ++i) {
        EXPECT_EQ(dimName(ids[i]), names[i]);
        EXPECT_EQ(internDim(names[i]), ids[i]);
        EXPECT_EQ(env.extent(ids[i]), env.extent(names[i]));
    }
    EXPECT_EQ(env.productOf(ids), env.product(names));
    EXPECT_EQ(env.productOf({}), 1.0);
    // The id-built constructor binds the same extents.
    const DimEnv by_id{ { ids[1], 2 }, { ids[2], 3 }, { ids[0], 5 } };
    EXPECT_EQ(by_id.names(), env.names());
    for (const auto &n : names)
        EXPECT_EQ(by_id.extent(n), env.extent(n));
}

/** The text of the FatalError `fn` throws, without its location. */
template <typename Fn>
std::string
fatalMessage(Fn fn)
{
    try {
        fn();
    } catch (const FatalError &e) {
        const std::string what = e.what();
        return what.substr(0, what.rfind(" ("));
    }
    return "<no throw>";
}

TEST(DimEnv, UnboundMessageNamesTheIndex)
{
    const DimEnv env{ { "p", 4 } };
    // Never interned, interned but unbound here, and by id.
    EXPECT_EQ(fatalMessage([&] { env.extent("never_interned_x"); }),
              "fatal: unbound index 'never_interned_x'");
    EXPECT_EQ(fatalMessage([&] { env.extent("x"); }),
              "fatal: unbound index 'x'");
    const DimId x = internDim("x");
    EXPECT_EQ(fatalMessage([&] { env.extent(x); }),
              "fatal: unbound index 'x'");
    EXPECT_EQ(fatalMessage([&] { DimEnv().productOf({ &x, 1 }); }),
              "fatal: unbound index 'x'");
    EXPECT_FALSE(env.has("x"));
    EXPECT_FALSE(env.has("never_interned_y"));
}

TEST(DimEnv, NamesSortedByNameNotById)
{
    // Interned in reverse name order, so ids run against names.
    const DimId z = internDim("names_order_z");
    const DimId a = internDim("names_order_a");
    ASSERT_LT(static_cast<std::uint32_t>(z),
              static_cast<std::uint32_t>(a));
    DimEnv env;
    env.set(z, 1);
    env.set("names_order_m", 2);
    env.set(a, 3);
    EXPECT_EQ(env.names(),
              (std::vector<std::string>{ "names_order_a",
                                         "names_order_m",
                                         "names_order_z" }));
}

TEST(DimEnv, ConcurrentInterningGivesOneIdPerName)
{
    // Four workers intern the same fresh names, each in its own
    // order; every worker must see the same id for every name.
    std::vector<std::string> names;
    for (int i = 0; i < 256; ++i)
        names.push_back("concurrent_dim_" + std::to_string(i));
    const std::vector<int> workers{ 0, 1, 2, 3 };
    const auto seen = parallelMap(4, workers, [&](int w) {
        std::vector<DimId> ids(names.size());
        for (std::size_t k = 0; k < names.size(); ++k) {
            const std::size_t i = (k * 97 + static_cast<std::size_t>(w)
                                   * 61) % names.size();
            ids[i] = internDim(names[i]);
            EXPECT_EQ(dimName(ids[i]), names[i]);
        }
        return ids;
    });
    std::set<std::uint32_t> distinct;
    for (std::size_t i = 0; i < names.size(); ++i) {
        for (const auto &ids : seen)
            EXPECT_EQ(ids[i], seen[0][i]) << names[i];
        distinct.insert(static_cast<std::uint32_t>(seen[0][i]));
    }
    EXPECT_EQ(distinct.size(), names.size());
}

TEST(TensorRef, ElementCountAndPrinting)
{
    DimEnv env{ { "h", 12 }, { "e", 64 }, { "p", 128 } };
    TensorRef q{ "Q", { "h", "e", "p" } };
    EXPECT_DOUBLE_EQ(q.elementCount(env), 12.0 * 64 * 128);
    EXPECT_EQ(q.toString(), "Q[h,e,p]");
}

TEST(TensorRef, DirectlyBuiltRefCarriesIds)
{
    // A ref built outside any Einsum resolves its ids too.
    const TensorRef ref{ "T", { "h", "p" }, true };
    EXPECT_EQ(ref.ids(), internDims({ "h", "p" }));
    EXPECT_TRUE(ref.previous);
    EXPECT_EQ(ref, (TensorRef{ "T", { "h", "p" }, true }));
    EXPECT_DOUBLE_EQ(ref.elementCount(DimEnv{ { "h", 3 }, { "p", 7 } }),
                     21.0);
}

TEST(Einsum, BuiltFromStringsCarriesIds)
{
    Einsum z("Z", { "m", "n" });
    z.input("A", { "m", "k" }).input("B", { "k", "j", "n" })
        .combine(CombineOp::Mul).reduce(ReduceOp::Sum);
    EXPECT_EQ(z.output().ids(), internDims({ "m", "n" }));
    EXPECT_EQ(z.inputs()[0].ids(), internDims({ "m", "k" }));
    EXPECT_EQ(z.inputs()[1].ids(), internDims({ "k", "j", "n" }));
    // Eq. 40 by id equals Eq. 40 by name, factor for factor.
    const DimEnv env{ { "m", 3 }, { "n", 5 }, { "k", 7 }, { "j", 11 } };
    EXPECT_EQ(z.computeLoad(env),
              env.product(z.output().indices)
                  * env.product(z.reductionIndices()));
    EXPECT_EQ(z.reductionIndices(),
              (std::vector<std::string>{ "k", "j" }));
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
