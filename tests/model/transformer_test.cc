/**
 * @file
 * Unit tests for the model zoo and the Table 1 PE mapping.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "model/pe_mapping.hh"
#include "model/transformer.hh"

namespace transfusion::model
{
namespace
{

TEST(ModelZoo, FiveEvaluationModels)
{
    const auto models = allModels();
    ASSERT_EQ(models.size(), 5u);
    EXPECT_EQ(models[0].name, "BERT");
    EXPECT_EQ(models[1].name, "TrXL");
    EXPECT_EQ(models[2].name, "T5");
    EXPECT_EQ(models[3].name, "XLM");
    EXPECT_EQ(models[4].name, "Llama3");
}

TEST(ModelZoo, AllConfigsValidate)
{
    for (const auto &m : allModels()) {
        EXPECT_NO_THROW(m.validate()) << m.name;
        EXPECT_EQ(m.d_model, m.heads * m.head_dim) << m.name;
        // Paper setup: batch 64 everywhere.
        EXPECT_EQ(m.batch, 64) << m.name;
    }
}

TEST(ModelZoo, KnownShapes)
{
    const auto bert = bertBase();
    EXPECT_EQ(bert.d_model, 768);
    EXPECT_EQ(bert.heads, 12);
    EXPECT_EQ(bert.ffn_hidden, 3072);

    const auto llama = llama3_8b();
    EXPECT_EQ(llama.layers, 32);
    EXPECT_EQ(llama.d_model, 4096);
    EXPECT_EQ(llama.ffn_hidden, 14336);
    EXPECT_EQ(llama.activation, einsum::UnaryOp::Silu);
}

TEST(ModelZoo, LookupByName)
{
    EXPECT_EQ(modelByName("T5").d_model, 512);
    EXPECT_THROW(modelByName("GPT-7"), FatalError);
}

TEST(ModelZoo, ValidateRejectsInconsistency)
{
    TransformerConfig c = bertBase();
    c.head_dim = 100; // 12 * 100 != 768
    EXPECT_THROW(c.validate(), FatalError);
    c = bertBase();
    c.layers = 0;
    EXPECT_THROW(c.validate(), FatalError);
}

/** The names a mapping's row or column ids were interned under. */
std::vector<std::string>
names(std::span<const einsum::DimId> ids)
{
    std::vector<std::string> out;
    for (const einsum::DimId id : ids)
        out.push_back(einsum::dimName(id));
    return out;
}

TEST(PeMapping, Table1Rows)
{
    // QKV: rows p (Q) or m0 (BK/BV); cols (h,e)/(h,f).
    EXPECT_EQ(names(peMapping(LayerKind::Qkv).rows()),
              (std::vector<std::string>{ "p" }));
    EXPECT_EQ(names(peMapping(LayerKind::Qkv, "BK").rows()),
              (std::vector<std::string>{ "m0" }));
    EXPECT_EQ(names(peMapping(LayerKind::Qkv, "BV").cols()),
              (std::vector<std::string>{ "h", "f" }));
    // MHA: rows p, cols m0.
    EXPECT_EQ(names(peMapping(LayerKind::Mha).rows()),
              (std::vector<std::string>{ "p" }));
    EXPECT_EQ(names(peMapping(LayerKind::Mha).cols()),
              (std::vector<std::string>{ "m0" }));
    // LayerNorm: rows p, cols (h,f).
    EXPECT_EQ(names(peMapping(LayerKind::LayerNorm).cols()),
              (std::vector<std::string>{ "h", "f" }));
    // FFN: rows p, cols s.
    EXPECT_EQ(names(peMapping(LayerKind::Ffn).cols()),
              (std::vector<std::string>{ "s" }));
}

TEST(EpochCount, CeilingBehaviour)
{
    einsum::DimEnv dims{ { "p", 100 }, { "m0", 70 } };
    const DimMapping mapping{ { "p" }, { "m0" } };
    // ceil(100/32) * ceil(70/32) = 4 * 3.
    EXPECT_EQ(epochCount(mapping, dims, 32, 32), 12);
    // Array bigger than the work: one epoch.
    EXPECT_EQ(epochCount(mapping, dims, 128, 128), 1);
}

TEST(EpochCount, MultiIndexGroupsMultiply)
{
    einsum::DimEnv dims{ { "p", 8 }, { "h", 4 }, { "f", 16 } };
    const DimMapping mapping{ { "p" }, { "h", "f" } };
    // Row work 8, col work 64: ceil(8/8)*ceil(64/16) = 4.
    EXPECT_EQ(epochCount(mapping, dims, 8, 16), 4);
}

} // namespace
} // namespace transfusion::model
