/**
 * @file
 * Implementation of the Table 1 dimension mapping.
 */

#include "pe_mapping.hh"

#include "common/logging.hh"
#include "common/math_utils.hh"

namespace transfusion::model
{

DimMapping::DimMapping(const std::vector<std::string> &rows,
                       const std::vector<std::string> &cols)
    : rows_(einsum::internDims(rows)), cols_(einsum::internDims(cols))
{}

const DimMapping &
peMapping(LayerKind kind, std::string_view op_name)
{
    // Table 1 row 1: rows p/m0, cols (h,e).  The Q projection
    // streams query positions (p); BK/BV stream context positions
    // (m0).
    static const DimMapping qkv{ {"p"}, {"h", "e"} };
    static const DimMapping qkv_bk{ {"m0"}, {"h", "e"} };
    static const DimMapping qkv_bv{ {"m0"}, {"h", "f"} };
    static const DimMapping mha{ {"p"}, {"m0"} };
    static const DimMapping layer_norm{ {"p"}, {"h", "f"} };
    static const DimMapping ffn{ {"p"}, {"s"} };
    switch (kind) {
      case LayerKind::Qkv:
        if (op_name == "BK")
            return qkv_bk;
        if (op_name == "BV")
            return qkv_bv;
        return qkv;
      case LayerKind::Mha:
        return mha;
      case LayerKind::LayerNorm:
        return layer_norm;
      case LayerKind::Ffn:
        return ffn;
    }
    tf_panic("unknown LayerKind");
}

std::int64_t
epochCount(const DimMapping &mapping, const einsum::DimEnv &dims,
           std::int64_t pe_rows, std::int64_t pe_cols)
{
    tf_assert(pe_rows > 0 && pe_cols > 0, "PE extents must be > 0");
    std::int64_t row_work = 1, col_work = 1;
    for (const einsum::DimId id : mapping.rows())
        row_work *= dims.extent(id);
    for (const einsum::DimId id : mapping.cols())
        col_work *= dims.extent(id);
    return ceilDiv(row_work, pe_rows) * ceilDiv(col_work, pe_cols);
}

} // namespace transfusion::model
