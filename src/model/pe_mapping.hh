/**
 * @file
 * Table 1: dimension mapping of each Transformer layer onto the 2D
 * PE array.  Rows carry sequence-like indices; columns carry the
 * remaining shared Einsum dimensions.  On a 1D array the row mapping
 * is kept and column work is serialized (Sec. 3.3).
 */

#ifndef TRANSFUSION_MODEL_PE_MAPPING_HH
#define TRANSFUSION_MODEL_PE_MAPPING_HH

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "einsum/dims.hh"
#include "model/cascades.hh"

namespace transfusion::model
{

/**
 * Index ids assigned to PE rows and columns.  Construction resolves
 * the names once, so epochCount reads extents by id.
 */
class DimMapping
{
  public:
    DimMapping(const std::vector<std::string> &rows,
               const std::vector<std::string> &cols);

    std::span<const einsum::DimId> rows() const { return rows_; }
    std::span<const einsum::DimId> cols() const { return cols_; }

  private:
    std::vector<einsum::DimId> rows_;
    std::vector<einsum::DimId> cols_;
};

/**
 * Table 1 mapping for a layer, one constant per (layer, op variant)
 * built on first use.  QKV distinguishes the Q projection (rows
 * carry p) from BK/BV (rows carry m0); pass the producing op name to
 * select, or empty for the layer default.
 */
const DimMapping &peMapping(LayerKind kind,
                            std::string_view op_name = {});

/**
 * Number of inner-tile epochs needed to sweep a layer's mapped
 * iteration space with one tile pinned to the PE array: the product
 * of ceil(extent/rows) over row dims times ceil(extent/cols) over
 * col dims (row/col extents multiply within their group).
 */
std::int64_t epochCount(const DimMapping &mapping,
                        const einsum::DimEnv &dims,
                        std::int64_t pe_rows, std::int64_t pe_cols);

} // namespace transfusion::model

#endif // TRANSFUSION_MODEL_PE_MAPPING_HH
