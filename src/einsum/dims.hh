/**
 * @file
 * Dimension environment: binds Einsum index names (p, m0, m1, h, e,
 * f, d, s, b ...) to concrete extents for a particular workload or
 * tile.  Every load/traffic/buffer computation is evaluated against a
 * DimEnv, so re-tiling is just evaluating the same cascade under a
 * different environment.
 *
 * Index names are resolved once.  Every name lives in one
 * process-wide, append-only table that hands out a dense DimId per
 * distinct name, and a DimEnv is a flat array of extents indexed by
 * that id.  Einsums and TensorRefs resolve their indices' ids when
 * they are built, so pricing a cascade multiplies extents read by
 * index and compares no names.  The string overloads remain for
 * tests, validation and the reference interpreter.  Ids depend on
 * the order names were first interned, which threads may race on,
 * so nothing observable depends on an id: names() sorts by name.
 */

#ifndef TRANSFUSION_EINSUM_DIMS_HH
#define TRANSFUSION_EINSUM_DIMS_HH

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace transfusion::einsum
{

/** Dense index of an index name in the process-wide name table. */
enum class DimId : std::uint32_t
{
};

/** The id of `name`, adding it to the table on first use.
 *  Thread-safe; one id per distinct name for the process's life. */
DimId internDim(std::string_view name);

/** The ids of `names`, in order (interning any new ones). */
std::vector<DimId> internDims(const std::vector<std::string> &names);

/** The name `id` was interned under.  The table is never destroyed
 *  and never moves a name, so the reference stays valid. */
const std::string &dimName(DimId id);

/** Mapping from index-variable name to its extent. */
class DimEnv
{
  public:
    DimEnv() = default;

    /** Construct from an initializer list of (name, extent) pairs. */
    DimEnv(std::initializer_list<std::pair<const std::string,
                                           std::int64_t>> init);

    /** Construct from (id, extent) pairs with one allocation. */
    DimEnv(std::initializer_list<std::pair<DimId, std::int64_t>> init);

    /** Bind (or rebind) an index to an extent (must be > 0). */
    void set(const std::string &name, std::int64_t extent);
    void set(DimId id, std::int64_t extent);

    /** Extent of an index; fatal if unbound. */
    std::int64_t extent(const std::string &name) const;
    std::int64_t
    extent(DimId id) const
    {
        const auto i = static_cast<std::size_t>(id);
        if (i >= extents_.size() || extents_[i] == 0)
            unbound(id);
        return extents_[i];
    }

    /** Whether the index is bound. */
    bool has(const std::string &name) const;

    /** Product of extents of the given index names. */
    double product(const std::vector<std::string> &names) const;

    /** Product of extents of the given ids, multiplied in order
     *  (the same factors, in the same order, as product()). */
    double
    productOf(std::span<const DimId> ids) const
    {
        double p = 1.0;
        for (const DimId id : ids)
            p *= static_cast<double>(extent(id));
        return p;
    }

    /** All bound names, sorted. */
    std::vector<std::string> names() const;

    /** Copy with some extents overridden (tiling). */
    DimEnv withOverrides(const DimEnv &overrides) const;

  private:
    [[noreturn]] static void unbound(DimId id);

    /** Extent by id; 0 means unbound. */
    std::vector<std::int64_t> extents_;
};

} // namespace transfusion::einsum

#endif // TRANSFUSION_EINSUM_DIMS_HH
