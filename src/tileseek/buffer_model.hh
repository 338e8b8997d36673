/**
 * @file
 * On-chip buffer requirement model (Sec. 5.2, Table 2).  Evaluates,
 * for a candidate outer tile, the words each fused sub-layer keeps
 * resident: input/output activations, recurrent MHA state, and
 * double-buffered pipeline staging.  TileSeek prunes any tiling
 * whose largest per-layer requirement exceeds the buffer.
 */

#ifndef TRANSFUSION_TILESEEK_BUFFER_MODEL_HH
#define TRANSFUSION_TILESEEK_BUFFER_MODEL_HH

#include <cstdint>
#include <string>

#include "arch/arch.hh"

namespace transfusion::tileseek
{

/**
 * One outer-tile configuration.  Extents are *per tile*:
 * `b` batch elements, `d` of the model dimension streamed at a
 * time, `p` query positions, a resident context window of
 * `m1 * m0` key/value positions, and `s` FFN hidden units.
 * `h`/`e`/`f` ride along from the model (full head retention is
 * required for correctness, Sec. 3.2); `p_prime` is the per-PE-row
 * slice P' of Table 2.
 */
struct TileShape
{
    std::int64_t b = 1;
    std::int64_t d = 1;
    std::int64_t p = 1;
    std::int64_t m1 = 1;
    std::int64_t m0 = 1;
    std::int64_t s = 1;
    std::int64_t h = 1;
    std::int64_t e = 1;
    std::int64_t f = 1;
    std::int64_t p_prime = 1;

    std::string toString() const;
};

/**
 * P' = min(P_tile, pe_rows): the sequence slice one pipeline pass
 * processes per PE row (the paper leaves the exact definition
 * implicit; see DESIGN.md).
 */
std::int64_t pPrime(std::int64_t p_tile, std::int64_t pe_rows);

/** Table 2 row 1: QKV projection buffer words. */
double qkvBufferWords(const TileShape &t);

/** Table 2 row 2: MHA buffer words. */
double mhaBufferWords(const TileShape &t);

/** Table 2 row 3: Add & LayerNorm buffer words. */
double layerNormBufferWords(const TileShape &t);

/** Table 2 row 4: FFN buffer words. */
double ffnBufferWords(const TileShape &t);

/**
 * Peak requirement across the four sub-layers.  The fused stack
 * executes one sub-layer tile at a time, so the buffer must cover
 * the largest.
 */
double peakBufferWords(const TileShape &t);

/** Whether `words` buffer words fit the architecture's on-chip
 *  buffer. */
bool wordsFitBuffer(double words, const arch::ArchConfig &arch);

/** Whether the tile fits the architecture's on-chip buffer: its
 *  peak row passes wordsFitBuffer. */
bool fitsBuffer(const TileShape &t, const arch::ArchConfig &arch);

} // namespace transfusion::tileseek

#endif // TRANSFUSION_TILESEEK_BUFFER_MODEL_HH
