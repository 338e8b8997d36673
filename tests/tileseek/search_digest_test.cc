/**
 * @file
 * TileSeek's verdict pinned as frozen digests: every cell of the
 * headline grid (cloud and edge x every evaluation model x the
 * paper's sequence sweep), plus a cross-attention cell, an
 * energy-objective cell and a two-tree cell, runs seekTile with the
 * default 2,048-iteration budget.  One digest line per cell
 * (support/replay_digest.hh) covers the returned TileShape and the
 * captured tileseek counters and best-cost gauge, all in hexfloat,
 * so a change to the tree's selection, expansion or RNG stream
 * fails here with the cell named.
 */

#include <ios>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "arch/arch.hh"
#include "model/transformer.hh"
#include "obs/obs.hh"
#include "schedule/tiling.hh"
#include "sim/compare.hh"
#include "support/replay_digest.hh"

namespace transfusion
{
namespace
{

/** Fused-layer compute time the latency objective overlaps. */
constexpr double kComputeHintS = 1e-3;

std::string
tileText(const tileseek::TileShape &t)
{
    std::ostringstream os;
    os << "b=" << t.b << " d=" << t.d << " p=" << t.p
       << " m1=" << t.m1 << " m0=" << t.m0 << " s=" << t.s
       << " h=" << t.h << " e=" << t.e << " f=" << t.f
       << " p_prime=" << t.p_prime << "\n";
    return os.str();
}

/** The tileseek counters and gauges of `reg`, in hexfloat. */
std::string
searchText(const obs::Registry &reg)
{
    const obs::RegistrySnapshot snap = reg.snapshot();
    std::ostringstream os;
    os << std::hexfloat;
    for (const auto &[name, value] : snap.counters) {
        if (name.rfind("tileseek/", 0) == 0)
            os << name << "=" << value << "\n";
    }
    for (const auto &[name, value] : snap.gauges) {
        if (name.rfind("tileseek/", 0) == 0)
            os << name << "=" << value << "\n";
    }
    return os.str();
}

/** One digest line: seekTile on a cell under a local registry. */
std::string
cellLine(const std::string &cell, const arch::ArchConfig &arch,
         const model::TransformerConfig &cfg, std::int64_t seq,
         std::int64_t context = 0,
         schedule::TileObjective objective =
             schedule::TileObjective::Latency,
         int threads = 1)
{
    tileseek::MctsOptions opts;
    opts.threads = threads;
    obs::Registry local;
    tileseek::TileShape tile;
    {
        obs::ScopedRegistry scope(local);
        tile = schedule::seekTile(arch, cfg, seq, kComputeHintS, opts,
                                  context, objective);
    }
    return test::digestLine(cell, test::fnv1a(tileText(tile)),
                            searchText(local));
}

TEST(TileSeekDigests, MatchesFrozenDigests)
{
    std::string lines;
    for (const auto &arch : { arch::cloudArch(), arch::edgeArch() }) {
        for (const auto &cfg : model::allModels()) {
            for (const std::int64_t seq : sim::paperSequenceSweep()) {
                lines += cellLine(arch.name + "/" + cfg.name + "/P="
                                      + std::to_string(seq),
                                  arch, cfg, seq);
            }
        }
    }
    lines += cellLine("cloud/Llama3/P=4096/context=16384",
                      arch::cloudArch(), model::llama3_8b(), 4096,
                      16384);
    lines += cellLine("edge/BERT/P=16384/energy", arch::edgeArch(),
                      model::bertBase(), 16384, 0,
                      schedule::TileObjective::Energy);
    lines += cellLine("cloud/T5/P=4096/threads=2", arch::cloudArch(),
                      model::t5Small(), 4096, 0,
                      schedule::TileObjective::Latency, 2);
    test::expectMatchesDigests("search_digests_tileseek", lines);
}

} // namespace
} // namespace transfusion
