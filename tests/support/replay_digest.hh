/**
 * @file
 * Frozen replay digests: a canonical text of a serve or fleet
 * ledger and a 64-bit FNV-1a over it, so a replay's observable
 * result can be pinned as one checked-in line per cell.
 *
 * The canonical text writes every double in std::hexfloat (exact),
 * every per-replica ledger, and every histogram as its count, its
 * sum and its p0/25/50/75/95/99/100 order statistics.  A digest
 * file (tests/golden/data/replay_digests_*.txt) holds one
 * "<cell> metrics=<hex> report=<hex>" line per cell, where the
 * report digest covers the captured RunReport text; it is checked
 * and regenerated through the golden switch (support/golden.hh),
 * so a drift shows as a line diff naming the cell.
 */

#ifndef TRANSFUSION_TESTS_SUPPORT_REPLAY_DIGEST_HH
#define TRANSFUSION_TESTS_SUPPORT_REPLAY_DIGEST_HH

#include <cstdint>
#include <iomanip>
#include <ios>
#include <sstream>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "fleet/fleet_metrics.hh"
#include "obs/obs.hh"
#include "support/golden.hh"

namespace transfusion::test
{

/** 64-bit FNV-1a. */
inline std::uint64_t
fnv1a(std::string_view text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

inline void
writeCanonical(std::ostream &os, const char *name, const Histogram &h)
{
    os << name << " n=" << h.count() << " sum=" << h.sum();
    for (const int p : { 0, 25, 50, 75, 95, 99, 100 })
        os << " p" << p << "="
           << h.percentileOr(static_cast<double>(p), -1.0);
    os << "\n";
}

#define TF_DIGEST_FIELD(m, f) os << #f "=" << (m).f << "\n"

inline void
writeCanonical(std::ostream &os, const serve::ServeMetrics &m)
{
    TF_DIGEST_FIELD(m, offered);
    TF_DIGEST_FIELD(m, completed);
    TF_DIGEST_FIELD(m, rejected);
    TF_DIGEST_FIELD(m, generated_tokens);
    TF_DIGEST_FIELD(m, prefill_rounds);
    TF_DIGEST_FIELD(m, decode_rounds);
    TF_DIGEST_FIELD(m, peak_running);
    TF_DIGEST_FIELD(m, peak_queue);
    TF_DIGEST_FIELD(m, peak_reserved_words);
    TF_DIGEST_FIELD(m, kv_capacity_words);
    TF_DIGEST_FIELD(m, makespan_s);
    TF_DIGEST_FIELD(m, tokens_per_second);
    TF_DIGEST_FIELD(m, prefill_energy_j);
    TF_DIGEST_FIELD(m, decode_energy_j);
    TF_DIGEST_FIELD(m, chip_seconds);
    writeCanonical(os, "ttft", m.ttft_s);
    writeCanonical(os, "tpot", m.tpot_s);
    writeCanonical(os, "latency", m.latency_s);
    writeCanonical(os, "queue_wait", m.queue_wait_s);
}

inline void
writeCanonical(std::ostream &os, const fleet::FleetMetrics &m)
{
    TF_DIGEST_FIELD(m, offered);
    TF_DIGEST_FIELD(m, completed);
    TF_DIGEST_FIELD(m, rejected);
    TF_DIGEST_FIELD(m, generated_tokens);
    TF_DIGEST_FIELD(m, routed);
    TF_DIGEST_FIELD(m, held_rejected);
    TF_DIGEST_FIELD(m, replica_downs);
    TF_DIGEST_FIELD(m, replica_ups);
    TF_DIGEST_FIELD(m, slowdown_transitions);
    TF_DIGEST_FIELD(m, breaker_opens);
    TF_DIGEST_FIELD(m, breaker_reopens);
    TF_DIGEST_FIELD(m, breaker_closes);
    TF_DIGEST_FIELD(m, breaker_open_s);
    TF_DIGEST_FIELD(m, brownout_activations);
    TF_DIGEST_FIELD(m, brownout_sheds);
    TF_DIGEST_FIELD(m, brownout_s);
    TF_DIGEST_FIELD(m, failover_drained);
    TF_DIGEST_FIELD(m, failover_reroutes);
    TF_DIGEST_FIELD(m, failover_exhausted);
    TF_DIGEST_FIELD(m, failover_wasted_tokens);
    TF_DIGEST_FIELD(m, autoscaler_ticks);
    TF_DIGEST_FIELD(m, scale_ups);
    TF_DIGEST_FIELD(m, scale_downs);
    TF_DIGEST_FIELD(m, peak_serving);
    TF_DIGEST_FIELD(m, makespan_s);
    TF_DIGEST_FIELD(m, completed_per_second);
    TF_DIGEST_FIELD(m, energy_j);
    TF_DIGEST_FIELD(m, chip_seconds);
    writeCanonical(os, "ttft", m.ttft_s);
    writeCanonical(os, "tpot", m.tpot_s);
    writeCanonical(os, "latency", m.latency_s);
    writeCanonical(os, "queue_wait", m.queue_wait_s);
    for (std::size_t i = 0; i < m.replicas.size(); ++i) {
        os << "replica " << i << "\n";
        writeCanonical(os, m.replicas[i]);
    }
}

#undef TF_DIGEST_FIELD

/** FNV-1a of the canonical text of `x` (any type with a
 *  writeCanonical overload, found by argument-dependent lookup). */
template <class T>
std::uint64_t
canonicalDigest(const T &x)
{
    std::ostringstream os;
    os << std::hexfloat;
    writeCanonical(os, x);
    return fnv1a(os.str());
}

/** "<cell> metrics=<hex> report=<hex>\n". */
inline std::string
digestLine(const std::string &cell, std::uint64_t metrics,
           const std::string &report)
{
    std::ostringstream os;
    os << cell << std::hex << std::setfill('0')
       << " metrics=" << std::setw(16) << metrics
       << " report=" << std::setw(16) << fnv1a(report) << "\n";
    return os.str();
}

/** `lines` with every " report=<hex>" column cut. */
inline std::string
metricsColumns(const std::string &lines)
{
    std::istringstream in(lines);
    std::string out, line;
    while (std::getline(in, line))
        out += line.substr(0, line.find(" report=")) + "\n";
    return out;
}

/**
 * Expect `actual` digest lines to equal digest file `name`
 * (expectMatchesGolden, including its regenerate switch).  With
 * observability compiled out every report is empty, so only the
 * metrics columns are compared, as the goldens skip their report
 * checks there.
 */
inline void
expectMatchesDigests(const std::string &name, const std::string &actual)
{
    if (TRANSFUSION_OBS_ENABLED) {
        expectMatchesGolden(name, actual);
        return;
    }
    const std::string expected = metricsColumns(readGolden(name));
    ASSERT_FALSE(expected.empty())
        << "missing digest file " << goldenPath(name);
    const std::string got = metricsColumns(actual);
    EXPECT_EQ(expected, got) << obs::RunReport::diff(expected, got);
}

} // namespace transfusion::test

#endif // TRANSFUSION_TESTS_SUPPORT_REPLAY_DIGEST_HH
