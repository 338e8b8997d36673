/**
 * @file
 * Randomized invariants of the fault-schedule generator and of
 * replicaTransitions, swept over ten thousand seeds: every
 * generated trace must validate, keep its timestamps sorted, pair
 * every loss with a later recovery of the same chip, and never
 * down the last healthy chip; and the transitions' down spans and
 * pace steps must round-trip against an independent replay of the
 * raw event list.
 *
 * Own binary under the `fuzz` label: the sweep is cheap per seed
 * but 10k-deep, so it stays out of the unit tier's latency budget.
 */

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault_schedule.hh"

namespace transfusion::fault
{
namespace
{

constexpr int kSeeds = 10000;

FaultScheduleOptions
fuzzOptions(std::uint64_t seed)
{
    // Vary the shape with the seed so the sweep covers sparse and
    // dense schedules, long and short outages, and both link-heavy
    // and loss-heavy mixes.
    FaultScheduleOptions o;
    o.incidents = 1 + static_cast<int>(seed % 7);
    o.horizon_s = 10.0 + static_cast<double>(seed % 5) * 25.0;
    o.mean_outage_s = 0.5 + static_cast<double>(seed % 3) * 4.0;
    o.link_degrade_prob =
        static_cast<double>(seed % 4) * 0.25; // 0, .25, .5, .75
    o.min_factor = 0.25;
    // Mixed-kind coverage: a third of the seeds add gray failures
    // (kept within the probability budget link + slowdown <= 1),
    // some with correlated groups.
    if (seed % 3 == 0) {
        o.slowdown_prob = (1.0 - o.link_degrade_prob) * 0.5;
        o.mean_slowdown_s = 1.0 + static_cast<double>(seed % 5);
        o.max_multiplier = 2.0 + static_cast<double>(seed % 4);
        o.slowdown_group = 1 + static_cast<int>(seed % 3);
    }
    return o;
}

/** Chip up/down replay of the raw event list. */
struct Replay
{
    std::vector<bool> down;
    int down_count = 0;

    explicit Replay(int cluster_size)
        : down(static_cast<std::size_t>(cluster_size), false)
    {}

    void apply(const FaultEvent &e)
    {
        if (e.kind == FaultKind::ChipLoss) {
            down[static_cast<std::size_t>(e.chip)] = true;
            down_count += 1;
        } else if (e.kind == FaultKind::ChipRecovery) {
            down[static_cast<std::size_t>(e.chip)] = false;
            down_count -= 1;
        }
    }
};

constexpr double kInf = std::numeric_limits<double>::infinity();

/** One maximal span with the replica down; end_s = +inf when it
 *  never comes back up. */
struct Span
{
    double start_s = 0;
    double end_s = kInf;
};

/** The Down/Up transitions of `tr` paired into spans. */
std::vector<Span>
downSpans(const std::vector<ReplicaTransition> &tr)
{
    std::vector<Span> spans;
    for (const ReplicaTransition &x : tr) {
        if (x.kind == TransitionKind::Down) {
            EXPECT_TRUE(spans.empty() || spans.back().end_s != kInf)
                << "Down while down at t=" << x.time_s;
            spans.push_back({ x.time_s, kInf });
        } else if (x.kind == TransitionKind::Up) {
            EXPECT_TRUE(!spans.empty() && spans.back().end_s == kInf)
                << "Up while up at t=" << x.time_s;
            if (!spans.empty())
                spans.back().end_s = x.time_s;
        }
    }
    return spans;
}

/** One change of the replica pace. */
struct PaceStep
{
    double time_s = 0;
    double pace = 1.0;
};

/** The Pace transitions of `tr`. */
std::vector<PaceStep>
paceSteps(const std::vector<ReplicaTransition> &tr)
{
    std::vector<PaceStep> steps;
    for (const ReplicaTransition &x : tr)
        if (x.kind == TransitionKind::Pace)
            steps.push_back({ x.time_s, x.pace });
    return steps;
}

TEST(FaultScheduleFuzz, GeneratedSchedulesKeepTheirInvariants)
{
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        const int cluster = 2 + static_cast<int>(seed % 7);
        const auto opts = fuzzOptions(seed);
        const FaultSchedule s =
            generateFaultSchedule(opts, cluster, seed);

        // Valid by construction (validate is fatal otherwise), and
        // a pure function of (options, cluster, seed).
        s.validate(cluster);
        const FaultSchedule again =
            generateFaultSchedule(opts, cluster, seed);
        ASSERT_EQ(s.events.size(), again.events.size())
            << "seed " << seed;

        int losses = 0;
        int recoveries = 0;
        int slowdowns = 0;
        int slowdown_recoveries = 0;
        Replay replay(cluster);
        double prev = 0;
        for (std::size_t i = 0; i < s.events.size(); ++i) {
            const FaultEvent &e = s.events[i];
            // Sorted, non-negative timestamps.
            ASSERT_GE(e.time_s, prev)
                << "seed " << seed << " event " << i;
            prev = e.time_s;
            if (e.kind == FaultKind::LinkDegrade) {
                ASSERT_GE(e.factor, opts.min_factor)
                    << "seed " << seed;
                ASSERT_LE(e.factor, 1.0) << "seed " << seed;
                continue;
            }
            if (e.kind == FaultKind::ChipSlowdown) {
                // Gray-failure multipliers live in
                // (1, max_multiplier].
                ASSERT_GT(e.factor, 1.0) << "seed " << seed;
                ASSERT_LE(e.factor, opts.max_multiplier)
                    << "seed " << seed;
            }
            losses += e.kind == FaultKind::ChipLoss;
            recoveries += e.kind == FaultKind::ChipRecovery;
            slowdowns += e.kind == FaultKind::ChipSlowdown;
            slowdown_recoveries +=
                e.kind == FaultKind::SlowdownRecovery;
            replay.apply(e);
            // Last-chip protection: the generator never downs the
            // final healthy chip, so at least one always serves.
            // (A slowed chip still counts as serving.)
            ASSERT_LT(replay.down_count, cluster)
                << "seed " << seed << " event " << i;
        }
        // Every fault pairs with a matching-kind recovery: the
        // replay ends fully healthy at full speed, and the counts
        // match exactly.
        EXPECT_EQ(losses, recoveries) << "seed " << seed;
        EXPECT_EQ(slowdowns, slowdown_recoveries)
            << "seed " << seed;
        EXPECT_EQ(replay.down_count, 0) << "seed " << seed;
    }
}

TEST(FaultScheduleFuzz, SlowdownTimelineRoundTripsTheRawEvents)
{
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        const int cluster = 2 + static_cast<int>(seed % 7);
        const FaultSchedule s =
            generateFaultSchedule(fuzzOptions(seed), cluster, seed);
        const std::vector<ReplicaTransition> all =
            s.replicaTransitions(cluster);
        const std::vector<PaceStep> tl = paceSteps(all);

        // The merged list is in time order, and at each instant
        // the pace step (at most one) comes after the Down/Up
        // edges.
        for (std::size_t k = 1; k < all.size(); ++k) {
            ASSERT_LE(all[k - 1].time_s, all[k].time_s)
                << "seed " << seed << " transition " << k;
            if (all[k - 1].time_s == all[k].time_s) {
                ASSERT_NE(all[k - 1].kind, TransitionKind::Pace)
                    << "seed " << seed << " transition " << k;
            }
        }

        // Rebuild the timeline from the raw events: per-chip
        // multipliers, replica multiplier = max over chips, one
        // step per timestamp where the max actually changes.
        std::vector<double> mult(
            static_cast<std::size_t>(cluster), 1.0);
        std::vector<PaceStep> expected;
        double current = 1.0;
        std::size_t i = 0;
        while (i < s.events.size()) {
            const double t = s.events[i].time_s;
            while (i < s.events.size()
                   && s.events[i].time_s == t) {
                const FaultEvent &e = s.events[i];
                if (e.kind == FaultKind::ChipSlowdown)
                    mult[static_cast<std::size_t>(e.chip)] =
                        e.factor;
                else if (e.kind == FaultKind::SlowdownRecovery)
                    mult[static_cast<std::size_t>(e.chip)] = 1.0;
                i += 1;
            }
            double peak = 1.0;
            for (const double m : mult)
                peak = std::max(peak, m);
            if (peak != current) {
                expected.push_back({ t, peak });
                current = peak;
            }
        }

        ASSERT_EQ(tl.size(), expected.size())
            << "seed " << seed << ": " << s.toString();
        double prev_t = -1;
        for (std::size_t k = 0; k < tl.size(); ++k) {
            EXPECT_EQ(tl[k].time_s, expected[k].time_s)
                << "seed " << seed << " step " << k;
            EXPECT_EQ(tl[k].pace, expected[k].pace)
                << "seed " << seed << " step " << k;
            // Strictly increasing times, every step a change.
            ASSERT_GT(tl[k].time_s, prev_t)
                << "seed " << seed << " step " << k;
            prev_t = tl[k].time_s;
            if (k > 0) {
                ASSERT_NE(tl[k].pace, tl[k - 1].pace)
                    << "seed " << seed << " step " << k;
            }
        }
        // The timeline always ends back at full speed (generated
        // slowdowns are paired), and never dips below 1.
        if (!tl.empty()) {
            EXPECT_EQ(tl.back().pace, 1.0)
                << "seed " << seed;
        }
    }
}

TEST(FaultScheduleFuzz, DownSpansRoundTripTheRawEventList)
{
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        const int cluster = 2 + static_cast<int>(seed % 7);
        const FaultSchedule s =
            generateFaultSchedule(fuzzOptions(seed), cluster, seed);
        const std::vector<Span> spans =
            downSpans(s.replicaTransitions(cluster));

        // Rebuild the spans from the raw events: a span opens when
        // the first chip goes down and closes when the last one
        // recovers.
        std::vector<Span> expected;
        Replay replay(cluster);
        for (const FaultEvent &e : s.events) {
            const int before = replay.down_count;
            replay.apply(e);
            if (before == 0 && replay.down_count > 0)
                expected.push_back({ e.time_s, kInf });
            else if (before > 0 && replay.down_count == 0)
                expected.back().end_s = e.time_s;
        }

        ASSERT_EQ(spans.size(), expected.size())
            << "seed " << seed << ": " << s.toString();
        double prev_end = -1;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            EXPECT_EQ(spans[i].start_s, expected[i].start_s)
                << "seed " << seed << " span " << i;
            EXPECT_EQ(spans[i].end_s, expected[i].end_s)
                << "seed " << seed << " span " << i;
            // Merged and in time order: spans never touch or
            // overlap, and only the final span may be unbounded.
            ASSERT_GT(spans[i].start_s, prev_end)
                << "seed " << seed << " span " << i;
            ASSERT_GT(spans[i].end_s, spans[i].start_s)
                << "seed " << seed << " span " << i;
            prev_end = spans[i].end_s;
            if (std::isinf(spans[i].end_s)) {
                ASSERT_EQ(i, spans.size() - 1) << "seed " << seed;
            }
        }
    }
}

} // namespace
} // namespace transfusion::fault
