/**
 * @file
 * Tests for the fault schedule: validation catches malformed
 * traces, ClusterHealth interprets events, the replica transitions
 * read the down edges and pace steps off it, generation is
 * seeded-deterministic and always valid, and the retry-backoff
 * arithmetic is exact.
 */

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "fault/fault_schedule.hh"
#include "fault/fault_server.hh"

namespace transfusion::fault
{
namespace
{

constexpr TransitionKind kDown = TransitionKind::Down;
constexpr TransitionKind kUp = TransitionKind::Up;
constexpr TransitionKind kPace = TransitionKind::Pace;

/** Field-by-field match of a transition list (doubles bitwise). */
void
expectTransitions(const std::vector<ReplicaTransition> &got,
                  const std::vector<ReplicaTransition> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].time_s, want[i].time_s) << "transition " << i;
        EXPECT_EQ(got[i].kind, want[i].kind) << "transition " << i;
        EXPECT_EQ(got[i].pace, want[i].pace) << "transition " << i;
    }
}

TEST(FaultSchedule, ValidateAcceptsAWellFormedTrace)
{
    FaultSchedule s;
    s.events.push_back({ 1.0, FaultKind::ChipLoss, 0 });
    s.events.push_back({ 2.0, FaultKind::LinkDegrade, -1, 0.5 });
    s.events.push_back({ 3.0, FaultKind::ChipRecovery, 0 });
    s.events.push_back({ 3.0, FaultKind::ChipLoss, 1 });
    EXPECT_NO_THROW(s.validate(2));
}

TEST(FaultSchedule, ValidateRejectsMalformedTraces)
{
    {
        FaultSchedule s; // out-of-order times
        s.events.push_back({ 2.0, FaultKind::ChipLoss, 0 });
        s.events.push_back({ 1.0, FaultKind::ChipRecovery, 0 });
        EXPECT_THROW(s.validate(2), FatalError);
    }
    {
        FaultSchedule s; // chip out of range
        s.events.push_back({ 1.0, FaultKind::ChipLoss, 5 });
        EXPECT_THROW(s.validate(2), FatalError);
    }
    {
        FaultSchedule s; // double loss without recovery
        s.events.push_back({ 1.0, FaultKind::ChipLoss, 0 });
        s.events.push_back({ 2.0, FaultKind::ChipLoss, 0 });
        EXPECT_THROW(s.validate(2), FatalError);
    }
    {
        FaultSchedule s; // recovery of an up chip
        s.events.push_back({ 1.0, FaultKind::ChipRecovery, 0 });
        EXPECT_THROW(s.validate(2), FatalError);
    }
    {
        FaultSchedule s; // degrade factor out of (0, 1]
        s.events.push_back(
            { 1.0, FaultKind::LinkDegrade, -1, 1.5 });
        EXPECT_THROW(s.validate(2), FatalError);
    }
    {
        FaultSchedule s; // negative time
        s.events.push_back({ -1.0, FaultKind::ChipLoss, 0 });
        EXPECT_THROW(s.validate(2), FatalError);
    }
}

TEST(FaultSchedule, TotalLossIsLegal)
{
    FaultSchedule s;
    s.events.push_back({ 1.0, FaultKind::ChipLoss, 0 });
    s.events.push_back({ 2.0, FaultKind::ChipLoss, 1 });
    EXPECT_NO_THROW(s.validate(2));
}

TEST(FaultSchedule, GenerationIsSeededDeterministic)
{
    FaultScheduleOptions o;
    o.incidents = 6;
    const FaultSchedule a = generateFaultSchedule(o, 4, 11);
    const FaultSchedule b = generateFaultSchedule(o, 4, 11);
    ASSERT_EQ(a.events.size(), b.events.size());
    for (std::size_t i = 0; i < a.events.size(); ++i) {
        EXPECT_EQ(a.events[i].time_s, b.events[i].time_s);
        EXPECT_EQ(a.events[i].kind, b.events[i].kind);
        EXPECT_EQ(a.events[i].chip, b.events[i].chip);
        EXPECT_EQ(a.events[i].factor, b.events[i].factor);
    }
    const FaultSchedule c = generateFaultSchedule(o, 4, 12);
    EXPECT_NE(a.toString(), c.toString());
}

TEST(FaultSchedule, GenerationIsAlwaysValidAndPairsRecoveries)
{
    FaultScheduleOptions o;
    o.incidents = 12;
    o.link_degrade_prob = 0.3;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const FaultSchedule s = generateFaultSchedule(o, 3, seed);
        EXPECT_NO_THROW(s.validate(3)) << "seed " << seed;
        std::int64_t losses = 0;
        std::int64_t recoveries = 0;
        for (const FaultEvent &e : s.events) {
            losses += e.kind == FaultKind::ChipLoss;
            recoveries += e.kind == FaultKind::ChipRecovery;
        }
        EXPECT_EQ(losses, recoveries) << "seed " << seed;
    }
}

TEST(FaultSchedule, GeneratorNeverDownsTheLastChip)
{
    FaultScheduleOptions o;
    o.incidents = 10;
    o.link_degrade_prob = 0.0; // ask for losses only
    const FaultSchedule s = generateFaultSchedule(o, 1, 5);
    for (const FaultEvent &e : s.events)
        EXPECT_EQ(e.kind, FaultKind::LinkDegrade);
}

TEST(FaultSchedule, DownSpansCoverEveryUnhealthyInterval)
{
    // The fleet routes around a replica exactly while any chip is
    // down: it goes Down at the first loss, Up when the *last* down
    // chip recovers, and overlapping outages coalesce.
    FaultSchedule s;
    s.events.push_back({ 1.0, FaultKind::ChipLoss, 0 });
    s.events.push_back({ 2.0, FaultKind::ChipLoss, 1 });  // overlap
    s.events.push_back({ 3.0, FaultKind::ChipRecovery, 0 });
    s.events.push_back({ 4.0, FaultKind::ChipRecovery, 1 });
    s.events.push_back({ 6.0, FaultKind::ChipLoss, 1 });
    s.events.push_back({ 7.0, FaultKind::ChipRecovery, 1 });
    expectTransitions(s.replicaTransitions(2),
                      { { 1.0, kDown },
                        { 4.0, kUp }, // last recovery, not first
                        { 6.0, kDown },
                        { 7.0, kUp } });
}

TEST(FaultSchedule, DownSpansOpenForeverWithoutRecovery)
{
    FaultSchedule s;
    s.events.push_back({ 2.5, FaultKind::ChipLoss, 1 });
    expectTransitions(s.replicaTransitions(2), { { 2.5, kDown } });
}

TEST(FaultSchedule, LinkDegradesNeverOpenADownSpan)
{
    // A slower fabric still serves — degrades are the fault
    // server's replanning domain, not a routing outage or a pace.
    FaultSchedule s;
    s.events.push_back({ 1.0, FaultKind::LinkDegrade, -1, 0.25 });
    s.events.push_back({ 5.0, FaultKind::LinkDegrade, -1, 1.0 });
    EXPECT_TRUE(s.replicaTransitions(2).empty());
    EXPECT_TRUE(FaultSchedule{}.replicaTransitions(2).empty());
}

TEST(FaultSchedule, SameInstantEdgesFollowEventOrderBeforePace)
{
    // Edges are per event: a recovery listed before a loss at one
    // instant briefly makes the replica whole (Up then Down), the
    // reverse order never does.  The instant's pace step follows
    // its edges.
    FaultSchedule s;
    s.events.push_back({ 1.0, FaultKind::ChipLoss, 0 });
    s.events.push_back({ 2.0, FaultKind::ChipRecovery, 0 });
    s.events.push_back({ 2.0, FaultKind::ChipSlowdown, 2, 3.0 });
    s.events.push_back({ 2.0, FaultKind::ChipLoss, 1 });
    s.events.push_back({ 3.0, FaultKind::ChipLoss, 0 });
    s.events.push_back({ 3.0, FaultKind::ChipRecovery, 1 });
    s.events.push_back({ 4.0, FaultKind::ChipLoss, 1 });
    s.events.push_back({ 4.0, FaultKind::ChipRecovery, 1 });
    expectTransitions(s.replicaTransitions(3),
                      { { 1.0, kDown },
                        { 2.0, kUp },
                        { 2.0, kDown },
                        { 2.0, kPace, 3.0 } });
    // A loss and its recovery at one instant is a zero-length
    // outage: Down then Up.
    FaultSchedule blip;
    blip.events.push_back({ 1.0, FaultKind::ChipLoss, 0 });
    blip.events.push_back({ 1.0, FaultKind::ChipRecovery, 0 });
    expectTransitions(blip.replicaTransitions(2),
                      { { 1.0, kDown }, { 1.0, kUp } });
}

TEST(FaultSchedule, ValidateRejectsMixedKindRecoveries)
{
    {
        FaultSchedule s; // slowdown cleared by a loss recovery
        s.events.push_back(
            { 1.0, FaultKind::ChipSlowdown, 0, 2.0 });
        s.events.push_back({ 2.0, FaultKind::ChipRecovery, 0 });
        try {
            s.validate(2);
            FAIL() << "mixed-kind recovery must be rejected";
        } catch (const FatalError &e) {
            // The message names the chip, the timestamp, and both
            // kinds — the fuzz shrinker depends on that.
            const std::string msg = e.what();
            EXPECT_NE(msg.find("chip 0"), std::string::npos)
                << msg;
            EXPECT_NE(msg.find("t=2"), std::string::npos) << msg;
            EXPECT_NE(msg.find("chip-slowdown"), std::string::npos)
                << msg;
            EXPECT_NE(msg.find("chip-recovery"), std::string::npos)
                << msg;
        }
    }
    {
        FaultSchedule s; // loss cleared by a slowdown recovery
        s.events.push_back({ 1.0, FaultKind::ChipLoss, 0 });
        s.events.push_back(
            { 2.0, FaultKind::SlowdownRecovery, 0 });
        EXPECT_THROW(s.validate(2), FatalError);
    }
    {
        FaultSchedule s; // slowdown on an already-down chip
        s.events.push_back({ 1.0, FaultKind::ChipLoss, 0 });
        s.events.push_back(
            { 2.0, FaultKind::ChipSlowdown, 0, 2.0 });
        EXPECT_THROW(s.validate(2), FatalError);
    }
    {
        FaultSchedule s; // slowdown factor must be > 1
        s.events.push_back(
            { 1.0, FaultKind::ChipSlowdown, 0, 1.0 });
        EXPECT_THROW(s.validate(2), FatalError);
    }
    {
        FaultSchedule s; // recovery of a full-speed chip
        s.events.push_back(
            { 1.0, FaultKind::SlowdownRecovery, 0 });
        EXPECT_THROW(s.validate(2), FatalError);
    }
    {
        FaultSchedule s; // loss-then-slowdown on distinct chips OK
        s.events.push_back({ 1.0, FaultKind::ChipLoss, 0 });
        s.events.push_back(
            { 2.0, FaultKind::ChipSlowdown, 1, 3.0 });
        s.events.push_back({ 3.0, FaultKind::ChipRecovery, 0 });
        s.events.push_back(
            { 4.0, FaultKind::SlowdownRecovery, 1 });
        EXPECT_NO_THROW(s.validate(2));
    }
}

TEST(FaultSchedule, SlowdownTimelineTakesTheMaxOverChips)
{
    // One slow chip gates the whole fused pipeline, so the replica
    // pace is the max over active per-chip slowdowns.
    FaultSchedule s;
    s.events.push_back({ 1.0, FaultKind::ChipSlowdown, 0, 2.0 });
    s.events.push_back({ 2.0, FaultKind::ChipSlowdown, 1, 4.0 });
    s.events.push_back(
        { 3.0, FaultKind::SlowdownRecovery, 1 });
    s.events.push_back(
        { 5.0, FaultKind::SlowdownRecovery, 0 });
    expectTransitions(s.replicaTransitions(2),
                      { { 1.0, kPace, 2.0 },
                        { 2.0, kPace, 4.0 },
                        { 3.0, kPace, 2.0 }, // chip 0 still slow
                        { 5.0, kPace, 1.0 } }); // full speed again
}

TEST(FaultSchedule, SlowdownTimelineCoalescesAndSkipsNoChange)
{
    // Same-timestamp events collapse into one step (the 2x listed
    // first never shows), and a step that does not change the pace
    // is dropped.
    FaultSchedule s;
    s.events.push_back({ 1.0, FaultKind::ChipSlowdown, 1, 2.0 });
    s.events.push_back({ 1.0, FaultKind::ChipSlowdown, 0, 4.0 });
    s.events.push_back(
        { 2.0, FaultKind::SlowdownRecovery, 1 }); // max unchanged
    s.events.push_back(
        { 3.0, FaultKind::SlowdownRecovery, 0 });
    expectTransitions(s.replicaTransitions(2),
                      { { 1.0, kPace, 4.0 }, { 3.0, kPace, 1.0 } });
    // Losses and link degrades never step the pace.
    FaultSchedule t;
    t.events.push_back({ 1.0, FaultKind::ChipLoss, 0 });
    t.events.push_back({ 2.0, FaultKind::LinkDegrade, -1, 0.5 });
    expectTransitions(t.replicaTransitions(2), { { 1.0, kDown } });
}

TEST(ClusterHealth, SurvivorsAreTheChipsNotLost)
{
    ClusterHealth h(4);
    EXPECT_EQ(h.survivors(), (std::vector<int>{ 0, 1, 2, 3 }));
    h.apply({ 1.0, FaultKind::ChipLoss, 1 });
    h.apply({ 1.0, FaultKind::ChipSlowdown, 2, 2.0 });
    // A slowed chip still serves; only the lost one drops out.
    EXPECT_EQ(h.survivors(), (std::vector<int>{ 0, 2, 3 }));
    EXPECT_EQ(h.survivorCount(), 3);
    EXPECT_TRUE(h.healthy(0));
    EXPECT_FALSE(h.healthy(1));
    EXPECT_FALSE(h.healthy(2)); // carries a fault, though it serves
    EXPECT_TRUE(h.degraded());
    h.apply({ 2.0, FaultKind::ChipLoss, 0 });
    h.apply({ 2.0, FaultKind::ChipLoss, 3 });
    EXPECT_EQ(h.survivors(), (std::vector<int>{ 2 }));
    EXPECT_THROW(ClusterHealth(0), FatalError);
}

TEST(ClusterHealth, PaceIsTheMaxOverSlowedChips)
{
    ClusterHealth h(3);
    EXPECT_EQ(h.pace(), 1.0);
    h.apply({ 1.0, FaultKind::ChipSlowdown, 0, 2.0 });
    h.apply({ 1.0, FaultKind::ChipSlowdown, 2, 3.0 });
    EXPECT_EQ(h.pace(), 3.0);
    h.apply({ 2.0, FaultKind::ChipLoss, 1 }); // a loss is no pace
    EXPECT_EQ(h.pace(), 3.0);
    h.apply({ 3.0, FaultKind::SlowdownRecovery, 2 });
    EXPECT_EQ(h.pace(), 2.0);
    h.apply({ 4.0, FaultKind::SlowdownRecovery, 0 });
    EXPECT_EQ(h.pace(), 1.0);
}

TEST(ClusterHealth, LinkScaleIsAbsoluteNotCumulative)
{
    ClusterHealth h(2);
    h.apply({ 1.0, FaultKind::LinkDegrade, -1, 0.5 });
    EXPECT_EQ(h.linkScale(), 0.5);
    h.apply({ 2.0, FaultKind::LinkDegrade, -1, 0.25 });
    EXPECT_EQ(h.linkScale(), 0.25); // not 0.125
    EXPECT_TRUE(h.degraded());
    h.apply({ 3.0, FaultKind::LinkDegrade, -1, 1.0 });
    EXPECT_EQ(h.linkScale(), 1.0);
    EXPECT_FALSE(h.degraded());
}

TEST(ClusterHealth, RecoveryRestoresTheInitialState)
{
    ClusterHealth h(3);
    h.apply({ 1.0, FaultKind::ChipLoss, 0 });
    h.apply({ 1.0, FaultKind::ChipSlowdown, 1, 4.0 });
    h.apply({ 1.0, FaultKind::LinkDegrade, -1, 0.5 });
    h.apply({ 2.0, FaultKind::ChipRecovery, 0 });
    h.apply({ 2.0, FaultKind::SlowdownRecovery, 1 });
    h.apply({ 2.0, FaultKind::LinkDegrade, -1, 1.0 });
    EXPECT_EQ(h.survivors(), (std::vector<int>{ 0, 1, 2 }));
    EXPECT_EQ(h.pace(), 1.0);
    EXPECT_EQ(h.linkScale(), 1.0);
    EXPECT_FALSE(h.degraded());
    for (int c = 0; c < 3; ++c)
        EXPECT_TRUE(h.healthy(c)) << "chip " << c;
    // And a recovered chip takes a new fault of either kind.
    h.apply({ 3.0, FaultKind::ChipSlowdown, 0, 2.0 });
    h.apply({ 3.0, FaultKind::ChipLoss, 1 });
    EXPECT_EQ(h.survivorCount(), 2);
}

TEST(FaultSchedule, GeneratorEmitsValidCorrelatedSlowdowns)
{
    FaultScheduleOptions o;
    o.incidents = 12;
    o.link_degrade_prob = 0.0;
    o.slowdown_prob = 1.0; // slowdowns only
    o.slowdown_group = 3;
    o.max_multiplier = 6.0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const FaultSchedule s = generateFaultSchedule(o, 4, seed);
        EXPECT_NO_THROW(s.validate(4)) << "seed " << seed;
        std::int64_t slowdowns = 0;
        std::int64_t recoveries = 0;
        for (const FaultEvent &e : s.events) {
            if (e.kind == FaultKind::ChipSlowdown) {
                slowdowns += 1;
                EXPECT_GT(e.factor, 1.0);
                EXPECT_LE(e.factor, o.max_multiplier);
            }
            recoveries += e.kind == FaultKind::SlowdownRecovery;
        }
        EXPECT_EQ(slowdowns, recoveries) << "seed " << seed;
        EXPECT_GT(slowdowns, 0) << "seed " << seed;
    }
    // The correlated group shares one onset timestamp somewhere.
    const FaultSchedule s = generateFaultSchedule(o, 4, 3);
    bool correlated = false;
    for (std::size_t i = 1; i < s.events.size(); ++i)
        correlated = correlated
            || (s.events[i].kind == FaultKind::ChipSlowdown
                && s.events[i - 1].kind == FaultKind::ChipSlowdown
                && s.events[i].time_s == s.events[i - 1].time_s);
    EXPECT_TRUE(correlated);
}

TEST(FaultSchedule, SlowdownProbZeroPreservesTheLegacyStream)
{
    // The historical generator drew link-vs-loss from one uniform;
    // the slowdown arm partitions that same draw, so schedules at
    // slowdown_prob = 0 are bit-identical to schedules generated
    // before the arm existed (goldens pin the same property at the
    // RunReport level).
    FaultScheduleOptions legacy;
    legacy.incidents = 10;
    legacy.link_degrade_prob = 0.4;
    FaultScheduleOptions extended = legacy;
    extended.slowdown_prob = 0.0;
    extended.slowdown_group = 2;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const auto a = generateFaultSchedule(legacy, 3, seed);
        const auto b = generateFaultSchedule(extended, 3, seed);
        EXPECT_EQ(a.toString(), b.toString()) << "seed " << seed;
    }
}

TEST(RetryPolicy, BackoffGrowsGeometricallyAndCaps)
{
    RetryPolicy p;
    p.backoff_s = 0.5;
    p.multiplier = 2.0;
    p.cap_s = 3.0;
    EXPECT_EQ(p.delaySeconds(1), 0.5);
    EXPECT_EQ(p.delaySeconds(2), 1.0);
    EXPECT_EQ(p.delaySeconds(3), 2.0);
    EXPECT_EQ(p.delaySeconds(4), 3.0); // capped, not 4.0
    EXPECT_EQ(p.delaySeconds(10), 3.0);
}

TEST(RetryPolicy, HugeAttemptCountsNeverOverflowTheBackoff)
{
    // Iterated multiplication would hit inf near attempt ~1e3 for
    // multiplier 2; the clamp must keep every result finite, at
    // the cap, and monotone.
    RetryPolicy p;
    p.backoff_s = 0.5;
    p.multiplier = 2.0;
    p.cap_s = 30.0;
    for (const int attempt : { 1000, 100000, 1 << 30,
                               std::numeric_limits<int>::max() }) {
        const double d = p.delaySeconds(attempt);
        EXPECT_TRUE(std::isfinite(d)) << "attempt " << attempt;
        EXPECT_EQ(d, p.cap_s) << "attempt " << attempt;
    }
    // A multiplier of exactly 1 must not spin a billion no-op
    // multiplies (this returns promptly or the test times out).
    RetryPolicy flat;
    flat.multiplier = 1.0;
    flat.cap_s = 1e9;
    EXPECT_EQ(flat.delaySeconds(std::numeric_limits<int>::max()),
              flat.backoff_s);
    // An uncapped-in-practice policy still clamps at the cap even
    // when the product overflows to inf mid-loop.
    RetryPolicy wild;
    wild.backoff_s = 1e300;
    wild.multiplier = 1e10;
    wild.cap_s = 1e308;
    EXPECT_EQ(wild.delaySeconds(5000), wild.cap_s);
}

TEST(RetryPolicy, ValidateRejectsNonsense)
{
    RetryPolicy p;
    p.backoff_s = 0;
    EXPECT_THROW(p.validate(), FatalError);
    p = {};
    p.multiplier = 0.5;
    EXPECT_THROW(p.validate(), FatalError);
    p = {};
    p.cap_s = p.backoff_s / 2;
    EXPECT_THROW(p.validate(), FatalError);
    p = {};
    p.max_attempts = -1;
    EXPECT_THROW(p.validate(), FatalError);
    // Non-finite knobs are rejected up front, not discovered as
    // inf mid-backoff.
    p = {};
    p.cap_s = std::numeric_limits<double>::infinity();
    EXPECT_THROW(p.validate(), FatalError);
    p = {};
    p.multiplier = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(p.validate(), FatalError);
}

} // namespace
} // namespace transfusion::fault
