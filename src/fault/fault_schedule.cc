/**
 * @file
 * Fault-schedule validation and seeded generation.
 */

#include "fault_schedule.hh"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/logging.hh"
#include "common/rng.hh"

namespace transfusion::fault
{

std::string
toString(FaultKind k)
{
    switch (k) {
    case FaultKind::ChipLoss:
        return "chip-loss";
    case FaultKind::ChipRecovery:
        return "chip-recovery";
    case FaultKind::LinkDegrade:
        return "link-degrade";
    case FaultKind::ChipSlowdown:
        return "chip-slowdown";
    case FaultKind::SlowdownRecovery:
        return "slowdown-recovery";
    }
    tf_panic("unknown FaultKind");
}

std::string
FaultEvent::toString() const
{
    std::ostringstream os;
    os << fault::toString(kind) << "@" << time_s;
    if (kind == FaultKind::LinkDegrade)
        os << "(x" << factor << ")";
    else if (kind == FaultKind::ChipSlowdown)
        os << "(chip " << chip << " x" << factor << ")";
    else
        os << "(chip " << chip << ")";
    return os.str();
}

ClusterHealth::ClusterHealth(int chips)
{
    if (chips <= 0)
        tf_fatal("fault schedule needs a positive cluster size, "
                 "got ",
                 chips);
    chips_.resize(static_cast<std::size_t>(chips));
}

void
ClusterHealth::apply(const FaultEvent &e)
{
    if (e.kind == FaultKind::LinkDegrade) {
        if (!(e.factor > 0) || e.factor > 1)
            tf_fatal("link-degrade factor must be in (0, 1], "
                     "got ",
                     e.factor);
        link_scale_ = e.factor;
        return;
    }
    if (e.chip < 0 || e.chip >= size())
        tf_fatal("fault event chip ", e.chip, " out of range for a ",
                 size(), "-chip cluster");
    Chip &chip = chips_[static_cast<std::size_t>(e.chip)];
    // A chip carries at most one fault at a time, and each recovery
    // kind only clears its own fault kind (ChipRecovery <- ChipLoss,
    // SlowdownRecovery <- ChipSlowdown).
    const bool faulted = chip.lost || chip.slowdown > 1.0;
    const FaultKind outstanding =
        chip.lost ? FaultKind::ChipLoss : FaultKind::ChipSlowdown;
    switch (e.kind) {
    case FaultKind::ChipLoss:
        if (faulted)
            tf_fatal("chip ", e.chip, " lost at t=", e.time_s,
                     " with an outstanding ",
                     fault::toString(outstanding), " (",
                     e.toString(), ")");
        chip.lost = true;
        lost_ += 1;
        break;
    case FaultKind::ChipSlowdown:
        if (!(e.factor > 1))
            tf_fatal("chip-slowdown multiplier must be > 1, got ",
                     e.factor, " (", e.toString(), ")");
        if (faulted)
            tf_fatal("chip ", e.chip, " slowed at t=", e.time_s,
                     " with an outstanding ",
                     fault::toString(outstanding), " (",
                     e.toString(), ")");
        chip.slowdown = e.factor;
        break;
    case FaultKind::ChipRecovery:
    case FaultKind::SlowdownRecovery: {
        const FaultKind clears = e.kind == FaultKind::ChipRecovery
            ? FaultKind::ChipLoss
            : FaultKind::ChipSlowdown;
        if (!faulted)
            tf_fatal("chip ", e.chip, " recovered while healthy (",
                     e.toString(), ")");
        if (outstanding != clears)
            tf_fatal("chip ", e.chip, " has an outstanding ",
                     fault::toString(outstanding), " but t=",
                     e.time_s, " delivers a ",
                     fault::toString(e.kind),
                     "; recovery kinds must match the fault "
                     "they clear");
        lost_ -= chip.lost ? 1 : 0;
        chip = Chip{};
        break;
    }
    case FaultKind::LinkDegrade:
        break; // handled above
    }
}

bool
ClusterHealth::healthy(int chip) const
{
    const Chip &c = chips_.at(static_cast<std::size_t>(chip));
    return !c.lost && c.slowdown == 1.0;
}

std::vector<int>
ClusterHealth::survivors() const
{
    std::vector<int> out;
    for (int i = 0; i < size(); ++i)
        if (!chips_[static_cast<std::size_t>(i)].lost)
            out.push_back(i);
    return out;
}

double
ClusterHealth::pace() const
{
    double pace = 1.0;
    for (const Chip &c : chips_)
        pace = std::max(pace, c.slowdown);
    return pace;
}

bool
ClusterHealth::degraded() const
{
    return lost_ > 0 || link_scale_ < 1.0 || pace() > 1.0;
}

void
FaultSchedule::validate(int cluster_size) const
{
    ClusterHealth health(cluster_size);
    double prev = 0;
    for (const FaultEvent &e : events) {
        if (e.time_s < 0)
            tf_fatal("fault event before time zero: ",
                     e.toString());
        if (e.time_s < prev)
            tf_fatal("fault events must be sorted by time; ",
                     e.toString(), " follows t=", prev);
        prev = e.time_s;
        health.apply(e);
    }
}

std::string
FaultSchedule::toString() const
{
    std::ostringstream os;
    os << events.size() << " events:";
    for (const FaultEvent &e : events)
        os << " " << e.toString();
    return os.str();
}

std::vector<ReplicaTransition>
FaultSchedule::replicaTransitions(int cluster_size) const
{
    validate(cluster_size);
    std::vector<ReplicaTransition> out;
    ClusterHealth health(cluster_size);
    double pace = 1.0;
    for (std::size_t i = 0; i < events.size();) {
        const double t = events[i].time_s;
        for (; i < events.size() && events[i].time_s == t; ++i) {
            const bool was_down = health.survivorCount() < cluster_size;
            health.apply(events[i]);
            const bool down = health.survivorCount() < cluster_size;
            if (down != was_down)
                out.push_back({ t,
                                down ? TransitionKind::Down
                                     : TransitionKind::Up });
        }
        // One pace step per timestamp, so a correlated incident (or
        // a same-instant hand-off between chips) is one change.
        if (health.pace() != pace) {
            pace = health.pace();
            out.push_back({ t, TransitionKind::Pace, pace });
        }
    }
    return out;
}

void
FaultScheduleOptions::validate() const
{
    if (incidents < 0)
        tf_fatal("incidents must be non-negative, got ", incidents);
    if (!(horizon_s > 0))
        tf_fatal("horizon_s must be positive, got ", horizon_s);
    if (!(mean_outage_s > 0))
        tf_fatal("mean_outage_s must be positive, got ",
                 mean_outage_s);
    if (link_degrade_prob < 0 || link_degrade_prob > 1)
        tf_fatal("link_degrade_prob must be in [0, 1], got ",
                 link_degrade_prob);
    if (!(min_factor > 0) || min_factor > 1)
        tf_fatal("min_factor must be in (0, 1], got ", min_factor);
    if (slowdown_prob < 0 || slowdown_prob > 1)
        tf_fatal("slowdown_prob must be in [0, 1], got ",
                 slowdown_prob);
    if (link_degrade_prob + slowdown_prob > 1)
        tf_fatal("link_degrade_prob + slowdown_prob must not "
                 "exceed 1, got ",
                 link_degrade_prob + slowdown_prob);
    if (!(mean_slowdown_s > 0))
        tf_fatal("mean_slowdown_s must be positive, got ",
                 mean_slowdown_s);
    if (!(max_multiplier > 1))
        tf_fatal("max_multiplier must be > 1, got ",
                 max_multiplier);
    if (slowdown_group < 1)
        tf_fatal("slowdown_group must be at least 1, got ",
                 slowdown_group);
}

FaultSchedule
generateFaultSchedule(const FaultScheduleOptions &options,
                      int cluster_size, std::uint64_t seed)
{
    options.validate();
    Rng rng(seed);
    FaultSchedule schedule;
    // Every emitted event also lands on `health`, so a down OR
    // slowed chip takes no new fault until its recovery lands.
    ClusterHealth health(cluster_size);
    const auto emit = [&](const FaultEvent &e) {
        health.apply(e);
        schedule.events.push_back(e);
    };
    // Recoveries scheduled by earlier incidents, flushed in time
    // order before each later incident.
    std::vector<FaultEvent> due;
    const auto flushDue = [&](double until) {
        // Tie-break equal timestamps by chip so correlated-group
        // recoveries (which share one instant) flush in a fixed
        // order regardless of the sort implementation.
        std::sort(due.begin(), due.end(),
                  [](const FaultEvent &a, const FaultEvent &b) {
                      return a.time_s != b.time_s
                          ? a.time_s < b.time_s
                          : a.chip < b.chip;
                  });
        std::size_t used = 0;
        for (; used < due.size() && due[used].time_s <= until;
             ++used)
            emit(due[used]);
        due.erase(due.begin(),
                  due.begin() + static_cast<std::ptrdiff_t>(used));
    };

    double t = 0;
    for (int i = 0; i < options.incidents; ++i) {
        // Jittered mean gap keeps incidents spread over the
        // horizon without the lockstep of a fixed period.
        t += options.horizon_s
            / static_cast<double>(options.incidents)
            * (0.5 + rng.nextDouble());
        flushDue(t);

        std::vector<int> candidates;
        for (int c = 0; c < cluster_size; ++c)
            if (health.healthy(c))
                candidates.push_back(c);
        // Never down the last healthy chip; fall back to a link
        // event so the incident count is honored.  One draw picks
        // the incident kind by partitioning [0, 1): with
        // slowdown_prob = 0 the partition — and therefore the RNG
        // stream — collapses to the historical link-vs-loss split.
        const double u =
            candidates.size() > 1 ? rng.nextDouble() : 0.0;
        if (candidates.size() <= 1
            || u < options.link_degrade_prob) {
            const double factor =
                rng.nextDouble(options.min_factor, 1.0);
            emit({ t, FaultKind::LinkDegrade, -1, factor });
        } else if (u < options.link_degrade_prob
                       + options.slowdown_prob) {
            // Correlated slowdown: a group of chips share one
            // multiplier and one recovery instant.
            const double factor = options.max_multiplier
                - (options.max_multiplier - 1.0)
                    * rng.nextDouble(); // (1, max_multiplier]
            const double recover_at = t
                + options.mean_slowdown_s
                    * (0.5 + rng.nextDouble());
            const auto group = std::min(
                static_cast<std::size_t>(options.slowdown_group),
                candidates.size());
            for (std::size_t g = 0; g < group; ++g) {
                const std::size_t pick =
                    rng.nextBelow(candidates.size());
                const int chip = candidates[pick];
                candidates[pick] = candidates.back();
                candidates.pop_back();
                emit({ t, FaultKind::ChipSlowdown, chip, factor });
                due.push_back({ recover_at,
                                FaultKind::SlowdownRecovery, chip,
                                1.0 });
            }
        } else {
            const int chip =
                candidates[rng.nextBelow(candidates.size())];
            emit({ t, FaultKind::ChipLoss, chip, 1.0 });
            FaultEvent recovery;
            recovery.time_s = t
                + options.mean_outage_s
                    * (0.5 + rng.nextDouble());
            recovery.kind = FaultKind::ChipRecovery;
            recovery.chip = chip;
            due.push_back(recovery);
        }
    }
    flushDue(std::numeric_limits<double>::infinity());
    schedule.validate(cluster_size);
    return schedule;
}

} // namespace transfusion::fault
