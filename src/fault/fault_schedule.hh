/**
 * @file
 * Deterministic fault model for multi-chip serving: a schedule of
 * chip-loss/recovery, chip-slowdown/recovery and link-degradation
 * events at virtual timestamps.  A schedule is plain data — tests
 * inject hand-written ones, benches generate them from a seed — and
 * its consumers read events strictly in time order, so a (workload,
 * schedule, seed) triple reproduces the same degraded trace
 * bit-for-bit on any machine and thread count.
 *
 * What an event does to a cluster — which chips are lost, the pace
 * of the fused pipeline, the link scale — is decided in one place,
 * ClusterHealth.  Events describe the *world*, not the reaction:
 * what the serving stack does about a loss (drain, replan, retry,
 * fail over) lives in fault_server.hh and fleet/fleet_sim.hh.
 */

#ifndef TRANSFUSION_FAULT_FAULT_SCHEDULE_HH
#define TRANSFUSION_FAULT_FAULT_SCHEDULE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace transfusion::fault
{

/** What happens to the cluster at one event. */
enum class FaultKind
{
    ChipLoss,     ///< a chip drops out of the cluster
    ChipRecovery, ///< a previously lost chip rejoins
    LinkDegrade,  ///< fabric bandwidth drops to `factor` x pristine
    /** A gray failure: the chip keeps serving but every compute
     *  step takes `factor` (> 1) times longer.  Layer-fused
     *  schedules are bottleneck-bound, so one slow chip gates the
     *  whole fused pipeline. */
    ChipSlowdown,
    SlowdownRecovery, ///< a slowed chip returns to full speed
};

/** Printable name ("chip-loss" / "chip-slowdown" / ...). */
std::string toString(FaultKind k);

/** One point event in virtual time. */
struct FaultEvent
{
    double time_s = 0; ///< virtual timestamp the event lands at
    FaultKind kind = FaultKind::ChipLoss;
    /** Chip index for chip events; ignored for link events. */
    int chip = -1;
    /**
     * Link-degrade bandwidth scale in (0, 1], *absolute* against
     * the pristine fabric (not cumulative), so factor = 1 restores
     * the link.  For chip-slowdown events: the compute-time
     * multiplier, strictly > 1.  Ignored for loss/recovery.
     */
    double factor = 1.0;

    std::string toString() const;
};

/**
 * The health of one cluster as fault events land on it: each chip
 * healthy, lost, or slowed by a multiplier, plus the fabric's link
 * scale.  This is the one interpreter of a FaultEvent — schedule
 * validation, the fleet's replica transitions, the fault server and
 * the generator all step one.
 */
class ClusterHealth
{
  public:
    /** `chips` healthy chips on a pristine fabric; fatal unless
     *  chips > 0. */
    explicit ClusterHealth(int chips);

    /**
     * Land one event.  Fatal when it is inconsistent with the
     * current state or malformed: a chip index out of range, a
     * degrade factor outside (0, 1], a slowdown multiplier not
     * > 1, a fault on a chip that already carries one, or a
     * recovery that does not match the outstanding fault kind (the
     * message names the chip, the timestamp and both kinds).
     */
    void apply(const FaultEvent &e);

    int size() const { return static_cast<int>(chips_.size()); }
    /** Whether `chip` carries no outstanding fault. */
    bool healthy(int chip) const;
    /** Chips not lost (a slowed chip still serves), ascending. */
    std::vector<int> survivors() const;
    int survivorCount() const { return size() - lost_; }
    /** Max multiplier over slowed chips (a fused pipeline paces
     *  on its slowest member); 1.0 when none is slowed. */
    double pace() const;
    /** Pristine-relative link bandwidth scale, absolute. */
    double linkScale() const { return link_scale_; }
    /** Any chip lost or slowed, or the link degraded. */
    bool degraded() const;

  private:
    struct Chip
    {
        bool lost = false;
        /** Compute-time multiplier; > 1 while slowed. */
        double slowdown = 1.0;
    };
    std::vector<Chip> chips_;
    int lost_ = 0;
    double link_scale_ = 1.0;
};

/** How a replica spanning a whole cluster changes at one instant. */
enum class TransitionKind
{
    Down, ///< the first chip is lost: the replica stops serving
    Up,   ///< the last lost chip recovers: the replica serves again
    Pace, ///< the cluster's pace (ClusterHealth::pace) changes
};

/** One change point of a replica's serving state. */
struct ReplicaTransition
{
    double time_s = 0;
    TransitionKind kind = TransitionKind::Down;
    /** For Pace: the pace from time_s on; 1.0 = full speed. */
    double pace = 1.0;
};

/** An ordered fault trace against one cluster. */
struct FaultSchedule
{
    std::vector<FaultEvent> events;

    bool empty() const { return events.empty(); }

    /**
     * Fatal unless the schedule is well-formed for a cluster of
     * `cluster_size` chips: times non-negative and non-decreasing,
     * and every event consistent when applied in order to a
     * ClusterHealth (see ClusterHealth::apply).  Losing every chip
     * is legal (a total outage the server must survive).
     */
    void validate(int cluster_size) const;

    /** "k events: loss@t ..." one-liner for banners and logs. */
    std::string toString() const;

    /**
     * The changes a replica built on the whole cluster sees, in
     * time order (validates first).  A sharded replica spans every
     * chip, so it is down while any chip is lost: a Down or Up is
     * emitted at each event that makes the first chip lost or the
     * last one whole, so a recovery listed before a loss at the
     * same instant gives an Up then a Down.  Pace changes are
     * coalesced per timestamp, follow that timestamp's Down/Up
     * edges, and are emitted only when the pace actually moves.
     * Link degrades never appear: a slower fabric still serves.
     */
    std::vector<ReplicaTransition> replicaTransitions(
        int cluster_size) const;
};

/** Knobs of one generated fault trace. */
struct FaultScheduleOptions
{
    /** Fault *incidents* to generate (losses + link degrades);
     *  each loss also schedules its recovery event. */
    int incidents = 1;
    /** Virtual window the incidents are spread over. */
    double horizon_s = 60.0;
    /** Mean chip outage before the paired recovery. */
    double mean_outage_s = 5.0;
    /** Probability an incident degrades the link instead of
     *  losing a chip. */
    double link_degrade_prob = 0.25;
    /** Lower bound of generated degrade factors. */
    double min_factor = 0.25;
    /**
     * Probability an incident slows a correlated group of chips
     * instead of losing one.  Defaults to 0 so pre-existing
     * (options, seed) pairs reproduce their schedules bit-for-bit;
     * link_degrade_prob + slowdown_prob must stay <= 1.
     */
    double slowdown_prob = 0.0;
    /** Mean slowdown duration before the paired recovery. */
    double mean_slowdown_s = 5.0;
    /** Upper bound of generated slowdown multipliers (> 1);
     *  draws land in (1, max_multiplier]. */
    double max_multiplier = 4.0;
    /**
     * Chips hit by one slowdown incident: a correlated group drawn
     * without replacement, sharing one multiplier and one recovery
     * timestamp (thermal throttling and rack-level gray failures
     * are correlated in practice).  Clamped to the chips available.
     */
    int slowdown_group = 1;

    /** Fatal unless counts/durations/probabilities make sense. */
    void validate() const;
};

/**
 * Generate a valid schedule for `cluster_size` chips: incident
 * times spread over the horizon with jittered gaps, each chip loss
 * paired with a recovery `~mean_outage_s` later, link degrades
 * drawn in [min_factor, 1), slowdown groups sharing a multiplier
 * in (1, max_multiplier] and a recovery `~mean_slowdown_s` later.
 * The generator never downs the last healthy chip (hand-write a
 * schedule to exercise total outages).  Pure function of
 * (options, cluster_size, seed); with slowdown_prob = 0 the RNG
 * stream is identical to the pre-slowdown generator, so existing
 * seeds reproduce their schedules unchanged.
 */
FaultSchedule generateFaultSchedule(
    const FaultScheduleOptions &options, int cluster_size,
    std::uint64_t seed);

} // namespace transfusion::fault

#endif // TRANSFUSION_FAULT_FAULT_SCHEDULE_HH
