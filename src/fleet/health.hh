/**
 * @file
 * Per-replica gray-failure detection: a deterministic EWMA health
 * monitor feeding a three-state circuit breaker.
 *
 * A fail-stop fault announces itself (a Down transition of
 * FaultSchedule::replicaTransitions makes the replica unroutable),
 * but a gray failure — a chip running every round N x slower —
 * keeps answering and silently blows the fleet's tail latency.  The monitor infers it from the
 * two signals the fleet loop already owns: the replica's *observed*
 * step latency (virtual-clock delta over rounds executed between
 * updates, so a slowdown multiplier shows up directly) and its
 * outstanding depth.  Both are smoothed with a fixed-alpha EWMA;
 * breaches must persist for a consecutive-update streak before the
 * breaker opens.
 *
 * Breaker state machine (all transitions counted in *updates*, the
 * fleet's fixed event-order boundaries — integer arithmetic, so
 * runs stay bit-identical per (trace, seed, threads)):
 *
 *       closed --streak of breaches--> open
 *       open   --cooldown updates----> half-open (routable probe)
 *       half-open --any breach-------> open (cooldown re-arms)
 *       half-open --probe updates clean--> closed
 *
 * An open breaker removes the replica from the router's eligible
 * set; a half-open one serves probe traffic so recovery is
 * observable.  The monitor owns no replica and samples nothing
 * itself — the fleet simulator feeds it at fixed points in the
 * event order, exactly like the Autoscaler.
 */

#ifndef TRANSFUSION_FLEET_HEALTH_HH
#define TRANSFUSION_FLEET_HEALTH_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace transfusion::fleet
{

/** Detection thresholds and breaker hysteresis knobs. */
struct HealthOptions
{
    /** Master switch; disabled monitors never observe and the
     *  breaker stays closed (fleet behavior is byte-identical to a
     *  fleet without health monitoring). */
    bool enabled = false;
    /** EWMA smoothing factor in (0, 1]; 1 = no smoothing. */
    double alpha = 0.3;
    /** Open when the latency EWMA reaches this many seconds per
     *  step; <= 0 disables the latency trigger. */
    double latency_breach_s = 0;
    /** Open when the outstanding-depth EWMA reaches this;
     *  <= 0 disables the depth trigger. */
    double depth_breach = 0;
    /** Consecutive breached updates before the breaker opens. */
    int breach_streak = 3;
    /** Updates an open breaker holds before probing half-open. */
    int cooldown_updates = 8;
    /** Clean half-open updates before the breaker re-closes. */
    int probe_updates = 3;

    /** Fatal unless thresholds/streaks are coherent. */
    void validate() const;
};

/** Where the breaker is in its closed/open/half-open cycle. */
enum class BreakerState
{
    Closed,   ///< healthy: fully routable
    Open,     ///< tripped: removed from the eligible set
    HalfOpen, ///< probing: routable, one breach re-opens
};

/** Printable name ("closed" / "open" / "half-open"). */
std::string toString(BreakerState s);

/** One maximal span the breaker spent away from Closed. */
struct BreakerWindow
{
    double start_s = 0; ///< update timestamp the breaker opened
    /** Update timestamp it re-closed; the run's end when the
     *  breaker never recovered. */
    double end_s = 0;

    double durationSeconds() const { return end_s - start_s; }
};

/** One replica's monitor + breaker (a pure state machine). */
class HealthMonitor
{
  public:
    explicit HealthMonitor(HealthOptions options);

    /**
     * Record one sample at virtual time `now` and step the
     * breaker.  `step_latency_s` is the replica's observed mean
     * seconds per executed round since the previous update
     * (nullopt when no round ran — the latency EWMA holds);
     * `depth` its outstanding request count.  Call at fixed points
     * in the fleet event order only: every update advances the
     * integer cooldown/probe counters.
     */
    void observe(double now, std::optional<double> step_latency_s,
                 double depth);

    BreakerState state() const { return state_; }
    /** Whether the router may send traffic here (not Open). */
    bool routable() const { return state_ != BreakerState::Open; }

    double latencyEwma() const { return latency_ewma_; }
    double depthEwma() const { return depth_ewma_; }

    std::int64_t opens() const { return opens_; }
    std::int64_t reopens() const { return reopens_; }
    std::int64_t closes() const { return closes_; }

    /**
     * Completed not-Closed windows; finish() closes a dangling one.
     * The per-window attribution the obs layer records.
     */
    const std::vector<BreakerWindow> &windows() const
    {
        return windows_;
    }

    /** Close the open window (if any) at the run's end. */
    void finish(double now);

  private:
    bool breached() const;

    HealthOptions options_;
    BreakerState state_ = BreakerState::Closed;
    double latency_ewma_ = 0;
    double depth_ewma_ = 0;
    bool latency_seeded_ = false;
    int streak_ = 0;
    int cooldown_left_ = 0;
    int probe_left_ = 0;
    std::int64_t opens_ = 0;
    std::int64_t reopens_ = 0;
    std::int64_t closes_ = 0;
    std::vector<BreakerWindow> windows_;
    bool window_open_ = false;
};

} // namespace transfusion::fleet

#endif // TRANSFUSION_FLEET_HEALTH_HH
