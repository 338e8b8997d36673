/**
 * @file
 * Deterministic multi-replica serving: N sharded replicas (each an
 * existing sharded serve::ServeSimulator, possibly heterogeneous
 * clusters or shardings) behind a seeded Router, with cross-replica
 * failover and an optional hysteresis Autoscaler.
 *
 * The fleet drives every replica's resumable session
 * (startSession / advance / finishSession) against one shared
 * virtual clock.  Each step advances the sessions with work left
 * (on FleetOptions::threads workers) to the next fleet event — an
 * arrival, a replica transition, or an autoscaler tick — then runs
 * its phases in a fixed order: settle finished drains, fault
 * transitions in replica-index order, health and brownout updates,
 * arrivals in (arrival, id) order, the autoscaler tick last.
 *
 * Failover: each replica's fault schedule becomes its transition
 * list (FaultSchedule::replicaTransitions).  A replica with *any*
 * chip down is unroutable from its Down transition to its Up; at
 * the Down its in-flight and queued work is drained and re-offered
 * to the router after the capped-backoff retry budget
 * (fault::RetryPolicy), never silently dropped.  Sheds on a *healthy* replica (queue overflow,
 * can-never-fit) stay final — genuine overload is not a fault.
 * Intra-replica degraded replanning is the fault layer's domain;
 * the fleet fails over at replica granularity.
 *
 * Gray failures: a replica with an active ChipSlowdown keeps
 * serving — from each Pace transition on, its session runs every
 * round at that pace — and is *not* removed from routing by the
 * fault model itself.  Detection is the HealthMonitor's job: when
 * FleetOptions::health is enabled, each replica's observed step
 * latency and outstanding depth feed a circuit breaker (updated in
 * replica-index order at every fleet event boundary, between
 * applyFaults and routeArrivals), and an Open breaker removes the
 * replica from the eligible set until its half-open probe
 * succeeds.  The BrownoutController (FleetOptions::brownout)
 * watches fleet-wide pressure at the same boundary and, while
 * active, sheds sub-priority-floor / over-length-ceiling requests
 * at admission instead of letting the overload reject everything.
 *
 * Determinism contract: run() is a pure function of (requests,
 * run options) and the construction arguments, bit-identical for
 * any `threads` — sessions advance independently and emit no
 * observability, per-replica registries merge in replica-index
 * order under a "fleet/replica.<i>." prefix, and the health /
 * brownout state machines step on integer update counts at fixed
 * points in the event order.  A 1-replica fleet under the
 * pass-through policy with no faults, no autoscaler, and no
 * health/brownout control delegates outright to the replica's
 * run(), so its result — metrics and RunReport — is bit-for-bit
 * the single-replica fault-tolerant server's on an empty schedule.
 */

#ifndef TRANSFUSION_FLEET_FLEET_SIM_HH
#define TRANSFUSION_FLEET_FLEET_SIM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "fault/fault_server.hh"
#include "fleet/autoscaler.hh"
#include "fleet/brownout.hh"
#include "fleet/fleet_metrics.hh"
#include "fleet/health.hh"
#include "fleet/policy.hh"
#include "fleet/router.hh"

namespace transfusion::fleet
{

/** One replica slot: its cluster and (optional) sharding. */
struct ReplicaConfig
{
    multichip::ClusterConfig cluster;
    /** tp = pp = 0 (the default) plans it with planShards at
     *  construction, exactly as the fault layer does. */
    multichip::ShardSpec spec{ 0, 0 };
};

/** Construction-time fleet configuration. */
struct FleetOptions
{
    /** Simulator knobs shared by every replica. */
    serve::ServeOptions serve;
    /** Backoff budget for failed-over requests. */
    fault::RetryPolicy retry;
    /** Scaling policy; disabled by default (all replicas serve). */
    AutoscalerOptions autoscaler;
    /**
     * Per-replica gray-failure detection (EWMA monitor + circuit
     * breaker); disabled by default.  When enabled, every replica
     * gets its own monitor, updated in replica-index order at each
     * fleet event boundary, and an Open breaker removes the
     * replica from the router's eligible set.
     */
    HealthOptions health;
    /** Fleet-wide pressure-driven shedding; disabled by default.
     *  While active, the router sheds sub-floor-priority and
     *  over-ceiling-output requests at admission. */
    BrownoutOptions brownout;
    /** Worker threads advancing replica sessions; <= 0 = all
     *  hardware, 1 advances inline and starts no thread.  Results
     *  are bit-identical for any value. */
    int threads = 1;
    /** Worker threads for shard planning; <= 0 = all hardware. */
    int plan_threads = 0;
};

/** Per-run (not per-fleet) knobs: cheap to sweep. */
struct FleetRunOptions
{
    PolicyKind policy = PolicyKind::RoundRobin;
    /** Seeds the router's Rng (power-of-two-choices draws). */
    std::uint64_t seed = 1;
    /**
     * Per-replica fault schedules, indexed by replica; shorter
     * than the fleet means the tail replicas never fault.  Each
     * schedule is validated against its replica's cluster size and
     * read as the replica's transitions
     * (FaultSchedule::replicaTransitions): from a Down to the next
     * Up the replica is unroutable (fail-stop); a Pace transition
     * (gray failure) scales its session clock from that timestamp
     * on — the replica keeps serving, and only the HealthMonitor
     * can route around it.
     */
    std::vector<fault::FaultSchedule> faults;
};

/**
 * N calibrated sharded replicas behind one router.  Construction
 * calibrates each distinct replica's cost tables (the expensive
 * part); run() replays traces and is const.
 */
class FleetSimulator
{
  public:
    /** Heterogeneous fleet: one calibration per replica slot. */
    FleetSimulator(std::vector<ReplicaConfig> replicas,
                   model::TransformerConfig cfg,
                   serve::WorkloadOptions workload,
                   FleetOptions options = {});

    /**
     * Homogeneous fleet: `replicas` copies of one (cluster, spec),
     * planned and calibrated *once* and shared — sessions are
     * independent of the simulator instance, so replicas can share
     * immutable cost tables.
     */
    static FleetSimulator uniform(int replicas,
                                  multichip::ClusterConfig cluster,
                                  model::TransformerConfig cfg,
                                  serve::WorkloadOptions workload,
                                  FleetOptions options = {});

    /**
     * Homogeneous fleet with an explicit sharding: skips the
     * planShards search entirely (the capacity planner enumerates
     * (tp, pp) itself and must not pay — or observe — a plan sweep
     * per candidate).  `spec` with tp or pp <= 0 falls back to
     * planning, making the plain overload the spec{0,0} case.
     */
    static FleetSimulator uniform(int replicas,
                                  multichip::ClusterConfig cluster,
                                  multichip::ShardSpec spec,
                                  model::TransformerConfig cfg,
                                  serve::WorkloadOptions workload,
                                  FleetOptions options = {});

    /**
     * Replay `requests` (sorted by arrival, positive lengths)
     * across the fleet.  Asserts the fleet ledger offered ==
     * completed + rejected, with rejected = replica sheds +
     * failover_exhausted + held_rejected.
     */
    FleetMetrics run(const std::vector<serve::Request> &requests,
                     const FleetRunOptions &run = {}) const;

    int replicaCount() const
    {
        return static_cast<int>(sims_.size());
    }

    /** Replica i's calibrated simulator (shared in uniform()). */
    const serve::ServeSimulator &replicaSimulator(int i) const
    {
        return *sims_.at(static_cast<std::size_t>(i));
    }

    /** Replica i's sharding in force. */
    multichip::ShardSpec replicaSpec(int i) const
    {
        return specs_.at(static_cast<std::size_t>(i));
    }

    const FleetOptions &options() const { return options_; }

  private:
    FleetSimulator() = default; // uniform() assembles by hand

    /** Validate the model, workload and enabled options. */
    void validate(int replicas) const;

    std::vector<ReplicaConfig> replicas_;
    model::TransformerConfig cfg_;
    serve::WorkloadOptions workload_;
    FleetOptions options_;
    std::vector<multichip::ShardSpec> specs_;
    /** Calibrated per-replica simulators; uniform() shares one. */
    std::vector<std::shared_ptr<const serve::ServeSimulator>> sims_;
};

} // namespace transfusion::fleet

#endif // TRANSFUSION_FLEET_FLEET_SIM_HH
