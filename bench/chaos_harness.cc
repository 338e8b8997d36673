/**
 * @file
 * Implementation of the seeded chaos-invariant harness.
 */

#include "chaos_harness.hh"

#include <sstream>
#include <vector>

#include "fault/fault_server.hh"
#include "obs/obs.hh"
#include "obs/report.hh"
#include "serve/workload.hh"

namespace transfusion::chaos
{

namespace
{

constexpr int kChipsPerReplica = 2;

/** The simulators' workload envelope (the trace's length ranges). */
serve::WorkloadOptions
envelope()
{
    serve::WorkloadOptions wl;
    wl.prompt = { 128, 256 };
    wl.output = { 16, 32 };
    return wl;
}

/** Cheap calibration knobs (cost tables are cached process-wide,
 *  so every fleet construction after the first is cheap). */
serve::ServeOptions
fastServe()
{
    serve::ServeOptions o;
    o.strategy = schedule::StrategyKind::TransFusion;
    o.max_batch = 4;
    o.cost.cache_samples = 3;
    o.cost.prefill_samples = 3;
    o.cost.evaluator.mcts.iterations = 32;
    return o;
}

/** Per-seed fleet configuration: health on even seeds, brownout on
 *  every third, so detector paths chaos-test alongside plain
 *  failover — under BOTH thread counts. */
fleet::FleetOptions
fleetOptions(std::uint64_t seed, int threads)
{
    fleet::FleetOptions o;
    o.serve = fastServe();
    o.threads = threads;
    o.plan_threads = 1;
    if (seed % 2 == 0) {
        o.health.enabled = true;
        o.health.alpha = 0.5;
        o.health.depth_breach =
            3.0 + static_cast<double>(seed % 5);
        o.health.breach_streak = 2;
        o.health.cooldown_updates = 3;
        o.health.probe_updates = 2;
    }
    if (seed % 3 == 0) {
        o.brownout.enabled = true;
        o.brownout.alpha = 0.5;
        o.brownout.pressure_depth =
            3.0 + static_cast<double>(seed % 4);
        o.brownout.release_depth = 1.0;
        o.brownout.pressure_streak = 2;
        o.brownout.relief_streak = 2;
        o.brownout.min_priority = 1;
    }
    return o;
}

/** Mixed-kind randomized schedule shape for one replica. */
fault::FaultScheduleOptions
scheduleOptions(std::uint64_t seed)
{
    fault::FaultScheduleOptions o;
    o.incidents = static_cast<int>(seed % 5); // 0 = fault-free
    o.horizon_s = 2.0 + static_cast<double>(seed % 4);
    o.mean_outage_s = 0.2 + static_cast<double>(seed % 3) * 0.4;
    o.link_degrade_prob = static_cast<double>(seed % 3) * 0.2;
    o.slowdown_prob = static_cast<double>((seed / 3) % 3) * 0.25;
    o.mean_slowdown_s = 0.5 + static_cast<double>(seed % 2);
    o.max_multiplier = 2.0 + static_cast<double>(seed % 3);
    o.slowdown_group = 1 + static_cast<int>(seed % 2);
    return o;
}

/** The seed's request trace, in two priority classes. */
std::vector<serve::Request>
chaosTrace(std::uint64_t seed)
{
    serve::WorkloadOptions wl = envelope();
    wl.arrival_per_s =
        (seed % 3 == 0) ? 100.0 : (seed % 3 == 1 ? 20.0 : 5.0);
    wl.requests = 10 + static_cast<std::int64_t>(seed % 8);
    auto trace = serve::generateWorkload(wl, seed);
    // Two priority classes so an active brownout has a floor to
    // shed against.
    for (auto &r : trace)
        r.priority = r.id % 2 == 0 ? 1 : 0;
    return trace;
}

/** Bitwise comparison of two fleet replays; empty string = equal. */
std::string
diffFleetMetrics(const fleet::FleetMetrics &a,
                 const fleet::FleetMetrics &b)
{
    std::ostringstream os;
#define TF_CHAOS_FIELD(f)                                            \
    if (a.f != b.f)                                                  \
        os << #f << " " << a.f << " vs " << b.f << "; ";
    TF_CHAOS_FIELD(offered)
    TF_CHAOS_FIELD(completed)
    TF_CHAOS_FIELD(rejected)
    TF_CHAOS_FIELD(generated_tokens)
    TF_CHAOS_FIELD(routed)
    TF_CHAOS_FIELD(held_rejected)
    TF_CHAOS_FIELD(replica_downs)
    TF_CHAOS_FIELD(replica_ups)
    TF_CHAOS_FIELD(slowdown_transitions)
    TF_CHAOS_FIELD(breaker_opens)
    TF_CHAOS_FIELD(breaker_reopens)
    TF_CHAOS_FIELD(breaker_closes)
    TF_CHAOS_FIELD(breaker_open_s)
    TF_CHAOS_FIELD(brownout_activations)
    TF_CHAOS_FIELD(brownout_sheds)
    TF_CHAOS_FIELD(brownout_s)
    TF_CHAOS_FIELD(failover_drained)
    TF_CHAOS_FIELD(failover_reroutes)
    TF_CHAOS_FIELD(failover_exhausted)
    TF_CHAOS_FIELD(failover_wasted_tokens)
    TF_CHAOS_FIELD(autoscaler_ticks)
    TF_CHAOS_FIELD(scale_ups)
    TF_CHAOS_FIELD(scale_downs)
    TF_CHAOS_FIELD(peak_serving)
    TF_CHAOS_FIELD(makespan_s)
    TF_CHAOS_FIELD(completed_per_second)
    TF_CHAOS_FIELD(energy_j)
    TF_CHAOS_FIELD(chip_seconds)
#undef TF_CHAOS_FIELD
    if (a.replicas.size() != b.replicas.size()) {
        os << "replica count " << a.replicas.size() << " vs "
           << b.replicas.size() << "; ";
    } else {
        for (std::size_t i = 0; i < a.replicas.size(); ++i) {
            const auto &ra = a.replicas[i];
            const auto &rb = b.replicas[i];
            if (ra.offered != rb.offered
                || ra.completed != rb.completed
                || ra.rejected != rb.rejected
                || ra.generated_tokens != rb.generated_tokens
                || ra.makespan_s != rb.makespan_s)
                os << "replica " << i << " ledger differs; ";
        }
    }
    if (a.latency_s.count() != b.latency_s.count())
        os << "latency count differs; ";
    if (a.queue_wait_s.count() != b.queue_wait_s.count())
        os << "queue wait count differs; ";
    return os.str();
}

/** One replay and the RunReport it recorded. */
struct Replay
{
    fleet::FleetMetrics metrics;
    std::string report;
};

/** Replay inside a private registry; the report string rides along
 *  so the digest and thread agreement cover the observable
 *  record. */
Replay
replay(const fleet::FleetSimulator &fleet,
       const std::vector<serve::Request> &trace,
       const fleet::FleetRunOptions &run)
{
    obs::Registry reg;
    Replay r;
    {
        obs::ScopedRegistry scope(reg);
        r.metrics = fleet.run(trace, run);
    }
    r.report = obs::RunReport::capture(reg).toString();
    return r;
}

} // namespace

SeedResult
runSeed(std::uint64_t seed)
{
    SeedResult out;
    out.seed = seed;

    const auto cluster = multichip::edgeCluster(kChipsPerReplica);
    const auto cfg = model::t5Small();
    const serve::WorkloadOptions wl = envelope();
    const multichip::ShardSpec spec{ kChipsPerReplica, 1 };

    const auto trace = chaosTrace(seed);
    fleet::FleetRunOptions run;
    const auto policies = fleet::allPolicies();
    run.policy = policies[seed % policies.size()];
    out.policy = run.policy;
    run.seed = seed;
    run.faults.resize(kReplicas);
    for (int r = 0; r < kReplicas; ++r) {
        auto &faults = run.faults[static_cast<std::size_t>(r)];
        faults = fault::generateFaultSchedule(
            scheduleOptions(seed + static_cast<std::uint64_t>(r)),
            kChipsPerReplica,
            seed * 31 + static_cast<std::uint64_t>(r));
        out.fault_events +=
            static_cast<std::int64_t>(faults.events.size());
    }

    const auto fleetFor = [&](int threads) {
        return fleet::FleetSimulator::uniform(
            kReplicas, cluster, spec, cfg, wl,
            fleetOptions(seed, threads));
    };
    // Invariant 4 (termination) is every one of these returning.
    const Replay serial = replay(fleetFor(1), trace, run);
    const Replay parallel = replay(fleetFor(4), trace, run);
    // Invariant 2 (the frozen digest) is the caller's to check.
    out.metrics = serial.metrics;
    out.report = serial.report;

    std::ostringstream err;
    // Invariant 1: conservation (run() also self-asserts).
    for (const Replay *r : { &serial, &parallel }) {
        if (r->metrics.completed + r->metrics.rejected
            != r->metrics.offered)
            err << "conservation leak; ";
        for (const auto &rep : r->metrics.replicas)
            if (rep.completed + rep.rejected != rep.offered)
                err << "replica conservation leak; ";
    }
    // Invariant 3: threads 1 vs 4, bitwise.
    const std::string threads =
        diffFleetMetrics(serial.metrics, parallel.metrics);
    if (!threads.empty())
        err << "threads-1v4: " << threads;
    if (serial.report != parallel.report)
        err << "threads-1v4 report differs; ";

    // Invariant 5: a fault-tolerant server replay of replica 0's
    // schedule that applied every event (the trace outlived the
    // faults) must end on the exact initial spec — generated
    // schedules pair every fault with a recovery.
    fault::FaultServeOptions fo;
    fo.serve = fastServe();
    fo.initial_spec = spec;
    fo.plan_threads = 1;
    const fault::FaultTolerantServer server(cluster, cfg, wl, fo);
    fault::FaultServeMetrics sm;
    {
        obs::Registry reg;
        obs::ScopedRegistry scope(reg);
        sm = server.run(trace, run.faults[0]);
    }
    if (sm.fault_events
        == static_cast<std::int64_t>(run.faults[0].events.size())
        && !sm.windows.empty()) {
        // Losses and slowdowns are generated paired, so the final
        // window always runs every chip at full speed.  Link
        // degrades have no paired recovery: the exact-spec restore
        // only applies when the fabric ended at full bandwidth.
        double final_link = 1.0;
        for (const auto &e : run.faults[0].events)
            if (e.kind == fault::FaultKind::LinkDegrade)
                final_link = e.factor;
        const auto &last = sm.windows.back();
        if (last.chips != kChipsPerReplica
            || last.slowdown != 1.0
            || last.link_scale != final_link)
            err << "recovery left the final window degraded "
                   "(chips "
                << last.chips << " slowdown " << last.slowdown
                << " link " << last.link_scale << "); ";
        if (final_link == 1.0
            && (last.spec.tp != spec.tp
                || last.spec.pp != spec.pp))
            err << "recovery did not restore the initial spec "
                   "(tp "
                << last.spec.tp << " pp " << last.spec.pp
                << "); ";
    }
    if (sm.serve.completed + sm.serve.rejected != sm.serve.offered)
        err << "server conservation leak; ";

    out.failure = err.str();
    return out;
}

void
warmCostTables()
{
    (void)fleet::FleetSimulator::uniform(
        1, multichip::edgeCluster(kChipsPerReplica),
        multichip::ShardSpec{ kChipsPerReplica, 1 },
        model::t5Small(), envelope(),
        fleetOptions(1, 1));
}

} // namespace transfusion::chaos
