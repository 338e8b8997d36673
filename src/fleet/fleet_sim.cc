/**
 * @file
 * The shared-virtual-clock fleet loop: advance, fault, route, tick.
 */

#include "fleet_sim.hh"

#include <algorithm>
#include <limits>
#include <optional>

#include "common/logging.hh"
#include "common/parallel_map.hh"
#include "multichip/sharded_serve.hh"
#include "obs/obs.hh"

namespace transfusion::fleet
{

namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Fold one replica's finished ledger into the fleet totals. */
void
addReplica(FleetMetrics &fm, serve::ServeMetrics m)
{
    fm.completed += m.completed;
    fm.rejected += m.rejected;
    fm.generated_tokens += m.generated_tokens;
    fm.energy_j += m.energyJoules();
    fm.chip_seconds += m.chip_seconds;
    fm.makespan_s = std::max(fm.makespan_s, m.makespan_s);
    fm.ttft_s.merge(m.ttft_s);
    fm.tpot_s.merge(m.tpot_s);
    fm.latency_s.merge(m.latency_s);
    fm.queue_wait_s.merge(m.queue_wait_s);
    fm.replicas.push_back(std::move(m));
}

/** One replica slot's run state. */
struct Replica
{
    const serve::ServeSimulator *sim = nullptr;
    bool active = false;   ///< holds (or held) a serving slot
    bool draining = false; ///< finishing work, not routable
    bool down = false;     ///< some chip of the replica is lost
    std::optional<serve::ServeSession> session;
    /** Gray-failure detector; present iff health is enabled. */
    std::optional<HealthMonitor> monitor;
    /** The slot's fault transitions, and how many have applied. */
    std::vector<fault::ReplicaTransition> transitions;
    std::size_t next_transition = 0;
    /** Pace in force (1.0 = full speed); applied to the session —
     *  including one created later by a scale-up — so the replica
     *  always runs at the schedule's current pace. */
    double pace = 1.0;
    /** Health-sample bookkeeping: session clock and executed
     *  rounds at the previous monitor update. */
    double obs_now = 0;
    std::int64_t obs_rounds = 0;

    /** Routable: serving, not draining or down, and its breaker
     *  (if any) not Open — half-open stays routable so the probe
     *  can observe recovery. */
    bool eligible() const
    {
        return active && !draining && !down
            && (!monitor || monitor->routable());
    }
};

/**
 * One fleet replay over the replica slots: the shared virtual clock,
 * the router, the retry ledger and the control loops.  run() steps
 * the phases in a fixed order at every boundary.
 */
class FleetRun
{
  public:
    FleetRun(const FleetOptions &options,
             const std::vector<serve::Request> &requests,
             const FleetRunOptions &run, std::vector<Replica> replicas)
        : options_(options), requests_(requests),
          replicas_(std::move(replicas)), router_(run.policy, run.seed),
          brownout_(options.brownout), ledger_(options.retry)
    {
        const int pool = static_cast<int>(replicas_.size());
        if (options_.autoscaler.enabled) {
            scaler_.emplace(options_.autoscaler, pool);
            next_tick_ = options_.autoscaler.interval_s;
        }
        const int initial =
            scaler_ ? options_.autoscaler.initialReplicas() : pool;
        for (int i = 0; i < pool; ++i) {
            Replica &r = replicas_[static_cast<std::size_t>(i)];
            if (options_.health.enabled)
                r.monitor.emplace(options_.health);
            if (i < initial) {
                r.active = true;
                r.session = r.sim->startSession({});
            }
        }
        fm_.offered = static_cast<std::int64_t>(requests_.size());
    }

    FleetMetrics run()
    {
        TF_SPAN("fleet.run");
        TF_TIMER("fleet/run");

        fm_.peak_serving = servingCount();
        // Terminal breaker pump budget: once no timed event remains,
        // held work gets this many extra monitor updates to let an
        // Open breaker cool down, half-open, and absorb it before
        // the run refuses it.  Bounded so a permanently-breached
        // fleet still terminates (the chaos harness pins this).
        int pump_left = 1024;
        while (true) {
            const bool arrivals_left =
                next_trace_ < requests_.size() || !reoffers_.empty();
            const bool swork = sessionWork();
            if (!arrivals_left && !swork && held_.empty())
                break;
            // Next boundary: the earliest timed source, or the
            // autoscaler tick while it can still change anything.
            // Sources due at one shared instant apply in the body's
            // fixed order: faults, then arrivals, then the tick.
            const double tT = scaler_
                    && (swork || arrivals_left
                        || (!held_.empty() && canActivate()))
                ? next_tick_
                : kInf;
            const double t = std::min(nextBoundary(), tT);
            if (t == kInf) {
                if (swork) {
                    // Nothing left to schedule: let every session
                    // run its remaining work out.
                    advance(kInf);
                    settleDrains();
                    continue;
                }
                if (options_.health.enabled && !held_.empty()
                    && pump_left > 0) {
                    // No timed event will ever fire again, but an
                    // Open breaker may be mid-cooldown: pump the
                    // monitors, at the latest clock any session
                    // reached, so a recovered replica can half-open
                    // and take the held work before it is refused
                    // for good.  Routed work revives the ordinary
                    // loop on the next pass.
                    pump_left -= 1;
                    for (const Replica &r : replicas_)
                        if (r.session)
                            last_t_ = std::max(last_t_, r.session->now);
                    updateHealth(last_t_);
                    updateBrownout(last_t_);
                    routeArrivals(last_t_);
                    continue;
                }
                // Only held requests remain and nothing can ever
                // make a replica eligible again: finish() refuses
                // them.
                break;
            }
            last_t_ = std::max(last_t_, t);
            advance(t);
            settleDrains();
            applyFaults(t);
            updateHealth(t);
            updateBrownout(t);
            routeArrivals(t);
            if (scaler_ && t >= next_tick_) {
                tick(t);
                while (next_tick_ <= t)
                    next_tick_ += options_.autoscaler.interval_s;
                // A scale-up at the tick may have created
                // eligibility for requests held a moment ago.
                routeArrivals(t);
            }
            fm_.peak_serving =
                std::max(fm_.peak_serving,
                         static_cast<std::int64_t>(servingCount()));
        }
        return finish();
    }

  private:
    /**
     * Advance every live session to the shared horizon: sessions
     * are independent, advance() emits no observability, and the
     * shared cost tables are immutable, so the result is
     * bit-identical for any thread count.  advance() is a strict
     * no-op for a session with no work left or a clock already at
     * the horizon, so only those *needy* sessions are dispatched.
     * Sheds that happened inside the step are final
     * (healthy-replica overload); the audit log is cleared to
     * bound memory.
     */
    void advance(double horizon)
    {
        needy_.clear();
        for (Replica &r : replicas_)
            if (r.session && r.session->workLeft()
                && r.session->now < horizon)
                needy_.push_back(&r);
        parallelMap(options_.threads, needy_,
                    [horizon](Replica *const &r) {
                        r->sim->advance(*r->session, horizon);
                        return 0;
                    });
        for (Replica &r : replicas_)
            if (r.session)
                r.session->shed_log.clear();
    }

    /** A drained replica that finished its work releases its
     *  slot. */
    void settleDrains()
    {
        for (Replica &r : replicas_)
            if (r.draining && r.session && !r.session->workLeft()) {
                r.draining = false;
                r.active = false;
            }
    }

    /** Apply every replica's transitions due by `t`, replica-index
     *  order. */
    void applyFaults(double t)
    {
        for (Replica &r : replicas_) {
            for (; r.next_transition < r.transitions.size()
                 && r.transitions[r.next_transition].time_s <= t;
                 ++r.next_transition) {
                const fault::ReplicaTransition &tr =
                    r.transitions[r.next_transition];
                switch (tr.kind) {
                case fault::TransitionKind::Down:
                    r.down = true;
                    fm_.replica_downs += 1;
                    drain(r, tr.time_s);
                    break;
                case fault::TransitionKind::Up:
                    r.down = false;
                    fm_.replica_ups += 1;
                    break;
                case fault::TransitionKind::Pace:
                    // A gray failure: the replica keeps serving (no
                    // drain, no routing change here) — only its
                    // session clock slows.
                    r.pace = tr.pace;
                    fm_.slowdown_transitions += 1;
                    break;
                }
            }
            // A down or draining replica keeps its session; apply
            // the pace to whatever session exists so it resumes (or
            // finishes draining) at schedule speed.
            if (r.session)
                r.session->slowdown = r.pace;
        }
    }

    /**
     * Feed every live replica's monitor one observation, replica-
     * index order: the mean per-round latency since the previous
     * update (absent when no round executed — an idle replica must
     * not look fast) and the current outstanding depth.  The state
     * machines step on these integer update counts, so the breaker
     * trajectory is a pure function of the event sequence.
     */
    void updateHealth(double t)
    {
        for (Replica &r : replicas_) {
            if (!r.monitor || !r.active || r.down || !r.session)
                continue;
            const serve::ServeSession &s = *r.session;
            const std::int64_t rounds =
                s.metrics.prefill_rounds + s.metrics.decode_rounds;
            std::optional<double> sample;
            if (rounds > r.obs_rounds) {
                sample = (s.now - r.obs_now)
                    / static_cast<double>(rounds - r.obs_rounds);
                r.obs_now = s.now;
                r.obs_rounds = rounds;
            }
            r.monitor->observe(t, sample,
                               static_cast<double>(s.outstanding()));
        }
    }

    /** One fleet-wide pressure observation: outstanding depth per
     *  serving replica, held requests included (they are exactly
     *  the pressure no replica is absorbing). */
    void updateBrownout(double t)
    {
        if (!options_.brownout.enabled)
            return;
        int serving = 0;
        double depth = static_cast<double>(held_.size());
        for (const Replica &r : replicas_)
            if (r.eligible()) {
                serving += 1;
                depth += static_cast<double>(r.session->outstanding());
            }
        // With nothing serving the total depth *is* the pressure
        // (dividing by zero would poison the EWMA with inf).
        brownout_.observe(t, serving > 0
                                 ? depth / static_cast<double>(serving)
                                 : depth);
    }

    /**
     * Route every due request — previously held ones first by the
     * shared (arrival, id) order, then trace arrivals and matured
     * re-offers up to `t`.  A request with no eligible replica is
     * held (original arrival preserved) until eligibility
     * reappears.
     */
    void routeArrivals(double t)
    {
        due_.clear();
        due_.swap(held_);
        while (next_trace_ < requests_.size()
               && requests_[next_trace_].arrival_s <= t)
            due_.push_back(requests_[next_trace_++]);
        auto due = reoffers_.begin();
        while (due != reoffers_.end() && due->arrival_s <= t)
            ++due;
        due_.insert(due_.end(), reoffers_.begin(), due);
        reoffers_.erase(reoffers_.begin(), due);
        std::sort(due_.begin(), due_.end(), serve::arrivesBefore);
        for (const serve::Request &req : due_) {
            if (brownout_.shouldShed(req)) {
                // Active brownout: shed the classes the options
                // name instead of queueing into the overload.
                // Terminal — counted straight into rejected.
                brownout_.recordShed();
                continue;
            }
            // Views rebuild per decision: outstanding counts and KV
            // headroom change with every injection.
            const std::vector<ReplicaView> &views = eligibleViews();
            if (views.empty()) {
                held_.push_back(req);
                continue;
            }
            Replica &r =
                replicas_[static_cast<std::size_t>(router_.pick(views))];
            r.sim->injectRequest(*r.session, req);
            r.session->metrics.offered += 1;
        }
    }

    /** Sample load, feed the autoscaler, apply its verdict. */
    void tick(double t)
    {
        Histogram waits;
        for (const Replica &r : replicas_) {
            if (!r.eligible())
                continue;
            const serve::ServeSession &s = *r.session;
            for (const serve::Request &req : s.queue)
                waits.add(t - req.arrival_s);
            for (std::size_t j = s.next; j < s.pending.size(); ++j)
                if (s.pending[j].arrival_s <= t)
                    waits.add(t - s.pending[j].arrival_s);
        }
        for (const serve::Request &req : held_)
            waits.add(t - req.arrival_s);
        const int serving = servingCount();
        const auto depth = static_cast<double>(waits.count());
        const double per_serving = serving > 0
            ? depth / static_cast<double>(serving)
            : (depth > 0 ? kInf : 0.0);
        const ScaleDecision d = scaler_->observe(
            per_serving, waits.percentileOr(99, 0.0), serving);
        if (d == ScaleDecision::Up)
            scaleUp();
        else if (d == ScaleDecision::Down)
            scaleDown();
    }

    /** Refuse the held work, fold every replica and control loop
     *  into the fleet ledger, and record the fleet's counters. */
    FleetMetrics finish()
    {
        FleetMetrics &fm = fm_;
        fm.held_rejected = static_cast<std::int64_t>(held_.size());
        held_.clear();

        // Finish every replica session inside a scratch registry
        // (cleared after each fold), then fold it into the caller's
        // under the replica's prefix — always in replica-index
        // order, so the merged registry (and any RunReport over it)
        // is bit-identical per run.
        obs::Registry local;
        for (std::size_t i = 0; i < replicas_.size(); ++i) {
            Replica &r = replicas_[i];
            serve::ServeMetrics m;
            if (r.session) {
                {
                    obs::ScopedRegistry scope(local);
                    m = r.sim->finishSession(*r.session);
                }
                obs::currentRegistry().mergePrefixed(
                    local, obs::internPrefix("fleet/replica."
                                             + std::to_string(i)
                                             + "."));
                local.clear();
            }
            tf_assert(m.completed + m.rejected == m.offered,
                      "replica ", i, " ledger leak: completed ",
                      m.completed, " + rejected ", m.rejected,
                      " != offered ", m.offered);
            addReplica(fm, std::move(m));
        }
        // Close dangling health/brownout windows at the last clock
        // any part of the run reached, then fold the detector
        // ledgers in.
        const double fin_t = std::max(fm.makespan_s, last_t_);
        for (Replica &r : replicas_) {
            if (!r.monitor)
                continue;
            r.monitor->finish(fin_t);
            fm.breaker_opens += r.monitor->opens();
            fm.breaker_reopens += r.monitor->reopens();
            fm.breaker_closes += r.monitor->closes();
            for (const BreakerWindow &w : r.monitor->windows())
                fm.breaker_open_s += w.durationSeconds();
        }
        if (options_.brownout.enabled) {
            brownout_.finish(fin_t);
            fm.brownout_activations = brownout_.activations();
            fm.brownout_sheds = brownout_.sheds();
            for (const BrownoutWindow &w : brownout_.windows())
                fm.brownout_s += w.durationSeconds();
        }
        fm.rejected += fm.failover_exhausted + fm.held_rejected
            + fm.brownout_sheds;
        fm.routed = router_.decisions();
        if (scaler_) {
            fm.autoscaler_ticks = scaler_->ticks();
            fm.scale_ups = scaler_->scaleUps();
            fm.scale_downs = scaler_->scaleDowns();
        }
        if (fm.makespan_s > 0)
            fm.completed_per_second =
                static_cast<double>(fm.completed) / fm.makespan_s;
        tf_assert(fm.completed + fm.rejected == fm.offered,
                  "fleet accounting leak: completed ", fm.completed,
                  " + rejected ", fm.rejected, " != offered ",
                  fm.offered);

        TF_COUNT("fleet/replicas", static_cast<int>(replicas_.size()));
        TF_COUNT("fleet/routed", fm.routed);
        TF_COUNT("fleet/held_rejected", fm.held_rejected);
        TF_COUNT("fleet/replica_downs", fm.replica_downs);
        TF_COUNT("fleet/replica_ups", fm.replica_ups);
        TF_COUNT("fleet/failover.drained", fm.failover_drained);
        TF_COUNT("fleet/failover.reroutes", fm.failover_reroutes);
        TF_COUNT("fleet/failover.exhausted", fm.failover_exhausted);
        TF_COUNT("fleet/failover.wasted_tokens",
                 fm.failover_wasted_tokens);
        TF_COUNT("fleet/autoscaler.ticks", fm.autoscaler_ticks);
        TF_COUNT("fleet/autoscaler.scale_ups", fm.scale_ups);
        TF_COUNT("fleet/autoscaler.scale_downs", fm.scale_downs);
        // Gray-failure instrumentation only exists when the feature
        // fired or was enabled: fault-free runs keep the exact
        // counter set (and golden RunReports) of the pre-slowdown
        // fleet.
        if (fm.slowdown_transitions > 0)
            TF_COUNT("fleet/slowdown.transitions",
                     fm.slowdown_transitions);
        if (options_.health.enabled) {
            TF_COUNT("fleet/breaker.opens", fm.breaker_opens);
            TF_COUNT("fleet/breaker.reopens", fm.breaker_reopens);
            TF_COUNT("fleet/breaker.closes", fm.breaker_closes);
            TF_GAUGE_ADD("fleet/breaker.open_s", fm.breaker_open_s);
            for (std::size_t i = 0; i < replicas_.size(); ++i) {
                const HealthMonitor &mon = *replicas_[i].monitor;
                if (mon.opens() + mon.reopens() == 0)
                    continue;
                const int idx = static_cast<int>(i);
                TF_COUNT_ID(obs::metricKey("fleet/breaker.replica",
                                           idx, "opens"),
                            mon.opens() + mon.reopens());
                double open_s = 0;
                for (const BreakerWindow &w : mon.windows())
                    open_s += w.durationSeconds();
                TF_GAUGE_ADD_ID(
                    obs::metricKey("fleet/breaker.replica", idx,
                                   "open_s"),
                    open_s);
            }
        }
        if (options_.brownout.enabled) {
            TF_COUNT("fleet/brownout.activations",
                     fm.brownout_activations);
            TF_COUNT("fleet/brownout.sheds", fm.brownout_sheds);
            TF_GAUGE_ADD("fleet/brownout.active_s", fm.brownout_s);
            const auto &ws = brownout_.windows();
            for (std::size_t w = 0; w < ws.size(); ++w) {
                const int idx = static_cast<int>(w);
                TF_COUNT_ID(obs::metricKey("fleet/brownout.window",
                                           idx, "sheds"),
                            ws[w].sheds);
                TF_GAUGE_ADD_ID(
                    obs::metricKey("fleet/brownout.window", idx,
                                   "duration_s"),
                    ws[w].durationSeconds());
            }
        }
        TF_GAUGE_MAX("fleet/peak_serving",
                     static_cast<double>(fm.peak_serving));
        TF_GAUGE_ADD("fleet/makespan_s", fm.makespan_s);
        // Fleet totals; the per-replica split is already in the
        // merged registry under fleet/replica.<i>.serve/energy.*.
        TF_GAUGE_ADD("fleet/energy.total_j", fm.energy_j);
        TF_GAUGE_ADD("fleet/chip_seconds", fm.chip_seconds);
        return std::move(fm_);
    }

    /** Earliest timed source: the trace front, the re-offer front,
     *  or any replica's next transition. */
    double nextBoundary() const
    {
        double t = next_trace_ < requests_.size()
            ? requests_[next_trace_].arrival_s
            : kInf;
        if (!reoffers_.empty())
            t = std::min(t, reoffers_.front().arrival_s);
        for (const Replica &r : replicas_)
            if (r.next_transition < r.transitions.size())
                t = std::min(t,
                             r.transitions[r.next_transition].time_s);
        return t;
    }

    /**
     * Pull every request off a replica that just went down and
     * hand it back to the router after backoff — or refuse it for
     * good once its retry budget is spent.  Uses the transition
     * time (not the session's possibly-overshot clock), mirroring
     * the fault layer's convention.
     */
    void drain(Replica &r, double t)
    {
        if (!r.session)
            return;
        std::vector<serve::Request> out;
        for (const serve::InFlightRequest &f :
             r.sim->drainRunning(*r.session)) {
            fm_.failover_wasted_tokens += f.generated;
            out.push_back(f.req);
        }
        for (const serve::Request &req :
             r.sim->drainQueued(*r.session))
            out.push_back(req);
        for (const serve::Request &req : out) {
            // The request leaves this replica's ledger; it will be
            // re-counted wherever it terminates.
            r.session->metrics.offered -= 1;
            fm_.failover_drained += 1;
            // The re-offer's clock restarts here, exactly as a
            // fault-layer retry: the backoff shows up as idle time,
            // not as queue wait.
            const std::optional<serve::Request> re =
                ledger_.reoffer(req, t);
            if (!re) {
                fm_.failover_exhausted += 1;
                continue;
            }
            reoffers_.push_back(*re);
            fm_.failover_reroutes += 1;
        }
        std::sort(reoffers_.begin(), reoffers_.end(),
                  serve::arrivesBefore);
    }

    /** Load views of the eligible replicas, index order (rebuilt
     *  in place in views_). */
    const std::vector<ReplicaView> &eligibleViews()
    {
        views_.clear();
        for (std::size_t i = 0; i < replicas_.size(); ++i)
            if (replicas_[i].eligible())
                views_.push_back(ReplicaView{
                    static_cast<int>(i),
                    replicas_[i].session->outstanding(),
                    replicas_[i].session->freeKvWords() });
        return views_;
    }

    /** Whether a tick could change anything (guards the loop
     *  against ticking forever on a finished or stuck fleet). */
    bool canActivate() const
    {
        if (servingCount() >= options_.autoscaler.maxReplicas(
                static_cast<int>(replicas_.size())))
            return false;
        for (const Replica &r : replicas_)
            if (r.draining || (!r.active && !r.down))
                return true;
        return false;
    }

    /** Un-drain the lowest-index draining replica first (its
     *  session is warm), else activate the lowest-index idle
     *  non-down one. */
    void scaleUp()
    {
        for (Replica &r : replicas_)
            if (r.draining) {
                r.draining = false;
                return;
            }
        for (Replica &r : replicas_)
            if (!r.active && !r.down) {
                r.active = true;
                if (!r.session) {
                    r.session = r.sim->startSession({});
                    // Late activation under an in-force slowdown
                    // still runs at the schedule's pace.
                    r.session->slowdown = r.pace;
                }
                return;
            }
    }

    /** Drain the highest-index serving replica: stop routing to
     *  it, let it finish, release on settle. */
    void scaleDown()
    {
        for (auto r = replicas_.rbegin(); r != replicas_.rend(); ++r)
            if (r->eligible()) {
                r->draining = true;
                return;
            }
    }

    int servingCount() const
    {
        int n = 0;
        for (const Replica &r : replicas_)
            n += r.eligible() ? 1 : 0;
        return n;
    }

    bool sessionWork() const
    {
        for (const Replica &r : replicas_)
            if (r.session && r.session->workLeft())
                return true;
        return false;
    }

    const FleetOptions &options_;
    const std::vector<serve::Request> &requests_;
    std::vector<Replica> replicas_;
    Router router_;
    std::optional<Autoscaler> scaler_;
    BrownoutController brownout_;
    fault::RetryLedger ledger_;
    FleetMetrics fm_;
    std::size_t next_trace_ = 0;
    std::vector<serve::Request> reoffers_; ///< (arrival, id) sorted
    std::vector<serve::Request> held_;     ///< no eligible replica
    // Per-boundary scratch, kept so boundaries reuse its storage.
    std::vector<Replica *> needy_;    ///< sessions advance() steps
    std::vector<serve::Request> due_; ///< requests routeArrivals routes
    std::vector<ReplicaView> views_;  ///< eligibleViews()
    double next_tick_ = kInf;
    double last_t_ = 0; ///< latest finite event time processed
};

} // namespace

FleetSimulator::FleetSimulator(std::vector<ReplicaConfig> replicas,
                               model::TransformerConfig cfg,
                               serve::WorkloadOptions workload,
                               FleetOptions options)
    : replicas_(std::move(replicas)), cfg_(std::move(cfg)),
      workload_(workload), options_(std::move(options))
{
    if (replicas_.empty())
        tf_fatal("a fleet needs at least one replica");
    validate(static_cast<int>(replicas_.size()));
    for (ReplicaConfig &r : replicas_) {
        r.cluster.validate();
        multichip::ShardSpec spec = r.spec;
        if (spec.tp <= 0 || spec.pp <= 0)
            spec = multichip::planServingSpec(r.cluster, cfg_,
                                              workload_,
                                              options_.serve,
                                              options_.plan_threads);
        specs_.push_back(spec);
        sims_.push_back(
            std::make_shared<const serve::ServeSimulator>(
                multichip::shardedSimulator(r.cluster, cfg_, spec,
                                            workload_,
                                            options_.serve)));
    }
}

FleetSimulator
FleetSimulator::uniform(int replicas,
                        multichip::ClusterConfig cluster,
                        model::TransformerConfig cfg,
                        serve::WorkloadOptions workload,
                        FleetOptions options)
{
    return uniform(replicas, std::move(cluster),
                   multichip::ShardSpec{ 0, 0 }, std::move(cfg),
                   workload, std::move(options));
}

FleetSimulator
FleetSimulator::uniform(int replicas,
                        multichip::ClusterConfig cluster,
                        multichip::ShardSpec spec,
                        model::TransformerConfig cfg,
                        serve::WorkloadOptions workload,
                        FleetOptions options)
{
    if (replicas < 1)
        tf_fatal("a fleet needs at least one replica, got ",
                 replicas);
    FleetSimulator fleet;
    fleet.cfg_ = std::move(cfg);
    fleet.workload_ = workload;
    fleet.options_ = std::move(options);
    fleet.validate(replicas);
    cluster.validate();
    if (spec.tp <= 0 || spec.pp <= 0)
        spec = multichip::planServingSpec(
            cluster, fleet.cfg_, fleet.workload_,
            fleet.options_.serve, fleet.options_.plan_threads);
    // Calibrate once, share everywhere: sessions never touch the
    // simulator's (immutable) tables, so identical replicas can
    // alias one instance.
    const auto sim = std::make_shared<const serve::ServeSimulator>(
        multichip::shardedSimulator(cluster, fleet.cfg_, spec,
                                    fleet.workload_,
                                    fleet.options_.serve));
    for (int i = 0; i < replicas; ++i) {
        fleet.replicas_.push_back(ReplicaConfig{ cluster, spec });
        fleet.specs_.push_back(spec);
        fleet.sims_.push_back(sim);
    }
    return fleet;
}

void
FleetSimulator::validate(int replicas) const
{
    cfg_.validate();
    workload_.validate();
    options_.retry.validate();
    if (options_.autoscaler.enabled)
        options_.autoscaler.validate(replicas);
    if (options_.health.enabled)
        options_.health.validate();
    if (options_.brownout.enabled)
        options_.brownout.validate();
}

FleetMetrics
FleetSimulator::run(const std::vector<serve::Request> &requests,
                    const FleetRunOptions &run) const
{
    serve::validateTrace(requests, "request");
    if (run.faults.size() > sims_.size())
        tf_fatal("got ", run.faults.size(), " fault schedules for ",
                 sims_.size(), " replicas");
    std::vector<Replica> slots(sims_.size());
    bool any_faults = false;
    for (std::size_t i = 0; i < slots.size(); ++i) {
        slots[i].sim = sims_[i].get();
        if (i < run.faults.size())
            slots[i].transitions = run.faults[i].replicaTransitions(
                replicas_[i].cluster.size());
        any_faults = any_faults || !slots[i].transitions.empty();
    }
    if (slots.size() == 1 && run.policy == PolicyKind::PassThrough
        && !any_faults && !options_.autoscaler.enabled
        && !options_.health.enabled && !options_.brownout.enabled) {
        // Delegate outright: the same code path (and the same
        // instrumentation) as the single sharded replica, so the
        // trivial fleet is bit-identical — metrics and RunReport —
        // to the fault-tolerant server on an empty schedule.
        FleetMetrics fm;
        fm.offered = static_cast<std::int64_t>(requests.size());
        fm.routed = fm.offered;
        fm.peak_serving = 1;
        addReplica(fm, sims_[0]->run(requests));
        if (fm.makespan_s > 0)
            fm.completed_per_second =
                static_cast<double>(fm.completed) / fm.makespan_s;
        return fm;
    }
    return FleetRun(options_, requests, run, std::move(slots)).run();
}

} // namespace transfusion::fleet
