/**
 * @file
 * The four workloads: sweep, plan_cold, fleet_replay, fault_replay.
 */

#include "workloads.hh"

#include <cstring>
#include <optional>
#include <set>
#include <tuple>
#include <utility>

#include "bench_util.hh"
#include "common/rng.hh"
#include "costmodel/cost_table_cache.hh"
#include "dpipe/pipeline.hh"
#include "fault/fault_server.hh"
#include "fleet/fleet_sim.hh"
#include "measure.hh"
#include "model/cascades.hh"
#include "model/pe_mapping.hh"
#include "model/stack.hh"
#include "multichip/shard_plan.hh"
#include "multichip/sharded_serve.hh"
#include "obs/trace.hh"
#include "plan/planner.hh"
#include "schedule/sweep.hh"
#include "serve/workload.hh"
#include "sim/compare.hh"

namespace perfbench
{

namespace
{

using namespace transfusion;

/** FNV-1a over the bit patterns of simulated outputs. */
class Digest
{
  public:
    Digest &
    real(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        return word(bits);
    }

    Digest &
    count(std::int64_t v)
    {
        return word(static_cast<std::uint64_t>(v));
    }

    Digest &
    word(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 1099511628211ULL;
        }
        return *this;
    }

    Digest &
    histogram(const Histogram &h)
    {
        count(static_cast<std::int64_t>(h.count()));
        // Percentiles first: they sort the samples, which fixes the
        // order (and so the rounding) of the sum.
        if (!h.empty())
            real(h.percentile(50)).real(h.percentile(99)).real(h.sum());
        return *this;
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 1469598103934665603ULL;
};

std::uint64_t
digestOf(const schedule::StrategyMetrics &m)
{
    Digest d;
    for (const auto &[kind, r] : m.results) {
        d.count(static_cast<std::int64_t>(kind));
        d.real(r.total.latency_s).real(r.total.compute_s);
        d.real(r.total.dram_s).real(r.total.dram_bytes);
        d.real(r.total.ops_2d).real(r.total.ops_1d);
        d.real(r.total.energy.total());
        for (const schedule::LayerMetrics &l : r.layers)
            d.real(l.latency_s);
        d.count(r.tile.b).count(r.tile.d).count(r.tile.p);
        d.count(r.tile.m1).count(r.tile.m0).count(r.tile.s);
    }
    return d.value();
}

void
digestServe(Digest &d, const serve::ServeMetrics &m)
{
    d.count(m.offered).count(m.completed).count(m.rejected);
    d.count(m.generated_tokens).count(m.prefill_rounds);
    d.count(m.decode_rounds).count(m.peak_running).count(m.peak_queue);
    d.real(m.makespan_s).real(m.energyJoules()).real(m.chip_seconds);
    d.histogram(m.latency_s).histogram(m.ttft_s);
}

std::uint64_t
digestOf(const fleet::FleetMetrics &m)
{
    Digest d;
    for (const serve::ServeMetrics &r : m.replicas)
        digestServe(d, r);
    d.count(m.offered).count(m.completed).count(m.rejected);
    d.count(m.generated_tokens).count(m.routed).count(m.held_rejected);
    d.count(m.replica_downs).count(m.replica_ups);
    d.count(m.slowdown_transitions).count(m.breaker_opens);
    d.count(m.breaker_reopens).count(m.breaker_closes);
    d.count(m.brownout_activations).count(m.brownout_sheds);
    d.count(m.failover_drained).count(m.failover_reroutes);
    d.count(m.failover_exhausted).count(m.failover_wasted_tokens);
    d.real(m.makespan_s).real(m.energy_j).real(m.chip_seconds);
    d.histogram(m.latency_s).histogram(m.ttft_s);
    d.histogram(m.queue_wait_s);
    return d.value();
}

std::uint64_t
digestOf(const fault::FaultServeMetrics &m)
{
    Digest d;
    digestServe(d, m.serve);
    d.count(m.fault_events).count(m.replans).count(m.evictions);
    d.count(m.retries).count(m.retry_completed).count(m.retry_exhausted);
    d.count(m.wasted_tokens).real(m.degraded_s).real(m.outage_s);
    d.count(static_cast<std::int64_t>(m.windows.size()));
    return d.value();
}

std::uint64_t
digestOf(const plan::PlanResult &r)
{
    Digest d;
    for (const plan::CandidateOutcome &c : r.candidates) {
        d.count(static_cast<std::int64_t>(c.status));
        d.count(c.simulated ? 1 : 0);
        d.real(c.objectives.cost).real(c.objectives.p99_latency_s);
        d.real(c.objectives.throughput_rps).real(c.reject_rate);
        d.real(c.analytic_tokens_per_s);
    }
    for (const std::size_t i : r.frontier)
        d.count(static_cast<std::int64_t>(i));
    d.count(r.best ? static_cast<std::int64_t>(*r.best) : -1);
    return d.value();
}

std::int64_t
counter(const obs::RegistrySnapshot &s, const std::string &name)
{
    const auto it = s.counters.find(name);
    return it == s.counters.end() ? 0 : it->second;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

const LayerRow &
row(const JobLayers &layers, const std::string &layer)
{
    static const LayerRow kNone;
    const auto it = layers.find(layer);
    return it == layers.end() ? kNone : it->second;
}

std::int64_t
rounds(const serve::ServeMetrics &m)
{
    return m.prefill_rounds + m.decode_rounds;
}

std::int64_t
rounds(const fleet::FleetMetrics &m)
{
    std::int64_t n = 0;
    for (const serve::ServeMetrics &r : m.replicas)
        n += rounds(r);
    return n;
}

void
checkConservation(std::int64_t completed, std::int64_t rejected,
                  std::int64_t offered, const char *what)
{
    if (completed + rejected != offered) {
        throw CheckFailure(std::string(what) + ": completed "
                           + std::to_string(completed) + " + rejected "
                           + std::to_string(rejected) + " != offered "
                           + std::to_string(offered));
    }
}

/** The serve configuration of every replay workload: a cheap
 *  calibration (the tables, not their precision, are under test). */
serve::ServeOptions
replayServeOptions()
{
    serve::ServeOptions o;
    o.strategy = schedule::StrategyKind::TransFusion;
    o.max_batch = 8;
    o.cost.cache_samples = 3;
    o.cost.prefill_samples = 3;
    o.cost.evaluator.mcts.iterations = 32;
    o.cost.evaluator.mcts.threads = 1;
    return o;
}

// ---------------------------------------------------------------- sweep

/**
 * One job = one (arch, model, seq) cell of the paper's headline
 * grid, all five strategies, on one thread.  The seed shuffles the
 * order the cells are visited in; every run covers the same mix.
 */
class SweepWorkload final : public Workload
{
  public:
    SweepWorkload() : options_(makeOptions()), sweep_(options_) {}

    std::string
    threadSettings() const override
    {
        return "Sweep.threads=1 mcts.threads=1";
    }

    void
    setup(std::uint64_t seed) override
    {
        costmodel::CostTableCache::instance().clear();
        points_ = schedule::Sweep::grid(
            { arch::cloudArch(), arch::edgeArch() }, model::allModels(),
            sim::paperSequenceSweep());
        order_.resize(points_.size());
        for (std::size_t i = 0; i < order_.size(); ++i)
            order_[i] = i;
        Rng rng(seed);
        for (std::size_t i = order_.size(); i > 1; --i)
            std::swap(order_[i - 1], order_[rng.nextBelow(i)]);
        reference_.clear();
        for (const schedule::StrategyMetrics &m : sweep_.run(points_))
            reference_.push_back(digestOf(m));
    }

    /**
     * What Sweep::run does for one point.  Sweep::run itself would
     * also start and join a thread pool per call, which the headline
     * sweep does once for the whole grid.
     */
    void
    run(std::size_t i) override
    {
        const schedule::SweepPoint &p = points_[cell(i)];
        schedule::StrategyMetrics m;
        m.point = p;
        const schedule::Evaluator eval(p.arch, p.cfg, p.seq,
                                       options_.evaluator);
        for (const schedule::StrategyKind kind : options_.strategies)
            m.results.emplace(kind, eval.evaluate(kind));
        last_ = std::move(m);
    }

    std::int64_t
    check(std::size_t i) override
    {
        if (digestOf(last_) != reference_[cell(i)])
            throw CheckFailure("sweep cell " + points_[cell(i)].label()
                               + " differs from its reference");
        return 1;
    }

    std::uint64_t
    digest() const override
    {
        Digest d;
        for (const std::uint64_t r : reference_)
            d.word(r);
        return d.value();
    }

    void
    sampleJob(const TracedJob &job, Samples &out) override
    {
        if (!job.traced)
            return;
        const JobLayers &l = *job.layers;
        out["schedule.evaluate_ms.transfusion"].push_back(
            row(l, "schedule.evaluate.transfusion").total_s * 1e3);
        out["schedule.evaluate_ms.baselines"].push_back(
            row(l, "schedule.evaluate.baselines").total_s * 1e3);
        out["tileseek.search_ms"].push_back(
            row(l, "tileseek.search").self_s * 1e3);

        const obs::RegistrySnapshot &c = *job.counters;
        const auto tried =
            static_cast<double>(counter(c, "dpipe/dp/orders_tried"));
        out["dpipe.bipartitions_tried"].push_back(static_cast<double>(
            counter(c, "dpipe/pipeline/bipartitions_tried")));
        out["dpipe.orders_tried"].push_back(tried);
        out["dpipe.orders_pruned_frac"].push_back(ratio(
            static_cast<double>(counter(c, "dpipe/dp/orders_pruned")),
            tried));
        const auto evals =
            static_cast<double>(counter(c, "tileseek/evaluations"));
        out["tileseek.evaluations"].push_back(evals);
        out["tileseek.infeasible_frac"].push_back(ratio(
            static_cast<double>(
                counter(c, "tileseek/infeasible_leaves")),
            evals));
        out["dpipe.schedule_pipeline_us"].push_back(
            schedulePipelineSeconds(points_[cell(job.index)]) * 1e6);
    }

  private:
    static schedule::SweepOptions
    makeOptions()
    {
        schedule::SweepOptions o = bench::sweepOptions();
        o.threads = 1;
        o.strategies = bench::figureStrategies();
        o.evaluator.mcts.threads = 1;
        return o;
    }

    std::size_t cell(std::size_t i) const
    {
        return order_[i % order_.size()];
    }

    /** The DPipe search of the cell's four sub-layer cascades, as
     *  evaluate(TransFusion) runs it, timed from outside the job. */
    double
    schedulePipelineSeconds(const schedule::SweepPoint &p) const
    {
        const schedule::Evaluator eval(p.arch, p.cfg, p.seq,
                                       options_.evaluator);
        std::vector<std::pair<einsum::Cascade, model::DimMapping>> in;
        for (const model::LayerKind kind : model::allLayerKinds())
            in.emplace_back(model::buildCascade(kind, p.cfg),
                            model::peMapping(kind));
        obs::Registry scratch;
        obs::ScopedRegistry scope(scratch);
        const double t0 = cpuSeconds();
        for (const auto &[cascade, mapping] : in)
            dpipe::schedulePipeline(cascade, eval.dims(), p.arch,
                                    mapping, options_.evaluator.pipeline);
        return cpuSeconds() - t0;
    }

    schedule::SweepOptions options_;
    schedule::Sweep sweep_;
    std::vector<schedule::SweepPoint> points_;
    std::vector<std::size_t> order_;
    std::vector<std::uint64_t> reference_;
    schedule::StrategyMetrics last_;
};

// ------------------------------------------------------------ plan_cold

/**
 * One job = one CapacityPlanner::plan over the ext_capacity_planner
 * search space with the cost-table cache cleared first, as at the
 * start of a planner process.  The run's seed draws kPlans planning
 * seeds (each a different request trace), cycled over the jobs.
 */
class PlanColdWorkload final : public Workload
{
  public:
    /** Plans per run: how long a plan takes depends on its trace,
     *  so a run covers several, and every run a similar mix. */
    static constexpr std::size_t kPlans = 4;

    std::string
    threadSettings() const override
    {
        return "PlannerOptions.threads=2 (reference: 1) "
               "mcts.threads=1; the planner fixes "
               "FleetOptions.threads=1 plan_threads=1 per candidate";
    }

    void
    setup(std::uint64_t seed) override
    {
        costmodel::CostTableCache::instance().clear();
        planner_.emplace(model::t5Small(), workload(), slo(),
                         options(2, true));
        Rng rng(seed);
        seeds_.clear();
        reference_.clear();
        for (std::size_t k = 0; k < kPlans; ++k) {
            seeds_.push_back(rng.next());
            const plan::PlanResult pruned =
                plan::CapacityPlanner(model::t5Small(), workload(), slo(),
                                      options(1, true))
                    .plan(space(), seeds_[k]);
            const plan::PlanResult full =
                plan::CapacityPlanner(model::t5Small(), workload(), slo(),
                                      options(1, false))
                    .plan(space(), seeds_[k]);
            if (full.frontier != pruned.frontier
                || full.best != pruned.best)
                throw CheckFailure("plan_cold: the pruned frontier or "
                                   "best plan differs from the "
                                   "exhaustive one");
            if (!pruned.best)
                throw CheckFailure("plan_cold: no feasible plan");
            reference_.push_back(digestOf(pruned));
        }
    }

    void
    prepare(std::size_t) override
    {
        costmodel::CostTableCache::instance().clear();
    }

    void
    run(std::size_t i) override
    {
        before_ = costmodel::CostTableCache::instance().stats();
        last_ = planner_->plan(space(), seeds_[i % kPlans]);
        after_ = costmodel::CostTableCache::instance().stats();
    }

    std::int64_t
    check(std::size_t i) override
    {
        if (digestOf(last_) != reference_[i % kPlans])
            throw CheckFailure("plan_cold: the 2-thread plan differs "
                               "from the 1-thread reference");
        return last_.enumerated;
    }

    std::uint64_t
    digest() const override
    {
        Digest d;
        for (const std::uint64_t r : reference_)
            d.word(r);
        return d.value();
    }

    void
    sampleJob(const TracedJob &job, Samples &out) override
    {
        if (!job.traced) {
            // The latency a planner user waits for, which the CPU
            // time of job_p90_ms leaves out (see README.md, "Clock").
            out["plan.cold_wall_ms"].push_back(job.wall_s * 1e3);
            return;
        }
        const double misses =
            static_cast<double>(after_.misses - before_.misses);
        const double hits =
            static_cast<double>(after_.hits - before_.hits);
        out["costmodel.cache_misses"].push_back(misses);
        out["costmodel.cache_hit_frac"].push_back(
            ratio(hits, hits + misses));
        out["costmodel.calibration_overlap"].push_back(ratio(
            row(*job.layers, "serve.calibrate").total_s, job.wall_s));
        out["plan.simulated"].push_back(
            static_cast<double>(last_.simulated));
        out["plan.pruned"].push_back(static_cast<double>(last_.pruned));
    }

    void
    probe(Samples &out) override
    {
        // Cold vs warm plan() pairs, back to back so both see the
        // same host speed.
        std::vector<double> cold, warm;
        for (int rep = 0; rep < 5; ++rep) {
            costmodel::CostTableCache::instance().clear();
            double t0 = cpuSeconds();
            planner_->plan(space(), seeds_[0]);
            cold.push_back(cpuSeconds() - t0);
            t0 = cpuSeconds();
            planner_->plan(space(), seeds_[0]);
            warm.push_back(cpuSeconds() - t0);
        }
        for (const double w : warm)
            out["plan.warm_ms"].push_back(w * 1e3);
        out["plan.calibration_share"].push_back(
            1.0 - percentile(warm, 50) / percentile(cold, 50));

        // One uncached calibration per distinct (chips, tp, pp).
        const costmodel::CostTableCacheDisabled uncached;
        const plan::PlannerOptions po = options(1, true);
        std::set<std::tuple<int, int, int>> seen;
        for (const plan::DeploymentSpec &s :
             space().enumerate(model::t5Small())) {
            const multichip::ClusterConfig cluster =
                multichip::clusterByName(s.cluster, s.chips);
            if (!seen.insert({ s.chips, s.shard.tp, s.shard.pp }).second
                || !multichip::shardedWeightsFit(
                    cluster, model::t5Small(),
                    po.serve.dram_capacity_bytes))
                continue;
            const double t0 = cpuSeconds();
            multichip::shardedServeCostModel(cluster, model::t5Small(),
                                             s.shard, workload(),
                                             po.serve);
            out["serve.calibrate_ms"].push_back((cpuSeconds() - t0)
                                                * 1e3);
        }
    }

  private:
    static serve::WorkloadOptions
    workload()
    {
        serve::WorkloadOptions wl;
        wl.arrival_per_s = 2000.0;
        wl.requests = 96;
        wl.prompt = { 128, 256 };
        wl.output = { 128, 256 };
        return wl;
    }

    static plan::SloSpec
    slo()
    {
        plan::SloSpec s;
        s.p99_latency_s = 2.0;
        s.max_reject_rate = 0.0;
        return s;
    }

    static plan::PlannerOptions
    options(int threads, bool prune)
    {
        plan::PlannerOptions o;
        o.serve.max_batch = 4;
        o.serve.cost.cache_samples = 3;
        o.serve.cost.prefill_samples = 3;
        o.serve.cost.evaluator.mcts.iterations = 32;
        o.serve.cost.evaluator.mcts.threads = 1;
        o.threads = threads;
        o.prune = prune;
        return o;
    }

    static plan::SearchSpace
    space()
    {
        plan::SearchSpace s;
        s.clusters = { "edge" };
        s.chip_counts = { 1, 2, 4 };
        s.replica_counts = { 1, 2, 4 };
        s.policies = { fleet::PolicyKind::RoundRobin,
                       fleet::PolicyKind::LeastOutstanding };
        return s;
    }

    std::optional<plan::CapacityPlanner> planner_;
    std::vector<std::uint64_t> seeds_;
    std::vector<std::uint64_t> reference_;
    plan::PlanResult last_;
    costmodel::CostTableCache::Stats before_, after_;
};

// ------------------------------------------------------------ replays

/** Seeded traces shared by the replay workloads. */
std::vector<std::vector<serve::Request>>
makeTraces(const serve::WorkloadOptions &wl, std::uint64_t seed, int n,
           bool priorities)
{
    Rng rng(seed);
    std::vector<std::vector<serve::Request>> traces;
    for (int k = 0; k < n; ++k) {
        traces.push_back(serve::generateWorkload(wl, rng.next()));
        if (priorities) {
            for (serve::Request &r : traces.back())
                r.priority = r.id % 2 == 0 ? 1 : 0;
        }
    }
    return traces;
}

/** Replica 0's share of a trace under round-robin routing. */
std::vector<serve::Request>
replicaShare(const std::vector<serve::Request> &trace, int replicas)
{
    std::vector<serve::Request> share;
    for (std::size_t i = 0; i < trace.size();
         i += static_cast<std::size_t>(replicas)) {
        share.push_back(trace[i]);
        share.back().id = static_cast<std::int64_t>(share.size() - 1);
    }
    return share;
}

/**
 * Serve-core cost per round on one replica's share of each trace:
 * the part of a fleet round that is not fleet bookkeeping.
 */
void
probeServeRounds(const serve::ServeSimulator &sim,
                 const std::vector<std::vector<serve::Request>> &traces,
                 int replicas, Samples &out)
{
    for (int rep = 0; rep < 3; ++rep) {
        for (const auto &trace : traces) {
            const auto share = replicaShare(trace, replicas);
            obs::Registry scratch;
            obs::ScopedRegistry scope(scratch);
            const double t0 = cpuSeconds();
            const serve::ServeMetrics m = sim.run(share);
            const double dt = cpuSeconds() - t0;
            out["serve.ns_per_round"].push_back(
                dt * 1e9 / static_cast<double>(rounds(m)));
            out["serve.decode_rounds"].push_back(
                static_cast<double>(m.decode_rounds));
        }
    }
}

/**
 * One job = one FleetSimulator::run of a long seeded trace on a
 * warm 8-replica fleet of 2-chip edge clusters (t5-small), with
 * power-of-two-choices routing and the health monitor on.
 */
class FleetReplayWorkload final : public Workload
{
  public:
    static constexpr int kReplicas = 8;
    static constexpr int kTraces = 64;

    std::string
    threadSettings() const override
    {
        return "FleetOptions.threads=1 plan_threads=1 mcts.threads=1";
    }

    void
    setup(std::uint64_t seed) override
    {
        costmodel::CostTableCache::instance().clear();
        fleet::FleetOptions fo;
        fo.serve = replayServeOptions();
        fo.threads = 1;
        fo.plan_threads = 1;
        fo.health.enabled = true;
        fo.health.depth_breach = 24.0;
        fleet_.emplace(fleet::FleetSimulator::uniform(
            kReplicas, multichip::edgeCluster(2), model::t5Small(),
            workload(), fo));
        run_.policy = fleet::PolicyKind::PowerOfTwo;
        run_.seed = seed;
        traces_ = makeTraces(workload(), seed, kTraces, false);
        reference_.clear();
        for (const auto &trace : traces_) {
            const fleet::FleetMetrics m = fleet_->run(trace, run_);
            checkConservation(m.completed, m.rejected, m.offered,
                              "fleet_replay reference");
            reference_.push_back(digestOf(m));
        }
    }

    void
    run(std::size_t i) override
    {
        last_ = fleet_->run(traces_[i % kTraces], run_);
    }

    std::int64_t
    check(std::size_t i) override
    {
        checkConservation(last_.completed, last_.rejected, last_.offered,
                          "fleet_replay");
        if (digestOf(last_) != reference_[i % kTraces])
            throw CheckFailure("fleet_replay: replay differs from its "
                               "reference");
        return last_.offered;
    }

    std::uint64_t
    digest() const override
    {
        Digest d;
        for (const std::uint64_t r : reference_)
            d.word(r);
        return d.value();
    }

    void
    sampleJob(const TracedJob &job, Samples &out) override
    {
        if (job.traced) {
            out["fleet.routed"].push_back(
                static_cast<double>(last_.routed));
            return;
        }
        out["fleet.ns_per_round"].push_back(
            job.cpu_s * 1e9 / static_cast<double>(rounds(last_)));
    }

    void
    probe(Samples &out) override
    {
        probeServeRounds(fleet_->replicaSimulator(0), traces_, kReplicas,
                         out);
        out["fleet.overhead_ns_per_round"].push_back(
            percentile(out["fleet.ns_per_round"], 50)
            - percentile(out["serve.ns_per_round"], 50));
    }

  private:
    static serve::WorkloadOptions
    workload()
    {
        serve::WorkloadOptions wl;
        wl.arrival_per_s = 160.0;
        wl.requests = 256;
        wl.prompt = { 128, 256 };
        wl.output = { 64, 128 };
        return wl;
    }

    std::optional<fleet::FleetSimulator> fleet_;
    fleet::FleetRunOptions run_;
    std::vector<std::vector<serve::Request>> traces_;
    std::vector<std::uint64_t> reference_;
    fleet::FleetMetrics last_;
};

/**
 * One job = one seeded trace replayed through a 4-replica fleet
 * with a fault schedule per replica (chip loss, link degradation,
 * slowdowns; breaker and brownout on) and through a single
 * FaultTolerantServer that re-plans shards on its surviving chips.
 */
class FaultReplayWorkload final : public Workload
{
  public:
    static constexpr int kReplicas = 4;
    static constexpr int kChips = 4;
    static constexpr int kTraces = 64;

    std::string
    threadSettings() const override
    {
        return "FleetOptions.threads=1 plan_threads=1 "
               "FaultServeOptions.plan_threads=1 mcts.threads=1";
    }

    void
    setup(std::uint64_t seed) override
    {
        costmodel::CostTableCache::instance().clear();
        const multichip::ClusterConfig cluster =
            multichip::edgeCluster(kChips);
        fleet::FleetOptions fo;
        fo.serve = replayServeOptions();
        fo.threads = 1;
        fo.plan_threads = 1;
        fo.health.enabled = true;
        fo.health.alpha = 0.5;
        fo.health.depth_breach = 6.0;
        fo.health.breach_streak = 2;
        fo.health.cooldown_updates = 3;
        fo.health.probe_updates = 2;
        fo.brownout.enabled = true;
        fo.brownout.alpha = 0.5;
        fo.brownout.pressure_depth = 5.0;
        fo.brownout.release_depth = 2.0;
        fo.brownout.pressure_streak = 2;
        fo.brownout.relief_streak = 2;
        fo.brownout.min_priority = 1;
        fleet_.emplace(fleet::FleetSimulator::uniform(
            kReplicas, cluster, model::t5Small(), workload(), fo));

        fault::FaultServeOptions so;
        so.serve = replayServeOptions();
        so.plan_threads = 1;
        server_.emplace(cluster, model::t5Small(), workload(), so);

        warmReplans();

        traces_ = makeTraces(workload(), seed, kTraces, true);
        Rng rng(seed ^ 0x5eedfa17ULL);
        fleet_faults_.clear();
        server_faults_.clear();
        for (const auto &trace : traces_) {
            fault::FaultScheduleOptions fs;
            // Several short incidents rather than a few long ones,
            // so that every trace carries a similar share of faulted
            // time and the job cost does not swing with the seed.
            fs.incidents = 3;
            fs.horizon_s = trace.back().arrival_s;
            fs.mean_outage_s = 0.08 * fs.horizon_s;
            fs.link_degrade_prob = 0.3;
            fs.slowdown_prob = 0.3;
            fs.mean_slowdown_s = 0.1 * fs.horizon_s;
            fs.max_multiplier = 3.0;
            fleet::FleetRunOptions run;
            run.policy = fleet::PolicyKind::PowerOfTwo;
            run.seed = seed;
            for (int r = 0; r < kReplicas; ++r)
                run.faults.push_back(schedule(fs, rng.next()));
            fleet_faults_.push_back(run);
            server_faults_.push_back(schedule(fs, rng.next()));
        }
        // The first replays are the reference every timed job must
        // reproduce.  warmReplans() has left them nothing to build.
        const auto misses = costmodel::CostTableCache::instance().stats();
        reference_.clear();
        paths_ = {};
        for (std::size_t k = 0; k < traces_.size(); ++k) {
            run(k);
            reference_.push_back(outputDigest());
            check(k);
            paths_.add(fleet_last_, server_last_);
        }
        paths_.cache_misses =
            costmodel::CostTableCache::instance().stats().misses
            - misses.misses;
    }

    void
    run(std::size_t i) override
    {
        const std::size_t k = i % kTraces;
        fleet_last_ = fleet_->run(traces_[k], fleet_faults_[k]);
        server_last_ = server_->run(traces_[k], server_faults_[k]);
    }

    std::int64_t
    check(std::size_t i) override
    {
        checkConservation(fleet_last_.completed, fleet_last_.rejected,
                          fleet_last_.offered, "fault_replay fleet");
        const serve::ServeMetrics &s = server_last_.serve;
        checkConservation(s.completed, s.rejected, s.offered,
                          "fault_replay server");
        if (outputDigest() != reference_[i % kTraces])
            throw CheckFailure("fault_replay: replay differs from its "
                               "reference");
        return fleet_last_.offered + s.offered;
    }

    std::uint64_t
    digest() const override
    {
        Digest d;
        for (const std::uint64_t r : reference_)
            d.word(r);
        return d.value();
    }

    void
    sampleJob(const TracedJob &job, Samples &out) override
    {
        if (!job.traced)
            return;
        out["fault.server_run_ms"].push_back(
            row(*job.layers, "fault.run").total_s * 1e3);
        out["fault.replans"].push_back(
            static_cast<double>(server_last_.replans));
        out["fault.retries"].push_back(
            static_cast<double>(server_last_.retries));
        out["fleet.failover.reroutes"].push_back(
            static_cast<double>(fleet_last_.failover_reroutes));
        out["fleet.wasted_token_frac"].push_back(ratio(
            static_cast<double>(fleet_last_.failover_wasted_tokens),
            static_cast<double>(fleet_last_.generated_tokens
                                + fleet_last_.failover_wasted_tokens)));
    }

    /** How often the fault paths ran in the reference replays; every
     *  job repeats one of them bit for bit. */
    void
    report(std::ostream &os) const override
    {
        const double n = static_cast<double>(traces_.size());
        os << "fault paths, mean per trace over " << traces_.size()
           << " traces: fleet replica_downs " << paths_.downs / n
           << ", slowdown_transitions " << paths_.slowdowns / n
           << ", breaker_opens " << paths_.breaker_opens / n
           << ", brownout_activations " << paths_.brownouts / n
           << ", brownout_sheds " << paths_.sheds / n
           << ", failover_reroutes " << paths_.reroutes / n
           << "; server replans " << paths_.replans / n
           << ", retries " << paths_.retries / n
           << "; cost tables built after the warm-up "
           << paths_.cache_misses << "\n";
    }

    void
    probe(Samples &out) override
    {
        // planShards as a re-plan calls it, on every surviving chip
        // count, with the cache off so each call does the search.
        const costmodel::CostTableCacheDisabled uncached;
        multichip::ShardPlanOptions po;
        po.evaluator = replayServeOptions().cost.evaluator;
        po.threads = 1;
        for (int chips = kChips; chips >= 1; --chips) {
            const double t0 = cpuSeconds();
            multichip::planShards(multichip::edgeCluster(chips),
                                  model::decoderOnly(model::t5Small()),
                                  /*src_len=*/0, workload().maxContext(),
                                  schedule::StrategyKind::TransFusion,
                                  po);
            out["multichip.plan_shards_ms"].push_back(
                (cpuSeconds() - t0) * 1e3);
        }
    }

  private:
    static serve::WorkloadOptions
    workload()
    {
        serve::WorkloadOptions wl;
        wl.arrival_per_s = 60.0;
        wl.requests = 1024;
        wl.prompt = { 128, 256 };
        wl.output = { 32, 96 };
        return wl;
    }

    /** Link degradations all halve the fabric, so that a re-plan
     *  meets one of a few configurations whatever the seed. */
    static constexpr double kDegradedLink = 0.5;

    static fault::FaultSchedule
    schedule(const fault::FaultScheduleOptions &fs, std::uint64_t seed)
    {
        fault::FaultSchedule s =
            fault::generateFaultSchedule(fs, kChips, seed);
        for (fault::FaultEvent &e : s.events) {
            if (e.kind == fault::FaultKind::LinkDegrade)
                e.factor = kDegradedLink;
        }
        return s;
    }

    /**
     * A fixed replay that re-plans the server on every (surviving
     * chips, link) configuration the seeded schedules can reach, so
     * that the set-up builds the same cost tables whatever the seed.
     */
    void
    warmReplans()
    {
        serve::WorkloadOptions wl = workload();
        wl.requests = 256;
        const std::vector<serve::Request> trace =
            serve::generateWorkload(wl, /*seed=*/0x3a11);
        using K = fault::FaultKind;
        const std::vector<std::pair<K, int>> steps{
            { K::LinkDegrade, -1 }, { K::ChipLoss, 0 },
            { K::ChipLoss, 1 },     { K::ChipLoss, 2 },
            { K::LinkDegrade, -1 }, { K::ChipRecovery, 2 },
            { K::ChipRecovery, 1 }, { K::ChipRecovery, 0 },
        };
        fault::FaultSchedule s;
        const double gap = trace.back().arrival_s
            / static_cast<double>(steps.size() + 1);
        for (std::size_t k = 0; k < steps.size(); ++k) {
            fault::FaultEvent e;
            e.time_s = gap * static_cast<double>(k + 1);
            e.kind = steps[k].first;
            e.chip = steps[k].second;
            e.factor = k == 0 ? kDegradedLink : 1.0;
            s.events.push_back(e);
        }
        server_->run(trace, s);
    }

    /** Fault-path counts summed over the reference replays. */
    struct Paths
    {
        std::int64_t downs = 0, slowdowns = 0, breaker_opens = 0;
        std::int64_t brownouts = 0, sheds = 0, reroutes = 0;
        std::int64_t replans = 0, retries = 0;
        std::int64_t cache_misses = 0; ///< cost tables built

        void
        add(const fleet::FleetMetrics &f,
            const fault::FaultServeMetrics &s)
        {
            downs += f.replica_downs;
            slowdowns += f.slowdown_transitions;
            breaker_opens += f.breaker_opens;
            brownouts += f.brownout_activations;
            sheds += f.brownout_sheds;
            reroutes += f.failover_reroutes;
            replans += s.replans;
            retries += s.retries;
        }
    };

    std::uint64_t
    outputDigest() const
    {
        return Digest()
            .word(digestOf(fleet_last_))
            .word(digestOf(server_last_))
            .value();
    }

    std::optional<fleet::FleetSimulator> fleet_;
    std::optional<fault::FaultTolerantServer> server_;
    std::vector<std::vector<serve::Request>> traces_;
    std::vector<fleet::FleetRunOptions> fleet_faults_;
    std::vector<fault::FaultSchedule> server_faults_;
    std::vector<std::uint64_t> reference_;
    fleet::FleetMetrics fleet_last_;
    fault::FaultServeMetrics server_last_;
    Paths paths_;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> kNames{
        "sweep", "plan_cold", "fleet_replay", "fault_replay"
    };
    return kNames;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "sweep")
        return std::make_unique<SweepWorkload>();
    if (name == "plan_cold")
        return std::make_unique<PlanColdWorkload>();
    if (name == "fleet_replay")
        return std::make_unique<FleetReplayWorkload>();
    if (name == "fault_replay")
        return std::make_unique<FaultReplayWorkload>();
    return nullptr;
}

const std::vector<LayerMetric> &
layerMetrics()
{
    using S = Summary;
    static const std::vector<LayerMetric> kMetrics{
        { "schedule.evaluate_ms.transfusion", "ms", "sweep", S::Median },
        { "schedule.evaluate_ms.baselines", "ms", "sweep", S::Median },
        { "dpipe.schedule_pipeline_us", "us", "sweep", S::Median },
        { "dpipe.bipartitions_tried", "count", "sweep", S::Mean },
        { "dpipe.orders_tried", "count", "sweep", S::Mean },
        { "dpipe.orders_pruned_frac", "frac", "sweep", S::Mean },
        { "tileseek.search_ms", "ms", "sweep", S::Median },
        { "tileseek.evaluations", "count", "sweep", S::Mean },
        { "tileseek.infeasible_frac", "frac", "sweep", S::Mean },
        { "costmodel.cache_misses", "count", "plan_cold", S::Mean },
        { "costmodel.cache_hit_frac", "frac", "plan_cold", S::Mean },
        { "costmodel.calibration_overlap", "ratio", "plan_cold",
          S::Median },
        { "serve.calibrate_ms", "ms", "plan_cold", S::Median },
        { "plan.cold_wall_ms", "ms", "plan_cold", S::Median },
        { "plan.warm_ms", "ms", "plan_cold", S::Median },
        { "plan.calibration_share", "frac", "plan_cold", S::Median },
        { "plan.simulated", "count", "plan_cold", S::Mean },
        { "plan.pruned", "count", "plan_cold", S::Mean },
        { "serve.ns_per_round", "ns", "fleet_replay", S::Median },
        { "serve.decode_rounds", "count", "fleet_replay", S::Mean },
        { "fleet.ns_per_round", "ns", "fleet_replay", S::Median },
        { "fleet.overhead_ns_per_round", "ns", "fleet_replay",
          S::Median },
        { "fleet.routed", "count", "fleet_replay", S::Mean },
        { "fleet.failover.reroutes", "count", "fault_replay", S::Mean },
        { "fleet.wasted_token_frac", "frac", "fault_replay", S::Mean },
        { "fault.server_run_ms", "ms", "fault_replay", S::Median },
        { "fault.replans", "count", "fault_replay", S::Mean },
        { "fault.retries", "count", "fault_replay", S::Mean },
        { "multichip.plan_shards_ms", "ms", "fault_replay", S::Median },
        // Measured by every workload on its own jobs.
        { "trace.overhead_ms", "ms", nullptr, S::Median },
        { "layers.attributed_frac", "frac", nullptr, S::Median },
    };
    return kMetrics;
}

} // namespace perfbench
