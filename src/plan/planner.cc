/**
 * @file
 * The capacity-planner search loop: enumerate, bound, simulate,
 * rank.
 */

#include "planner.hh"

#include <algorithm>
#include <limits>
#include <sstream>
#include <utility>

#include "common/logging.hh"
#include "common/table.hh"
#include "multichip/cluster.hh"
#include "multichip/sharded_serve.hh"
#include "obs/obs.hh"
#include "obs/parallel.hh"
#include "serve/workload.hh"

namespace transfusion::plan
{

void
PlannerOptions::validate() const
{
    if (prune_margin <= 0 || prune_margin > 1)
        tf_fatal("prune_margin must be in (0, 1], got ",
                 prune_margin);
    if (chip_second_cost < 0)
        tf_fatal("chip_second_cost must be >= 0, got ",
                 chip_second_cost);
    if (joule_cost < 0)
        tf_fatal("joule_cost must be >= 0, got ", joule_cost);
}

const char *
toString(CandidateStatus s)
{
    switch (s) {
    case CandidateStatus::MemoryUnfit: return "memory-unfit";
    case CandidateStatus::Pruned: return "pruned";
    case CandidateStatus::Infeasible: return "infeasible";
    case CandidateStatus::Feasible: return "feasible";
    }
    tf_fatal("unknown CandidateStatus ", static_cast<int>(s));
}

double
decodeThroughputBound(const serve::ServeCostModel &cost)
{
    double best = 0;
    for (const std::int64_t b : cost.calibratedBatches()) {
        // Cache length 1 clamps to the smallest calibrated cache
        // grid point — the cheapest step any replay can ever see.
        const double s = cost.decodeStepSeconds(b, 1.0);
        if (s > 0)
            best = std::max(best, static_cast<double>(b) / s);
    }
    if (best <= 0)
        tf_fatal("calibrated decode steps must cost time; the "
                 "throughput ceiling is unbounded");
    return best;
}

double
requiredTokensPerSecond(const std::vector<serve::Request> &trace,
                        const SloSpec &slo)
{
    if (trace.empty())
        return 0;
    const std::size_t n = trace.size();
    // Discount the shed budget and the over-p99 straggler
    // allowance as the *largest* outputs — the most favorable
    // requests for a deployment to drop or delay — so the rate is
    // a true lower bound on what any conforming run sustains.
    const auto shed = static_cast<std::size_t>(
        slo.max_reject_rate * static_cast<double>(n));
    const std::size_t kept = n - shed;
    const std::size_t stragglers =
        kept > 0 ? static_cast<std::size_t>(
                       0.01 * static_cast<double>(kept))
                       + 1
                 : 0;
    std::vector<std::int64_t> outputs;
    outputs.reserve(n);
    for (const serve::Request &r : trace)
        outputs.push_back(r.output_len);
    std::sort(outputs.begin(), outputs.end());
    const std::size_t counted =
        n > shed + stragglers ? n - shed - stragglers : 0;
    double tokens = 0;
    for (std::size_t i = 0; i < counted; ++i)
        tokens += static_cast<double>(outputs[i]);
    // Conforming completions land by their arrival plus the p99
    // bound, so the whole counted volume is done by the last
    // arrival plus the bound.
    const double deadline =
        trace.back().arrival_s + slo.p99_latency_s;
    return tokens / deadline;
}

const CandidateOutcome &
PlanResult::bestOutcome() const
{
    if (!best)
        tf_fatal("no feasible candidate: bestOutcome() is "
                 "undefined (check PlanResult::best first)");
    return candidates.at(*best);
}

std::string
PlanResult::summary() const
{
    std::ostringstream os;
    os << "candidates=" << enumerated << " (memory-unfit "
       << memory_unfit << ", pruned " << pruned << ", simulated "
       << simulated << ", feasible " << feasible
       << "), frontier=" << frontier.size();
    if (best)
        os << ", best=" << candidates.at(*best).spec.toString()
           << " @ " << candidates.at(*best).objectives.toString();
    else
        os << ", best=none";
    return os.str();
}

CapacityPlanner::CapacityPlanner(model::TransformerConfig cfg,
                                 serve::WorkloadOptions workload,
                                 SloSpec slo, PlannerOptions options)
    : cfg_(std::move(cfg)), workload_(workload),
      slo_(std::move(slo)), options_(std::move(options))
{
    cfg_.validate();
    workload_.validate();
    slo_.validate();
    options_.validate();
}

CandidateOutcome
CapacityPlanner::evaluate(const DeploymentSpec &spec,
                          const std::vector<serve::Request> &trace,
                          double required_tokens_per_s,
                          std::uint64_t seed) const
{
    CandidateOutcome out;
    out.spec = spec;
    out.required_tokens_per_s = required_tokens_per_s;

    const multichip::ClusterConfig cluster =
        multichip::clusterByName(spec.cluster, spec.chips);
    if (!multichip::shardedWeightsFit(
            cluster, cfg_, options_.serve.dram_capacity_bytes)) {
        out.status = CandidateStatus::MemoryUnfit;
        std::ostringstream why;
        why << "a 1/" << spec.chips << " weight shard of '"
            << cfg_.name << "' does not fit a '" << spec.cluster
            << "' chip's DRAM";
        out.why = why.str();
        return out;
    }

    // Construct the fleet before the prune decision: its cost
    // tables come from the process-wide CostTableCache (one build
    // per (cluster, chips, tp, pp) across the whole search), and
    // the analytic bound reads the same tables the replay would
    // use.  Pruning saves the replay, which is the per-candidate
    // cost that actually scales with the trace.
    fleet::FleetOptions fo;
    fo.serve = options_.serve;
    fo.retry = options_.retry;
    fo.autoscaler = options_.autoscaler;
    fo.autoscaler.enabled = spec.autoscaler;
    fo.threads = 1;
    fo.plan_threads = 1;
    const fleet::FleetSimulator fleet =
        fleet::FleetSimulator::uniform(spec.replicas, cluster,
                                       spec.shard, cfg_, workload_,
                                       fo);

    const double per_replica = decodeThroughputBound(
        fleet.replicaSimulator(0).costModel());
    out.analytic_tokens_per_s =
        per_replica * static_cast<double>(spec.replicas);
    if (options_.prune
        && out.analytic_tokens_per_s
               < options_.prune_margin * required_tokens_per_s) {
        out.status = CandidateStatus::Pruned;
        std::ostringstream why;
        why << "analytic ceiling " << out.analytic_tokens_per_s
            << " tok/s cannot cover the required "
            << required_tokens_per_s << " tok/s";
        out.why = why.str();
        return out;
    }

    fleet::FleetRunOptions run;
    run.policy = spec.policy;
    run.seed = seed;
    const fleet::FleetMetrics fm = fleet.run(trace, run);
    out.simulated = true;
    out.objectives.cost =
        options_.chip_second_cost * fm.chip_seconds
        + options_.joule_cost * fm.energy_j;
    out.objectives.p99_latency_s = fm.latency_s.percentileOr(
        99, std::numeric_limits<double>::infinity());
    out.objectives.throughput_rps = fm.completed_per_second;
    out.reject_rate =
        fm.offered > 0 ? static_cast<double>(fm.rejected)
                             / static_cast<double>(fm.offered)
                       : 0;

    const auto infeasible = [&](const std::string &why) {
        out.status = CandidateStatus::Infeasible;
        out.why = why;
        return out;
    };
    if (fm.completed == 0)
        return infeasible("no request completed");
    if (out.objectives.p99_latency_s > slo_.p99_latency_s) {
        std::ostringstream why;
        why << "p99 " << out.objectives.p99_latency_s
            << "s exceeds the " << slo_.p99_latency_s << "s bound";
        return infeasible(why.str());
    }
    if (out.reject_rate > slo_.max_reject_rate) {
        std::ostringstream why;
        why << "reject rate " << out.reject_rate << " exceeds "
            << slo_.max_reject_rate;
        return infeasible(why.str());
    }

    if (!slo_.faults.empty()) {
        // Availability check: the scenario's chips fault on
        // replica 0, the rest stay healthy and absorb the
        // failover.  Objectives stay those of the healthy run —
        // the faulted replay only gates feasibility.
        fleet::FleetRunOptions faulted = run;
        faulted.faults = { slo_.faults };
        const fleet::FleetMetrics ffm = fleet.run(trace, faulted);
        out.fault_reject_rate =
            ffm.offered > 0 ? static_cast<double>(ffm.rejected)
                                  / static_cast<double>(ffm.offered)
                            : 0;
        if (out.fault_reject_rate > slo_.max_fault_reject_rate) {
            std::ostringstream why;
            why << "faulted reject rate " << out.fault_reject_rate
                << " exceeds " << slo_.max_fault_reject_rate;
            return infeasible(why.str());
        }
    }

    out.status = CandidateStatus::Feasible;
    return out;
}

PlanResult
CapacityPlanner::plan(const SearchSpace &space,
                      std::uint64_t seed) const
{
    TF_SPAN("plan.capacity_search");
    const std::vector<DeploymentSpec> specs =
        space.enumerate(cfg_);
    if (specs.empty())
        tf_fatal("the search space enumerates no candidate for "
                 "model '",
                 cfg_.name, "' (no feasible (tp, pp) at any chip "
                 "count, or every candidate is over budget)");

    if (!slo_.faults.empty()) {
        // The scenario lands on replica 0 of every candidate, so
        // its chip indices must be valid for the smallest replica
        // in the space; larger replicas then accept it a fortiori.
        int min_chips = specs.front().chips;
        for (const DeploymentSpec &spec : specs)
            min_chips = std::min(min_chips, spec.chips);
        slo_.faults.validate(min_chips);
    }

    const std::vector<serve::Request> trace =
        serve::generateWorkload(workload_, seed);
    const double required = requiredTokensPerSecond(trace, slo_);

    // Prefixed, so same-named fleet metrics from different
    // candidates never collide.
    PlanResult result;
    result.candidates = obs::parallelMapRecorded(
        options_.threads, specs,
        [&](const DeploymentSpec &spec) {
            return evaluate(spec, trace, required, seed);
        },
        "plan/candidate.");

    result.enumerated =
        static_cast<std::int64_t>(result.candidates.size());
    for (std::size_t i = 0; i < result.candidates.size(); ++i) {
        const CandidateOutcome &c = result.candidates[i];
        const auto idx = static_cast<std::int64_t>(i);
        TF_COUNT_ID(obs::metricKey("plan/candidate", idx,
                                   std::string("status.")
                                       + toString(c.status)),
                    1);
        switch (c.status) {
        case CandidateStatus::MemoryUnfit: ++result.memory_unfit; break;
        case CandidateStatus::Pruned: ++result.pruned; break;
        case CandidateStatus::Infeasible:
        case CandidateStatus::Feasible: break;
        }
        if (!c.simulated)
            continue;
        ++result.simulated;
        TF_GAUGE_ADD_ID(
            obs::metricKey("plan/candidate", idx, "cost"),
            c.objectives.cost);
        TF_GAUGE_ADD_ID(
            obs::metricKey("plan/candidate", idx,
                           "throughput_rps"),
            c.objectives.throughput_rps);
        if (c.objectives.p99_latency_s
            < std::numeric_limits<double>::infinity())
            TF_GAUGE_ADD_ID(
                obs::metricKey("plan/candidate", idx, "p99_s"),
                c.objectives.p99_latency_s);
    }

    // Frontier and best compete over feasible candidates only: an
    // SLO violator is not a deployment option at any price, and
    // confining the frontier to feasible points is what makes the
    // pruned and exhaustive searches provably agree.
    std::vector<std::size_t> feasible_idx;
    std::vector<Objectives> feasible_obj;
    for (std::size_t i = 0; i < result.candidates.size(); ++i) {
        if (result.candidates[i].status
            != CandidateStatus::Feasible)
            continue;
        feasible_idx.push_back(i);
        feasible_obj.push_back(result.candidates[i].objectives);
    }
    result.feasible =
        static_cast<std::int64_t>(feasible_idx.size());
    for (const std::size_t f : paretoFrontier(feasible_obj))
        result.frontier.push_back(feasible_idx[f]);

    for (const std::size_t i : feasible_idx) {
        if (!result.best) {
            result.best = i;
            continue;
        }
        const Objectives &a = result.candidates[i].objectives;
        const Objectives &b =
            result.candidates[*result.best].objectives;
        if (a.cost < b.cost
            || (a.cost == b.cost
                && (a.p99_latency_s < b.p99_latency_s
                    || (a.p99_latency_s == b.p99_latency_s
                        && a.throughput_rps
                            > b.throughput_rps))))
            result.best = i;
    }

    TF_COUNT("plan/enumerated", result.enumerated);
    TF_COUNT("plan/memory_unfit", result.memory_unfit);
    TF_COUNT("plan/pruned", result.pruned);
    TF_COUNT("plan/simulated", result.simulated);
    TF_COUNT("plan/feasible", result.feasible);
    TF_COUNT("plan/frontier_size",
             static_cast<std::int64_t>(result.frontier.size()));
    TF_GAUGE_ADD("plan/required_tokens_per_s", required);
    if (result.best) {
        const CandidateOutcome &b = result.bestOutcome();
        TF_GAUGE_ADD("plan/best.cost", b.objectives.cost);
        TF_GAUGE_ADD("plan/best.p99_s",
                     b.objectives.p99_latency_s);
        TF_COUNT("plan/best.total_chips", b.spec.totalChips());
    }
    return result;
}

} // namespace transfusion::plan
