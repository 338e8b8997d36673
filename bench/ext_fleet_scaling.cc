/**
 * @file
 * Extension experiment: fleet replica scaling.  Replays one
 * saturating request trace against fleets of 1, 2, 4, ... replicas
 * (powers of two up to --replicas) under every load-balancing
 * policy, at a fixed offered load: completed throughput should
 * grow with replica count, and the policies separate on tail
 * latency under contention.
 *
 * Determinism: the trace and every fleet replay are pure functions
 * of --seed and the policy; --threads fans the replica sizes out
 * (each size builds its fleet once and replays its policies in
 * order), and rows print in input order, so the table is
 * bit-identical for any value.
 *
 * Flags: --replicas N caps the sweep (default 8), --policy NAME
 * restricts it to one policy (default: all), --seed the trace and
 * the power-of-two router draws.
 */

#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/math_utils.hh"
#include "fleet/fleet_sim.hh"
#include "obs/parallel.hh"

namespace
{

/** "-" for an empty histogram instead of a fatal percentile. */
std::string
pct(const transfusion::Histogram &h, double p)
{
    return h.empty()
        ? std::string("-")
        : transfusion::formatSeconds(h.percentileOr(p, 0));
}

bool
policyForced(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--policy" || arg.rfind("--policy=", 0) == 0)
            return true;
    }
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace transfusion;
    auto args = bench::parseBenchArgs(argc, argv);
    if (args.replicas == 1)
        args.replicas = 8;
    bench::printBanner(
        "Extension: fleet replica scaling",
        "One saturating trace against 1..N sharded replicas behind "
        "the seeded router; completed throughput per replica count "
        "and policy at a fixed offered load");

    const auto cluster = multichip::edgeCluster(1);
    const auto cfg = model::t5Small();

    serve::WorkloadOptions wl;
    // The burst outpaces even the full fleet, so the makespan is
    // service-limited at every size and completed/s scales with
    // the replica count instead of the arrival rate.
    wl.arrival_per_s = 400.0;
    wl.requests = 96;
    wl.prompt = { 128, 256 };
    wl.output = { 16, 32 };

    fleet::FleetOptions opts;
    opts.serve.max_batch = 4;
    opts.serve.cost.cache_samples = 3;
    opts.serve.cost.prefill_samples = 3;
    opts.serve.cost.evaluator.mcts.iterations = 32;
    opts.threads = 1;
    opts.plan_threads = args.threads;

    const auto trace = serve::generateWorkload(wl, args.seed);
    const std::vector<fleet::PolicyKind> policies =
        policyForced(argc, argv)
        ? std::vector<fleet::PolicyKind>{ args.policy }
        : fleet::allPolicies();

    std::cout << "Replica: " << cluster.toString() << ", trace of "
              << trace.size() << " requests at "
              << wl.arrival_per_s << " req/s\n\n";

    std::vector<int> sizes;
    for (int n = 1; n <= args.replicas; n *= 2)
        sizes.push_back(n);
    const auto runs = obs::parallelMapRecorded(
        args.threads, sizes, [&](const int &n) {
            // Calibrate once per size; the policy is a run-time knob.
            const auto fleet = fleet::FleetSimulator::uniform(
                n, cluster, cfg, wl, opts);
            std::vector<fleet::FleetMetrics> per_policy;
            for (const fleet::PolicyKind policy : policies) {
                fleet::FleetRunOptions run;
                run.policy = policy;
                run.seed = args.seed;
                per_policy.push_back(fleet.run(trace, run));
            }
            return per_policy;
        });

    Table t({ "replicas", "policy", "completed", "rejected",
              "completed/s", "tok/s", "energy J", "chip-s",
              "wait p99", "lat p99" });
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        for (std::size_t j = 0; j < policies.size(); ++j) {
            const fleet::FleetMetrics &m = runs[i][j];
            t.addRow({
                std::to_string(sizes[i]),
                fleet::toString(policies[j]),
                std::to_string(m.completed),
                std::to_string(m.rejected),
                m.makespan_s > 0
                    ? Table::cell(m.completed_per_second, 2)
                    : std::string("-"),
                m.makespan_s > 0
                    ? Table::cell(
                          static_cast<double>(m.generated_tokens)
                              / m.makespan_s,
                          1)
                    : std::string("-"),
                Table::cell(m.energy_j, 2),
                Table::cell(m.chip_seconds, 2),
                pct(m.queue_wait_s, 99),
                pct(m.latency_s, 99),
            });
        }
    }
    bench::printTable(t, args, std::cout);

    std::cout << "\nEvery offered request is accounted per row: "
                 "completed + rejected = offered ("
              << trace.size()
              << "); throughput grows with replica count at this "
                 "fixed offered load.\n";
    return 0;
}
